"""Shared independent oracles: central finite differences, error norms and
the row-by-row CSV reader and writer the chunked ones are checked against."""

import csv
import math

import numpy as np

from fairdp.classifier import forward, mean_param_grad
from fairdp.dataset import TabularDataset
from fairdp.exceptions import EmptyDatasetError, ParseError, SchemaError
from fairdp.fairness import saddle_terms


def central_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def central_diff_jac(f, x, out_dim, h=1e-5):
    """Central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.zeros((out_dim, x.size))
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        jac[:, i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return jac


def dp_saddle_terms(theta, w, features, s, stats):
    """Batch-mean (theta gradient, dual gradient, psi value) of one k x l
    demographic-parity block through the training kernels: one forward pass,
    saddle_terms on the single stratum, then mean_param_grad."""
    features = np.asarray(features, dtype=np.float64)
    proba = forward(theta.weights, theta.bias, features)
    cells = np.asarray(s, dtype=np.int64) - 1
    d_psi, g_w, value = saddle_terms(proba, np.asarray(w)[None], stats.inv_sqrt[None], cells)
    return mean_param_grad(d_psi, features), g_w[0], value


def rel_error(approx, exact):
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(np.asarray(approx) - exact) / denom


def reference_load_csv(path, label_col, sensitive_col):
    """Row-by-row, cell-by-cell CSV loader: the reference for `load_csv`."""
    if label_col == sensitive_col:
        raise SchemaError("label and sensitive columns must differ")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        for col in (label_col, sensitive_col):
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header {header}")
        label_idx = header.index(label_col)
        sens_idx = header.index(sensitive_col)
        feat_idx = [i for i in range(len(header)) if i not in (label_idx, sens_idx)]

        label_codes = {}
        sens_codes = {}
        features, labels, sensitive = [], [], []
        for row_i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", row_i)
            feats = np.empty(len(feat_idx))
            for j, col_i in enumerate(feat_idx):
                cell = row[col_i].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric feature cell {cell!r} in column {header[col_i]!r}", row_i
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite feature cell {cell!r} in column {header[col_i]!r}", row_i
                    )
                feats[j] = value
            labels.append(label_codes.setdefault(row[label_idx].strip(), len(label_codes) + 1))
            sensitive.append(sens_codes.setdefault(row[sens_idx].strip(), len(sens_codes) + 1))
            features.append(feats)

    if not features:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    return TabularDataset(
        features=np.vstack(features),
        labels=np.array(labels),
        sensitive=np.array(sensitive),
        l=len(label_codes),
        k=len(sens_codes),
        label_names=tuple(label_codes),
        sensitive_names=tuple(sens_codes),
        feature_names=tuple(header[i] for i in feat_idx),
    )


def reference_write_csv(ds, path):
    """Row-by-row csv.writer output: the reference for `fairdp synth`'s file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(ds.d_x)] + ["label", "sensitive"])
        for i in range(ds.n):
            writer.writerow(
                [f"{v:.10g}" for v in ds.features[i]]
                + [int(ds.labels[i]), int(ds.sensitive[i])]
            )
