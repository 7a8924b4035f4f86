"""Shared independent oracles: central finite differences, error norms, the
row-by-row CSV reader and writer the chunked ones are checked against, the
observable outcome of a CSV load (its dataset or its error), whether
fairdp may fork here (TWO_USABLE_CPUS), a training loop that computes the
saddle terms at every step, which
dp_fermi_train must match bit for bit, the whole-array forms of
synth_dataset and proba_lipschitz_bound, which their in-place and blocked
forms must match bit for bit, and the per-sample references for the
class-major batch kernels: the cross-entropy loss, its gradient and the
probability Jacobian of one sample (loss, loss_grad, jacobian_proba, and
mean_loss over a sample set, by mean_cross_entropy on class-major
probabilities; the library computes no loss value), one sample's saddle
value psi and its exact gradients (psi_grad_w, psi_grad_theta) for one
k x l dual block at a (k,) row of group inverse square roots, the group
counts and inverse square roots of a vector of group codes by one
bincount, the four closed-form noise variances written out term by
term, which the one noise rule sigma = z * Delta must reproduce, and the
one runner of code in a fresh interpreter (run_fresh) with its fork
prelude."""

import csv
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from fairdp import _fork
from fairdp.classifier import (
    ModelParams, forward, gradient_scale, loss_dlogits, mean_param_grad, predict_proba
)
from fairdp.dataset import TabularDataset, minibatch
from fairdp.exceptions import DivergenceError, EmptyDatasetError, ParseError, SchemaError
from fairdp.fairness import saddle_terms, strata
from fairdp.harness import _class_means
from fairdp.optimizer import TrainResult
from fairdp.privacy import ALL_FEATURES, SENSITIVE_ONLY, gaussian_noise

# Whether fairdp may fork here, thread count aside: two CPUs in the affinity
# mask, and a cgroup quota, if any, of two whole CPUs (fairdp._fork._workers).
TWO_USABLE_CPUS = hasattr(os, "sched_getaffinity") and min(
    len(os.sched_getaffinity(0)), _fork._cpu_quota() or math.inf
) >= 2

# Run first by run_fresh: forks counts the children os.fork starts, where()
# names the process it is called in, and no_child_is_left() is whether every
# child has been reaped.
FORK_PRELUDE = """
import os

CALLER = os.getpid()
forks = []
fork = os.fork


def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counting_fork


def where():
    return "the caller" if os.getpid() == CALLER else "a child"


def no_child_is_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_fresh(body, prelude="", returncode=0, pin_blas=True):
    """Run FORK_PRELUDE, prelude and the dedented body in a new interpreter
    under -X dev with warnings as errors, with src and tests on its path and
    OPENBLAS_NUM_THREADS=1, or without the variable if not pin_blas. Its
    exit status must be returncode; the completed process."""
    tests = Path(__file__).resolve().parent
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    )
    if pin_blas:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c",
         FORK_PRELUDE + prelude + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


# Probabilities below this are clamped by the loss references, so a saturated
# wrong prediction yields a large finite loss; gradients use the analytic form.
PROB_FLOOR = 1e-30


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


def dp_saddle_terms(theta, w, features, s, inv_sqrt):
    """Batch-mean (theta gradient, dual gradient, psi value) of one k x l
    demographic-parity block, at its (k,) group inverse square roots, through
    the training kernels: one forward pass, saddle_terms on the single
    stratum, then mean_param_grad."""
    features = np.asarray(features, dtype=np.float64)
    proba = forward(theta.weights, theta.bias, features)
    cells = np.asarray(s, dtype=np.int64) - 1
    d_psi, g_w, value = saddle_terms(proba, np.asarray(w)[None], inv_sqrt[None], cells)
    return mean_param_grad(d_psi, features), g_w[0], value


def reference_noise_variances(granularity, budget, T, n, rho, L_theta, D, l):
    """The closed-form (sigma_theta^2, sigma_w^2), each spelled out as one
    expression in base = T ln(1/delta) / (eps^2 n^2) rather than as z^2 Delta^2."""
    base = T * math.log(1.0 / budget.delta) / (budget.epsilon ** 2 * n ** 2)
    if granularity == SENSITIVE_ONLY:
        return 16.0 * L_theta ** 2 * D ** 2 * base / rho, 16.0 * base / rho
    assert granularity == ALL_FEATURES
    return (
        64.0 * L_theta ** 2 * D ** 2 * base / rho + 32.0 * D ** 4 * L_theta ** 2 * l ** 2 * base,
        32.0 * base * (1.0 / rho + D ** 2),
    )


def rel_error(approx, exact):
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(np.asarray(approx) - exact) / denom


def reference_synth_dataset(spec):
    """synth_dataset with its features built as one whole-array expression."""
    rng = np.random.default_rng(spec.seed)
    s = rng.integers(1, spec.k + 1, size=spec.n)
    y = rng.integers(1, spec.l + 1, size=spec.n)
    preferred = ((s - 1) % spec.l) + 1
    flip_prob = spec.bias * (s - 1) / (spec.k - 1)
    y = np.where(rng.random(spec.n) < flip_prob, preferred, y)
    features = _class_means(spec.l, spec.d_x)[y - 1] + spec.noise_scale * rng.standard_normal(
        (spec.n, spec.d_x)
    )
    features[:, -1] += 2.0 * (2.0 * (s - 1) / (spec.k - 1) - 1.0)  # group offset in [-2, 2]
    return TabularDataset(features, y, s, spec.l, spec.k)


def reference_proba_lipschitz_bound(features):
    """proba_lipschitz_bound squaring all rows at once."""
    features = np.asarray(features, dtype=np.float64)
    return float(0.5 * np.sqrt((features ** 2).sum(axis=-1).max() + 1.0))


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
        except csv.Error as exc:  # a cell over csv's field size limit
            raise SchemaError(f"unreadable header: {exc}") from None
        header = [h.strip() for h in header]
        for col in (label_col, sensitive_col):
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header {header}")
        if repeated := [name for name in dict.fromkeys(header) if header.count(name) > 1]:
            raise SchemaError(f"header repeats the column name(s) {repeated}")
        label_idx = header.index(label_col)
        sens_idx = header.index(sensitive_col)
        feat_idx = [i for i in range(len(header)) if i not in (label_idx, sens_idx)]

        label_codes = {}
        sens_codes = {}
        features, labels, sensitive = [], [], []
        try:
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
        except csv.Error as exc:  # a cell over csv's field size limit
            raise ParseError(str(exc), len(features)) from None

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


def load_outcome(load, path, columns=("lab", "grp")):
    """Everything observable about a load: the dataset or the exception."""
    try:
        ds = load(path, *columns)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return (
        ds.features.shape,
        ds.features.dtype,
        ds.features.flags.c_contiguous,
        ds.features.tobytes(),
        ds.labels.tolist(),
        ds.sensitive.tolist(),
        ds.l,
        ds.k,
        ds.label_names,
        ds.sensitive_names,
        ds.feature_names,
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


def reference_saddle_terms(proba, w, inv_sqrt, cells):
    """saddle_terms written with an axis-1 gather of the per-cell
    coefficients and a separate code array for the joints: the reference
    saddle_terms must match bit for bit."""
    n_strata, k, l = w.shape
    m = cells.shape[0]
    blocks = w.reshape(n_strata * k, l)
    diag_quad = np.repeat((w * w).sum(axis=1), k, axis=0)
    table = (2.0 * inv_sqrt.reshape(-1, 1) * blocks - diag_quad).T.copy()  # (l, C k)
    coeffs = table.take(cells, axis=1)  # (l, m)
    per_sample = (proba * coeffs).sum(axis=0)
    coeffs -= per_sample
    coeffs *= proba
    codes = cells + (n_strata * k * np.arange(l))[:, None]
    flat = np.bincount(codes.ravel(), weights=proba.ravel(), minlength=l * n_strata * k)
    joint = flat.reshape(l, n_strata * k).T.reshape(n_strata, k, l)
    marginal = joint.sum(axis=1, keepdims=True)
    grad_w = (2.0 / m) * (inv_sqrt[:, :, None] * joint - w * marginal)
    return coeffs, grad_w, float(per_sample.sum() / m - 1.0)


def reference_train(ds, theta0, fermi, config, noise):
    """dp_fermi_train without the lam = 0 shortcut: every step computes the
    saddle terms (reference_saddle_terms) and scales them by lam, whatever
    lam is."""
    if config.m > ds.n:
        raise ValueError(f"batch size {config.m} exceeds n={ds.n}")
    if theta0.d_x != ds.d_x or theta0.l != ds.l:
        raise ValueError("model dimensions do not match the dataset")
    rng = np.random.default_rng(config.seed)
    cells, inv_sqrt = strata(ds, fermi.notion)
    scale = None if config.clip_theta is None else gradient_scale(ds.features)
    w = np.zeros((inv_sqrt.shape[0], ds.k, ds.l))
    theta = theta0.as_vector()
    weights = theta[: ds.l * ds.d_x].reshape(ds.l, ds.d_x)
    bias = theta[ds.l * ds.d_x :]
    lam = fermi.lam
    for t in range(1, config.T + 1):
        batch = minibatch(ds.n, config.m, rng)
        x = ds.features.take(batch, axis=0)
        labels = ds.labels.take(batch)
        try:
            proba = forward(weights, bias, x)
        except FloatingPointError:
            raise DivergenceError(t, "logits") from None
        d_loss = loss_dlogits(
            proba, labels, config.clip_theta, None if scale is None else scale.take(batch)
        )
        d_psi, g_w, _ = reference_saddle_terms(proba, w, inv_sqrt, cells.take(batch))
        g_theta = mean_param_grad(d_loss + lam * d_psi, x)
        u = gaussian_noise(rng, noise.sigma_theta_sq, theta.size)
        v = gaussian_noise(rng, noise.sigma_w_sq, w.size).reshape(w.shape)
        theta -= config.eta_theta * (g_theta + lam * u)
        w = np.clip(w + config.eta_w * (lam * g_w + v), -config.box_radius, config.box_radius)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(w))):
            raise DivergenceError(t, "iterates")
    return TrainResult(params=ModelParams.from_vector(theta, ds.l, ds.d_x), dual=w)


def loss(theta: ModelParams, x: np.ndarray, y: int) -> float:
    """Cross-entropy -log F_y(x, theta), capped at -log(PROB_FLOOR)."""
    if not 1 <= y <= theta.l:
        raise ValueError(f"label {y} out of range 1..{theta.l}")
    p = predict_proba(theta, x)[y - 1]
    return float(-np.log(max(p, PROB_FLOOR)))


def loss_grad(theta: ModelParams, x: np.ndarray, y: int) -> np.ndarray:
    """Exact gradient of loss() in the flattened parameter vector."""
    if not 1 <= y <= theta.l:
        raise ValueError(f"label {y} out of range 1..{theta.l}")
    x = np.asarray(x, dtype=np.float64)
    dlogits = predict_proba(theta, x)
    dlogits[y - 1] -= 1.0
    return np.concatenate([np.outer(dlogits, x).ravel(), dlogits])


def jacobian_proba(theta: ModelParams, x: np.ndarray) -> np.ndarray:
    """(l, d_theta) matrix whose row j is the gradient of F_j(x, theta).

    Rows sum to zero because the probabilities sum to one.
    """
    x = np.asarray(x, dtype=np.float64)
    probs = predict_proba(theta, x)
    # dF/dlogits = diag(F) - F F^T, then chain through logits = Wx + b
    a = np.diag(probs) - np.outer(probs, probs)
    weight_part = a[:, :, None] * x[None, None, :]
    return np.concatenate([weight_part.reshape(theta.l, -1), a], axis=1)


def mean_cross_entropy(proba: np.ndarray, labels: np.ndarray) -> float:
    """Average -log F_y over class-major probabilities (l, m) and labels in 1..l."""
    picked = proba[labels - 1, np.arange(labels.shape[0])]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def mean_loss(theta: ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Average cross-entropy over a sample set."""
    features = np.asarray(features, dtype=np.float64)
    return mean_cross_entropy(forward(theta.weights, theta.bias, features), np.asarray(labels))


def group_stats(sensitive, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k,) counts and share inverse square roots of codes in 1..k, every
    group present, by one plain bincount: the oracle for dataset.group_counts
    and fairness.strata, over a dataset or one label class."""
    sensitive = np.asarray(sensitive, dtype=np.int64)
    counts = np.bincount(sensitive - 1, minlength=k)
    return counts, (counts / sensitive.shape[0]) ** -0.5


def _check_dual(theta: ModelParams, w: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (inv_sqrt.shape[0], theta.l):
        raise ValueError(f"dual must be {(inv_sqrt.shape[0], theta.l)}, got {w.shape}")
    return w


def psi(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    inv_sqrt: np.ndarray,
) -> float:
    """Per-sample saddle value.

    psi = -Tr(W diag(F) W^T) + 2 Tr(W^T P_S^{-1/2} B) - 1 with
    B[r, j] = 1{s = r} F_j(x, theta) and inv_sqrt the (k,) diagonal of
    P_S^{-1/2}; strongly concave in W, and the batch maximum over W of the
    averaged psi equals the soft ERMI.
    """
    w = _check_dual(theta, w, inv_sqrt)
    probs = predict_proba(theta, x)
    quad = float((w ** 2).sum(axis=0) @ probs)
    coupling = float(w[s - 1] @ probs) * inv_sqrt[s - 1]
    return -quad + 2.0 * coupling - 1.0


def psi_grad_w(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    inv_sqrt: np.ndarray,
) -> np.ndarray:
    """Exact dual gradient -2 W diag(F) + 2 P_S^{-1/2} B."""
    w = _check_dual(theta, w, inv_sqrt)
    probs = predict_proba(theta, x)
    grad = -2.0 * w * probs[None, :]
    grad[s - 1] += 2.0 * inv_sqrt[s - 1] * probs
    return grad


def psi_grad_theta(
    theta: ModelParams,
    w: np.ndarray,
    x: np.ndarray,
    s: int,
    inv_sqrt: np.ndarray,
) -> np.ndarray:
    """Model gradient of psi, chained through the probability Jacobian.

    psi depends on theta only through F, linearly: psi = sum_j c_j F_j - 1
    with c_j = -(W^T W)_{jj} + 2 W[s, j] / sqrt(p_S(s)), so the gradient is
    J^T c where J is jacobian_proba.
    """
    w = _check_dual(theta, w, inv_sqrt)
    x = np.asarray(x, dtype=np.float64)
    probs = predict_proba(theta, x)
    c = -(w ** 2).sum(axis=0) + 2.0 * inv_sqrt[s - 1] * w[s - 1]
    # J^T c without materializing J: a = (diag(F) - F F^T) c
    a = probs * c - probs * float(probs @ c)
    return np.concatenate([np.outer(a, x).ravel(), a])
