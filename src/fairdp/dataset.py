"""Tabular datasets with integer labels and sensitive attributes.

Labels live in {1..l} and sensitive attributes in {1..k}; categorical CSV
values are mapped to these codes in first-appearance order and the mapping
is kept on the dataset so exported results stay interpretable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .exceptions import (
    DegenerateGroupError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
)

CHUNK_ROWS = 1024  # CSV lines parsed per chunk by load_csv and rows written per write by synth


def _frozen_array(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularDataset:
    """Immutable feature matrix plus 1-based label and sensitive codes."""

    features: np.ndarray  # (n, d_x) float64
    labels: np.ndarray  # (n,) int64, values in 1..l
    sensitive: np.ndarray  # (n,) int64, values in 1..k
    l: int
    k: int
    label_names: tuple[str, ...] | None = None
    sensitive_names: tuple[str, ...] | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        features = _frozen_array(self.features, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        sensitive = _frozen_array(self.sensitive, np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = features.shape[0]
        if n < 1:
            raise EmptyDatasetError("dataset has no rows")
        if labels.shape != (n,) or sensitive.shape != (n,):
            raise ValueError("labels and sensitive must be length-n vectors")
        if self.l < 2:
            raise ValueError(f"need at least two label classes, got l={self.l}")
        if self.k < 2:
            raise ValueError(f"need at least two sensitive groups, got k={self.k}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.min() < 1 or labels.max() > self.l:
            raise ValueError("labels out of range 1..l")
        if sensitive.min() < 1 or sensitive.max() > self.k:
            raise ValueError("sensitive attributes out of range 1..k")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sensitive", sensitive)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_x(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_arrays(cls, features, labels, sensitive, l=None, k=None) -> "TabularDataset":
        """Build a dataset from raw arrays, inferring l and k when omitted."""
        labels = np.asarray(labels, dtype=np.int64)
        sensitive = np.asarray(sensitive, dtype=np.int64)
        if l is None:
            l = int(labels.max()) if labels.size else 0
        if k is None:
            k = int(sensitive.max()) if sensitive.size else 0
        return cls(np.asarray(features, dtype=np.float64), labels, sensitive, int(l), int(k))

    def subset(self, idx) -> "TabularDataset":
        """Row subset keeping the declared l, k and the encoding metadata."""
        idx = np.asarray(idx)
        return replace(
            self,
            features=self.features[idx],
            labels=self.labels[idx],
            sensitive=self.sensitive[idx],
        )


@dataclass(frozen=True)
class SensitiveStats:
    """Empirical sensitive-group distribution and its inverse square roots."""

    counts: np.ndarray  # (k,) int64, all >= 1
    probabilities: np.ndarray  # (k,) float64, sums to 1
    rho: float  # min group fraction, > 0
    inv_sqrt: np.ndarray  # (k,) float64, probabilities ** -0.5

    def __post_init__(self):
        object.__setattr__(self, "counts", _frozen_array(self.counts, np.int64))
        object.__setattr__(self, "probabilities", _frozen_array(self.probabilities, np.float64))
        object.__setattr__(self, "inv_sqrt", _frozen_array(self.inv_sqrt, np.float64))

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @classmethod
    def from_groups(cls, sensitive: np.ndarray, k: int) -> "SensitiveStats":
        """Stats for a vector of group codes in 1..k; every group must appear."""
        sensitive = np.asarray(sensitive, dtype=np.int64)
        counts = np.bincount(sensitive - 1, minlength=k)
        if counts.min() < 1:
            missing = [r + 1 for r in range(k) if counts[r] == 0]
            raise DegenerateGroupError(f"sensitive group(s) {missing} have no samples")
        probs = counts / sensitive.shape[0]
        return cls(counts, probs, float(probs.min()), probs ** -0.5)


def sensitive_stats(ds: TabularDataset) -> SensitiveStats:
    """Group counts, probabilities, rho and P_S^{-1/2} diagonal for a dataset."""
    return SensitiveStats.from_groups(ds.sensitive, ds.k)


def load_csv(path, label_col: str, sensitive_col: str) -> TabularDataset:
    """Load a UTF-8 header CSV into a dataset.

    One label column and one sensitive column are taken by name; every other
    column must be numeric and becomes a feature. Missing values are a hard
    error. Label and sensitive categories are encoded in first-appearance
    order of their whitespace-stripped cells and the code-to-name maps are
    stored on the dataset.

    Data lines are read CHUNK_ROWS at a time. A chunk is parsed by one
    np.loadtxt call when it has no quote or NUL character, no line longer
    than csv's field size limit, loadtxt returns exactly one row per line
    and every feature is finite. The first chunk that fails any of these
    hands its lines and the rest of the file to csv.reader, the only path
    for quoted cells, blank rows and the numerals only float() accepts
    ("1_0", non-ASCII digits). There each chunk's feature cells go through
    one float() pass, and a chunk that fails is re-scanned cell by cell to
    raise the ParseError of its first bad row. The dataset, and any error
    with its message and row, are the same whichever path a chunk takes;
    error rows are absolute 0-based data-row indices (the header is not
    counted).
    """
    if label_col == sensitive_col:
        raise SchemaError("label and sensitive columns must differ")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        for col in (label_col, sensitive_col):
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header {header}")
        label_idx = header.index(label_col)
        sens_idx = header.index(sensitive_col)
        feat_idx = [i for i in range(len(header)) if i not in (label_idx, sens_idx)]
        row_dtype = np.dtype(
            [(str(i), np.float64 if i in feat_idx else object) for i in range(len(header))]
        )

        label_codes: dict[str, int] = {}
        sens_codes: dict[str, int] = {}
        features, labels, sensitive = [], [], []
        start = 0
        rest = fh
        while True:
            lines = []
            try:
                lines.extend(islice(fh, CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                # csv.reader sees the lines read so far, then the same error
                rest = _raising(exc)
                break
            chunk = _loadtxt_chunk(lines, row_dtype, feat_idx)
            if chunk is None:
                break
            table, block = chunk
            features.append(block)
            labels.append(_encode(table[str(label_idx)].tolist(), label_codes))
            sensitive.append(_encode(table[str(sens_idx)].tolist(), sens_codes))
            start += len(lines)

        reader = csv.reader(chain(lines, rest))
        while True:
            rows = []
            try:
                rows.extend(islice(reader, CHUNK_ROWS))
            except (csv.Error, ValueError):
                # a bad row read before the unreadable one reports first
                _parse_features(rows, start, header, feat_idx)
                raise
            if not rows:
                break
            features.append(_feature_block(rows, start, header, feat_idx))
            labels.append(_encode(map(itemgetter(label_idx), rows), label_codes))
            sensitive.append(_encode(map(itemgetter(sens_idx), rows), sens_codes))
            start += len(rows)

    if not features:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    return TabularDataset(
        features=np.concatenate(features),
        labels=np.concatenate(labels),
        sensitive=np.concatenate(sensitive),
        l=len(label_codes),
        k=len(sens_codes),
        label_names=tuple(label_codes),
        sensitive_names=tuple(sens_codes),
        feature_names=tuple(header[i] for i in feat_idx),
    )


def _raising(exc):
    """An iterator whose first next() raises exc."""
    raise exc
    yield


def _loadtxt_chunk(lines, row_dtype, feat_idx) -> tuple[np.ndarray, np.ndarray] | None:
    """A chunk's structured rows, one per line, and its (rows, features)
    float64 block; None if the chunk needs csv.reader: it is empty, has a
    quote or NUL character (csv quoting, and csv's NUL error before Python
    3.11), a line that may hold a cell over csv's field size limit, a cell
    loadtxt cannot convert, another count of rows than lines or a
    non-finite feature."""
    # checked line by line: joining a chunk into one string costs cli-ingest
    # about 6 MB of peak RSS in heap fragmentation
    if (
        any('"' in line or "\x00" in line for line in lines)
        # a blank line is at most a two-character terminator; one longer line
        # keeps loadtxt from warning of empty input (the row count below
        # catches the blank lines it skips)
        or sum(map(len, lines)) <= 2 * len(lines)
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    try:
        table = np.loadtxt(lines, row_dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if table.shape != (len(lines),):
        return None
    block = np.empty((len(lines), len(feat_idx)))
    for j, i in enumerate(feat_idx):
        block[:, j] = table[str(i)]
    return (table, block) if np.isfinite(block).all() else None


def _feature_block(rows, start, header, feat_idx) -> np.ndarray:
    """(len(rows), len(feat_idx)) float64 features of one chunk of CSV rows."""
    if set(map(len, rows)) == {len(header)}:
        if len(feat_idx) > 1:
            cells = chain.from_iterable(map(itemgetter(*feat_idx), rows))
        else:
            cells = map(itemgetter(*feat_idx), rows) if feat_idx else ()
        try:
            block = np.fromiter(map(float, cells), np.float64, len(rows) * len(feat_idx))
        except ValueError:
            pass
        else:
            if np.isfinite(block).all():
                return block.reshape(len(rows), len(feat_idx))
    return _parse_features(rows, start, header, feat_idx)


def _parse_features(rows, start, header, feat_idx) -> np.ndarray:
    """Cell-by-cell conversion that raises the first bad row's ParseError."""
    block = np.empty((len(rows), len(feat_idx)))
    for row_i, row in enumerate(rows, start):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", row_i)
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
            block[row_i - start, j] = value
    return block


def _encode(cells, codes: dict[str, int]) -> np.ndarray:
    """1-based codes of the stripped cells, extending codes in
    first-appearance order."""
    cells = list(map(str.strip, cells))
    for name in dict.fromkeys(cells):
        codes.setdefault(name, len(codes) + 1)
    return np.fromiter(map(codes.__getitem__, cells), np.int64, len(cells))


def train_test_split(
    ds: TabularDataset, test_fraction: float, seed: int
) -> tuple[TabularDataset, TabularDataset]:
    """Disjoint uniform-random partition into ceil(n*(1-f)) train rows and the rest."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    # small slack absorbs float error in n*(1-f) before the ceiling
    n_train = math.ceil(ds.n * (1.0 - test_fraction) - 1e-9)
    if n_train < 1 or n_train >= ds.n:
        raise ValueError(f"split of n={ds.n} at fraction {test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.subset(np.sort(perm[:n_train])), ds.subset(np.sort(perm[n_train:]))


def minibatch(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m dataset indices drawn uniformly with replacement (0-based)."""
    if not 1 <= m <= n:
        raise ValueError(f"batch size {m} must satisfy 1 <= m <= n={n}")
    return rng.integers(0, n, size=m)

