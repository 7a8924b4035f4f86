"""Tabular datasets with integer labels and sensitive attributes.

Labels live in {1..l} and sensitive attributes in {1..k}; categorical CSV
values are mapped to these codes in first-appearance order and the mapping
is kept on the dataset so exported results stay interpretable. A large CSV
is parsed in byte ranges across the usable CPUs (see load_csv). The module
also owns the library's argument checks, _check_int for counts and seeds
and _check_positive_finite for positive reals.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import stat
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from ._fork import _run_shares, _workers
from .exceptions import (
    DegenerateConditionalError, DegenerateGroupError, EmptyDatasetError, ParseError, SchemaError
)

CHUNK_ROWS = 1024  # CSV lines parsed per chunk by load_csv and rows written per write by synth


def _frozen_array(a, dtype) -> np.ndarray:
    """a itself if it is a read-only dtype array that owns its memory,
    otherwise a read-only dtype copy of it. A view is always copied."""
    owned = isinstance(a, np.ndarray) and a.base is None
    if owned and a.dtype == dtype and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_int(name: str, value, minimum: int = 0, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming `name` unless value is an int or a numpy
    integer, not a bool, of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        bound = {0: "a non-negative integer", 1: "a positive integer"}
        kind = bound.get(minimum, f"an integer >= {minimum}")
        raise error(f"{name} must be {kind}, got {value!r}")


def _check_positive_finite(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming `name` unless 0 < value < inf."""
    if not 0.0 < value < math.inf:  # also rejects NaN, which fails every comparison
        raise error(f"{name} must be positive and finite, got {value}")


def _check_test_fraction(test_fraction) -> None:
    """Raise ValueError unless 0 < test_fraction < 1 (NaN fails too)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")


def _frozen(*arrays) -> None:
    """Mark freshly built arrays read-only, so TabularDataset takes them
    without a copy."""
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class TabularDataset:
    """Immutable feature matrix plus 1-based label and sensitive codes.

    The dataset owns read-only arrays. An input array is kept as it is
    when it has the right dtype, is read-only and owns its memory
    (`a.base is None`); any other input, a view or a writeable array, is
    stored as a read-only copy, so changing it later leaves the dataset
    unchanged. SensitiveStats and ModelParams hold their arrays by the same
    rule. The shape, finiteness and code-range checks run either way. A
    caller that keeps an array it handed over and calls setflags(write=True)
    on it can still change the dataset.
    """

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
        _check_int("l", self.l)
        _check_int("k", self.k)
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

    def subset(self, idx) -> "TabularDataset":
        """Row subset keeping the declared l, k and the encoding metadata."""
        idx = np.asarray(idx)
        # fancy indexing copies, so the rows share no memory with self
        features, labels, sensitive = self.features[idx], self.labels[idx], self.sensitive[idx]
        _frozen(features, labels, sensitive)
        return replace(self, features=features, labels=labels, sensitive=sensitive)


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


def group_counts(ds: TabularDataset, by_label: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's cell and the (stratum, group) sample counts; no other
    code counts samples per group.

    Returns the 0-based (n,) cell codes stratum * k + (group - 1) and the
    (C, k) int64 counts, with one stratum (C = 1), or one per label class
    (C = l) when by_label. An absent group raises DegenerateGroupError; by
    label, the first label class that is absent or lacks a group raises
    DegenerateConditionalError. The error names a group by its CSV value
    where the dataset keeps one, else by its code.
    """
    n_strata, stratum = (ds.l, ds.labels - 1) if by_label else (1, 0)
    cells = stratum * ds.k + ds.sensitive - 1
    counts = np.bincount(cells, minlength=n_strata * ds.k).reshape(n_strata, ds.k)
    if counts.min() == 0:
        c = int(np.flatnonzero(counts.min(axis=1) == 0)[0])
        message = _no_samples(counts[c], ds.sensitive_names)
        if not by_label:
            raise DegenerateGroupError(message)
        if not counts[c].any():
            raise DegenerateConditionalError(f"label class {c + 1} has no samples")
        raise DegenerateConditionalError(f"within label class {c + 1}: {message}")
    return cells, counts


def _no_samples(counts: np.ndarray, names=None) -> str:
    """The error text for the zeros of a (k,) group count row, by name or code."""
    missing = (np.flatnonzero(counts == 0) + 1).tolist()
    if names is not None:
        missing = [names[r - 1] for r in missing]
    return f"sensitive group(s) {missing} have no samples"


def sensitive_stats(ds: TabularDataset) -> SensitiveStats:
    """Group counts, probabilities, rho and P_S^{-1/2} diagonal for a dataset.

    Not public, as group_counts and fairness.strata give its figures: kept only
    for the rho of plan_run, audit-sensitivity and bench/ until ROADMAP items
    2 and 5 delete it."""
    counts = group_counts(ds)[1][0]
    probs = counts / ds.n
    return SensitiveStats(counts, probs, float(probs.min()), probs ** -0.5)


def load_csv(path, label_col: str, sensitive_col: str) -> TabularDataset:
    """Load a UTF-8 header CSV into a dataset; a leading byte-order mark is skipped.

    One label column and one sensitive column are taken by name; every other
    column must be numeric and becomes a feature. A header that repeats a column
    name raises SchemaError before any row is read. Missing values are a hard
    error. Label and sensitive categories are encoded in first-appearance order
    of their whitespace-stripped cells and the code-to-name maps are stored on
    the dataset. An open file descriptor is parsed in one process, then closed,
    and the error of an empty or header-only file names it "file descriptor N".

    Data lines are read CHUNK_ROWS at a time. A chunk is parsed by one
    np.loadtxt call when it has no quote character, no line longer than
    csv's field size limit, loadtxt returns exactly one row per line and
    every feature is finite. The first chunk that fails any of these
    hands its lines and the rest of the file to csv.reader, the only path
    for quoted cells, blank rows and the numerals only float() accepts
    ("1_0", non-ASCII digits). There each row is converted cell by cell as
    it is read, so the first bad row in the file raises its ParseError. The
    dataset, and any error with its message and row, are the same whichever
    path a row takes; error rows are absolute 0-based data-row indices (the
    header is not counted).

    Both paths write straight into the dataset's arrays. They are allocated
    once, for the file size over the first chunk's mean line length plus
    headroom, grow only if the rows outrun that estimate, and are cut to the
    rows read and marked read-only at the end, so the dataset takes them
    without a copy: the data is held once. A cell over csv's field size
    limit raises ParseError with its row (SchemaError in the header).

    A regular file of at least FORK_MIN_CSV_BYTES that is valid UTF-8, has
    no quote character, no carriage return outside a CRLF and a newline is
    parsed in byte ranges, one per usable CPU, when the process may fork
    (fairdp._fork): every line is then one row, so a range that starts just
    after a newline parses as it would in the whole file. The caller parses
    the first range and a forked child each other one, all through the
    chunk loop above, into one set of arrays of the file's row count; a
    child's rows come through its pipe straight into them, and the label
    and group names it met get their codes in file order, by the
    first-appearance rule of the chunks. The dataset, and any error
    with its message and row, are the serial parse's.
    """
    return _read_csv(path, label_col, sensitive_col, ())


def _read_csv(
    path, label_col: str, sensitive_col: str, label_names, feature_names=()
) -> TabularDataset:
    """load_csv for a checkpoint's names: the codes 1..len(label_names) are
    held for label_names, present or not, and the next codes go to the
    labels they do not name; with feature_names, the feature columns must be
    exactly those names, and they are read in that order."""
    if label_col == sensitive_col:
        raise SchemaError("label and sensitive columns must differ")
    source = f"file descriptor {path}" if isinstance(path, int) else path
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise EmptyDatasetError(f"{source} is empty") from None
        except csv.Error as exc:
            raise SchemaError(f"unreadable header: {exc}") from None
        header = [h.strip() for h in header]
        for col in (label_col, sensitive_col):
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header {header}")
        label_idx = header.index(label_col)
        sens_idx = header.index(sensitive_col)
        feat_idx = [i for i in range(len(header)) if i not in (label_idx, sens_idx)]
        if feature_names:
            found = [header[i] for i in feat_idx]
            if sorted(found) != sorted(feature_names):
                raise SchemaError(
                    f"feature columns {found} are not the checkpoint's features "
                    f"{list(feature_names)}"
                )
            feat_idx = [header.index(name) for name in feature_names]
        if repeated := [name for name, count in Counter(header).items() if count > 1]:
            raise SchemaError(f"header repeats the column name(s) {repeated}")

        rows = _Rows(header, label_idx, sens_idx, feat_idx, label_names)
        split = _split(path, fh.fileno())
        if split is None:
            n = rows.read(fh, 0, size=os.fstat(fh.fileno()).st_size)
        else:
            n = _read_ranges(path, fh, rows, *split)

    if not n:
        raise EmptyDatasetError(f"{source} has a header but no data rows")
    rows.finish(n)
    return TabularDataset(
        features=rows.features,
        labels=rows.labels,
        sensitive=rows.sensitive,
        l=len(rows.label_codes),
        k=len(rows.sens_codes),
        label_names=tuple(rows.label_codes),
        sensitive_names=tuple(rows.sens_codes),
        feature_names=tuple(header[i] for i in feat_idx),
    )


class _Rows:
    """The data-row parser of one CSV, which the caller and its forked
    children share: the columns' roles, the label and group codes given so
    far, and the feature, label and sensitive arrays the rows are written
    into. The arrays are allocated once, grow by half only when the rows
    outrun them, and are cut to the rows read at the end; no view of them
    may be held across a resize."""

    def __init__(self, header, label_idx, sens_idx, feat_idx, label_names):
        self.header, self.label_idx, self.sens_idx = header, label_idx, sens_idx
        self.feat_idx = feat_idx
        self.row_dtype = np.dtype(
            [(str(i), np.float64 if i in feat_idx else object) for i in range(len(header))]
        )
        self.label_codes = {name: code for code, name in enumerate(label_names, 1)}
        self.sens_codes: dict[str, int] = {}
        self.allocate(0)

    def allocate(self, rows: int) -> None:
        """New arrays of `rows` rows, not yet written."""
        self.features = np.empty((rows, len(self.feat_idx)))
        self.labels = np.empty(rows, np.int64)
        self.sensitive = np.empty(rows, np.int64)

    def reserve(self, rows: int) -> None:
        """Room for at least `rows` rows."""
        capacity = self.labels.shape[0]
        if rows > capacity:
            self._resize(max(rows, capacity + capacity // 2))

    def finish(self, rows: int) -> None:
        """Cut the arrays to `rows` rows and mark them read-only."""
        self._resize(rows)
        _frozen(self.features, self.labels, self.sensitive)

    def _resize(self, rows: int) -> None:
        # in place: realloc keeps the rows written so far (C order) and
        # shrinking frees the tail without a copy; no view is held across a
        # resize, so refcheck is off (a profiler's own reference trips it)
        self.features.resize((rows, self.features.shape[1]), refcheck=False)
        self.labels.resize(rows, refcheck=False)
        self.sensitive.resize(rows, refcheck=False)

    def read(self, fh, start: int, count: int | None = None, size: int | None = None) -> int:
        """Parse the next `count` lines of fh (all of them if None) as rows
        start, start + 1, ... and return the row after the last. Given
        `size`, the file's bytes, the arrays are first allocated for the
        rows estimated from it. Errors carry these absolute rows."""
        source = fh if count is None else islice(fh, count)
        lines, error = _read_chunk(source)
        if size is not None:
            self.allocate(_row_estimate(size, lines))
        while error is None:
            stop = start + len(lines)
            self.reserve(stop)
            features = self.features[start:stop]
            table = _loadtxt_chunk(lines, self.row_dtype, self.feat_idx, features)
            if table is None:
                break
            labels, groups = table[str(self.label_idx)], table[str(self.sens_idx)]
            self.labels[start:stop] = _encode(labels.tolist(), self.label_codes)
            self.sensitive[start:stop] = _encode(groups.tolist(), self.sens_codes)
            start = stop
            lines, error = _read_chunk(source)

        # csv.reader sees the lines read so far, then the same decode error
        label_codes, sens_codes = self.label_codes, self.sens_codes
        try:
            for row in csv.reader(chain(lines, source if error is None else _raising(error))):
                self.reserve(start + 1)
                _parse_row(row, start, self.header, self.feat_idx, self.features[start])
                label = row[self.label_idx].strip()
                self.labels[start] = label_codes.setdefault(label, len(label_codes) + 1)
                group = row[self.sens_idx].strip()
                self.sensitive[start] = sens_codes.setdefault(group, len(sens_codes) + 1)
                start += 1
        except csv.Error as exc:  # a cell over csv's field size limit
            raise ParseError(str(exc), start) from None
        return start


# A CSV forks its parse only from this size on. Timed as load_csv's second
# call in a fresh process, forked against one CPU (sched_setaffinity), on
# `fairdp synth` files with d_x = 10 (2 vCPUs, numpy 2.4.6, one BLAS
# thread), in runs of 10 or 16 alternating pairs: 0.57x as fast at 0.5 MB
# (0 of 10 won), 0.79x at 1 MB (2/10), 0.88x and 1.00x at 2 MB (4/10,
# 10/16), 1.00x and 1.41x at 3 MB (14/16, 15/16), 1.00x, 1.09x and 1.34x at
# 4 MB (6/10, 13/16, 15/16), 1.06x at 5 MB (13/16), 1.31x at 6 MB (16/16)
# and 1.32x and 1.18x at 8 MB (10/10, 16/16).
FORK_MIN_CSV_BYTES = 4_000_000
_SCAN_BYTES = 1 << 18  # bytes per block of _split's scan


def _split(path, fd: int) -> tuple[list[tuple[int, int]], int] | None:
    """Where a forked parse cuts the file open at fd (its name is path): a
    (byte offset, first row) for each range after the first, one range per
    worker, and the data row count; None if the parse stays serial.

    It forks only a regular file of at least FORK_MIN_CSV_BYTES, with at
    least FORK_MIN_CSV_BYTES / 2 per range, when _fork._workers grants two
    workers, and only a file that is valid UTF-8, has no quote character
    and no carriage return outside a CRLF, and has a newline. There every
    line is one row, so a cut just after a newline is a row boundary that
    csv.reader and np.loadtxt see as the serial parse does. The file is
    scanned in blocks, with the same small buffer throughout.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        return None  # a file descriptor: a child could not open it anew
    info = os.fstat(fd)
    size = info.st_size
    if not stat.S_ISREG(info.st_mode) or size < FORK_MIN_CSV_BYTES:
        return None
    workers = _workers(size // (FORK_MIN_CSV_BYTES // 2))
    if workers == 1:
        return None
    targets = [size * i // workers for i in range(1, workers)]
    decoder = codecs.getincrementaldecoder("utf-8")()
    buf = bytearray(_SCAN_BYTES)
    # masks written in place: a temporary this size would cost page faults per block
    is_lf, is_cr = np.empty(_SCAN_BYTES, bool), np.empty(_SCAN_BYTES, bool)
    cuts, newlines, offset, last = {}, 0, 0, 0
    while n := os.preadv(fd, [buf], offset):
        block = np.frombuffer(buf, np.uint8, n)
        if buf.find(b'"', 0, n) >= 0 or (last == 13 and block[0] != 10):
            return None
        lf = np.equal(block, 10, out=is_lf[:n])
        # a CR must end a CRLF: it is the text layer's line end only there
        if buf.find(b"\r", 0, n) >= 0:
            cr = np.equal(block, 13, out=is_cr[:n])
            if np.greater(cr[:-1], lf[1:], out=cr[:-1]).any():
                return None
        if block.max() >= 0x80:
            try:
                decoder.decode(memoryview(buf)[:n])
            except UnicodeDecodeError:
                return None
        while targets and targets[0] < offset + n:
            end = buf.find(b"\n", max(targets[0] - offset, 0), n)
            if end < 0:
                break  # the cut is the next block's first newline
            # the header is the first line, so this many rows come before the cut
            cuts[offset + end + 1] = newlines + int(np.count_nonzero(lf[:end]))
            targets.pop(0)
        newlines += int(np.count_nonzero(lf))
        offset += n
        last = int(block[-1])
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        return None
    if last == 13 or not newlines:
        return None
    rows = newlines - (last == 10)
    cuts = [(at, first) for at, first in cuts.items() if 0 < first < rows]
    return (cuts, rows) if cuts else None


def _read_ranges(path, fh, rows: _Rows, cuts, n: int) -> int:
    """Parse the n data rows of path, whose header fh has read, in ranges:
    fh reads the first here and a forked child each range of cuts, all into
    arrays of n rows. The children send back their rows, read straight into
    the arrays, and the label and group names they met, whose codes are then
    given in file order. n, or the first error in file order."""
    firsts = [0] + [first for _, first in cuts]
    bounds = list(zip(firsts, firsts[1:] + [n]))
    rows.allocate(n)

    def arrays(i):
        rows_i = slice(*bounds[i])
        return rows.features[rows_i], rows.labels[rows_i], rows.sensitive[rows_i]

    def parse(i):
        first, stop = bounds[i]
        if i == 0:
            rows.read(fh, first, stop - first)
        else:
            with open(path, "r", encoding="utf-8", newline="") as text:
                text.buffer.seek(cuts[i - 1][0])  # nothing is read yet
                rows.read(text, first, stop - first)
        return tuple(rows.label_codes), tuple(rows.sens_codes), *arrays(i)

    def place(i, sizes):
        views = [a.reshape(-1).view(np.uint8) for a in arrays(i)]  # C-contiguous rows
        return views if [view.nbytes for view in views] == sizes else None

    # a child that sent its rows sent them into place's views; only its codes
    # need mending: its code j is names[j - 1]
    results = _run_shares(parse, range(len(bounds)), len(bounds), "CSV reader", place)
    for i, (label_names, group_names, *_) in enumerate(results[1:], 1):
        _, labels, groups = arrays(i)
        labels[...] = np.append(0, _encode(label_names, rows.label_codes))[labels]
        groups[...] = np.append(0, _encode(group_names, rows.sens_codes))[groups]
    return n


def _read_chunk(fh) -> tuple[list[str], UnicodeDecodeError | None]:
    """The next CHUNK_ROWS lines of fh, and the decode error that cut them
    short (None if there was none)."""
    lines = []
    try:
        lines.extend(islice(fh, CHUNK_ROWS))
    except UnicodeDecodeError as exc:
        return lines, exc
    return lines, None


def _row_estimate(size: int, lines) -> int:
    """Rows to allocate for a file of `size` bytes whose first data lines
    are `lines`: the size over their mean length, plus a sixteenth and one
    chunk of headroom. The header and multi-byte characters only raise it."""
    chars = sum(map(len, lines))
    rows = size * len(lines) // chars if chars else 0
    return rows + rows // 16 + CHUNK_ROWS


def _raising(exc):
    """An iterator whose first next() raises exc."""
    raise exc
    yield


def _loadtxt_chunk(lines, row_dtype, feat_idx, out) -> np.ndarray | None:
    """A chunk's structured rows, one per line, with its features written
    into out, (rows, features) float64; None, with out partly written, if
    the chunk needs csv.reader: it is empty, has a quote character, a line
    that may hold a cell over csv's field size limit, a cell loadtxt cannot
    convert, another count of rows than lines or a non-finite feature."""
    # checked line by line: joining a chunk into one string costs cli-ingest
    # about 6 MB of peak RSS in heap fragmentation
    if (
        any('"' in line for line in lines)
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
    for j, i in enumerate(feat_idx):
        out[:, j] = table[str(i)]
    return table if np.isfinite(out).all() else None


def _parse_row(row, row_i, header, feat_idx, out) -> None:
    """Convert one CSV row's feature cells into out, (len(feat_idx),)
    float64, or raise the row's ParseError."""
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
        out[j] = value


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
    _check_test_fraction(test_fraction)
    # small slack absorbs float error in n*(1-f) before the ceiling
    n_train = math.ceil(ds.n * (1.0 - test_fraction) - 1e-9)
    if n_train < 1 or n_train >= ds.n:
        raise ValueError(f"split of n={ds.n} at fraction {test_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(ds.n)
    return ds.subset(np.sort(perm[:n_train])), ds.subset(np.sort(perm[n_train:]))


def minibatch(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m dataset indices drawn uniformly with replacement (0-based)."""
    _check_int("m", m, 1)
    if not m <= n:
        raise ValueError(f"batch size {m} must satisfy 1 <= m <= n={n}")
    return rng.integers(0, n, size=m)

