"""Peak traced allocations of the data path from CSV to split.

Each bound is stated relative to the bytes of the arrays the call returns
(for proba_lipschitz_bound, which returns a float, of the features it
reads). Holding a second full copy of the data, as a chunk list plus its
concatenation or a defensive copy in the dataset does, exceeds every bound.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from fairdp.classifier import proba_lipschitz_bound
from fairdp.cli import main
from fairdp.dataset import load_csv, train_test_split
from fairdp.harness import SyntheticSpec, synth_dataset

N, D_X = 30_000, 10


def traced_peak(fn, *args):
    """fn(*args) and the most bytes tracemalloc saw allocated during the call
    on top of what was allocated before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def data_bytes(*datasets) -> int:
    return sum(ds.features.nbytes + ds.labels.nbytes + ds.sensitive.nbytes for ds in datasets)


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "data.csv"
    argv = ["synth", "--n", N, "--d-x", D_X, "--k", 3, "--l", 3, "--seed", 2, "--out", path]
    assert main([str(a) for a in argv]) == 0
    return path


@pytest.fixture(scope="module")
def quoted_csv(synth_csv):
    """The synth CSV with every cell quoted, which only csv.reader parses."""
    path = synth_csv.with_name("quoted.csv")
    with open(synth_csv, newline="") as src, open(path, "w", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
    return path


def test_load_csv_holds_the_data_once(synth_csv):
    ds, peak = traced_peak(load_csv, synth_csv, "label", "sensitive")
    assert ds.n == N
    assert peak <= 1.6 * data_bytes(ds)


def test_load_csv_holds_quoted_data_once(quoted_csv):
    ds, peak = traced_peak(load_csv, quoted_csv, "label", "sensitive")
    assert ds.n == N
    assert peak <= 1.6 * data_bytes(ds)


def test_train_test_split_copies_the_rows_once():
    ds = synth_dataset(SyntheticSpec(n=N, d_x=D_X, k=3, l=3, seed=2))
    (train, test), peak = traced_peak(train_test_split, ds, 0.25, 2)
    assert peak <= 1.4 * data_bytes(train, test)


def test_synth_dataset_builds_features_in_place():
    spec = SyntheticSpec(n=100_000, d_x=D_X, k=3, l=3, seed=2)
    ds, peak = traced_peak(synth_dataset, spec)
    assert peak <= 1.75 * data_bytes(ds)


def test_proba_lipschitz_bound_squares_row_blocks():
    features = np.random.default_rng(2).standard_normal((50_000, D_X))
    _, peak = traced_peak(proba_lipschitz_bound, features)
    assert peak <= 0.25 * features.nbytes
