import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairdp import dataset
from fairdp.dataset import (
    CHUNK_ROWS,
    SensitiveStats,
    TabularDataset,
    load_csv,
    minibatch,
    sensitive_stats,
    train_test_split,
)
from fairdp.exceptions import (
    DegenerateGroupError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
)
from helpers import reference_load_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def small_ds(s=(1, 1, 2, 2), y=(1, 2, 1, 2)):
    n = len(s)
    rng = np.random.default_rng(0)
    return TabularDataset.from_arrays(rng.normal(size=(n, 2)), y, s, l=2, k=2)


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "x1,x2,lab,grp\n1,2,a,m\n3,4,b,f\n5,6,a,m\n7,8,b,f\n",
        )
        ds = load_csv(p, "lab", "grp")
        assert (ds.n, ds.d_x, ds.l, ds.k) == (4, 2, 2, 2)
        assert ds.labels.tolist() == [1, 2, 1, 2]
        assert ds.sensitive.tolist() == [1, 2, 1, 2]
        assert ds.label_names == ("a", "b")
        assert ds.sensitive_names == ("m", "f")

    def test_single_sensitive_value_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,lab,grp\n1,a,m\n2,b,m\n")
        with pytest.raises(ValueError):
            load_csv(p, "lab", "grp")

    def test_many_feature_columns(self, tmp_path):
        cols = [f"c{i}" for i in range(102)]
        header = ",".join(cols + ["lab", "grp"])
        row1 = ",".join(["0.5"] * 102 + ["a", "m"])
        row2 = ",".join(["1.5"] * 102 + ["b", "f"])
        p = write_csv(tmp_path / "wide.csv", f"{header}\n{row1}\n{row2}\n")
        assert load_csv(p, "lab", "grp").d_x == 102

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,lab\n1,a\n")
        with pytest.raises(SchemaError):
            load_csv(p, "lab", "grp")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,lab,grp\n1,a,m\noops,b,f\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, "lab", "grp")
        assert err.value.row == 1

    def test_non_finite_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,lab,grp\nnan,a,m\n1,b,f\n")
        with pytest.raises(ParseError):
            load_csv(p, "lab", "grp")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(EmptyDatasetError):
            load_csv(p, "lab", "grp")
        p2 = write_csv(tmp_path / "h.csv", "x,lab,grp\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(p2, "lab", "grp")

    def test_reload_gives_identical_encodings(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "x,lab,grp\n1,z,q\n2,a,p\n3,z,q\n4,a,p\n",
        )
        a, b = load_csv(p, "lab", "grp"), load_csv(p, "lab", "grp")
        assert a.label_names == b.label_names
        assert a.sensitive_names == b.sensitive_names
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sensitive, b.sensitive)


def _valid_rows(n, first_new_label=None):
    """n valid rows; label 'late' first appears at row first_new_label."""
    rows = []
    for i in range(n):
        lab = "late" if first_new_label is not None and i >= first_new_label else "ab"[i % 2]
        rows.append(f"{i * 0.1:.3f},{-i},{lab},{'mf'[i // 3 % 2]}\n")
    return rows


def _past_first_chunk(bad_row, bad_text):
    rows = _valid_rows(CHUNK_ROWS + 5)
    rows[bad_row] = bad_text
    return "x,y,lab,grp\n" + "".join(rows)


UNREADABLE = '"' + "z" * 200_000 + '",a,m\n'  # longer than csv's field size limit

LOAD_CSV_CORPUS = {
    "plain": "x,y,lab,grp\n1,2,a,m\n3,4,b,f\n5,6,a,f\n",
    "blank_line": "x,lab,grp\n1,a,m\n\n2,b,f\n",
    "crlf": "x,lab,grp\r\n1,a,m\r\n2,b,f\r\n",
    "cr_only": "x,lab,grp\r1,a,m\r2,b,f\r",
    "quoted_comma": 'x,lab,grp\n1,"a,b",m\n2,c,f\n',
    "quoted_newline": 'x,lab,grp\n1,"a\nb",m\n2,c,"f\r\n"\n',
    "doubled_quote": 'x,lab,grp\n1,"say ""hi""",m\n2,b,f\n',
    "quoted_number": 'x,lab,grp\n"1.5",a,m\n" 2 ",b,f\n',
    "padded_cells": " x , lab ,grp\n 1.5 , a ,m\n\t2\t,a,  f \n3 ,b,m\n",
    "underscore_digits": "x,lab,grp\n1_0,a,m\n2,b,f\n",
    "arabic_indic_digit": "x,lab,grp\n\u0661,a,m\n2,b,f\n",
    "empty_cell": "x,y,lab,grp\n1,2,a,m\n3,,b,f\n",
    "nan": "x,y,lab,grp\n1,2,a,m\n3,nan,b,f\n",
    "inf": "x,y,lab,grp\n1,2,a,m\n-inf,4,b,f\n",
    "overflow": "x,y,lab,grp\n1,2,a,m\n3,1e400,b,f\n",
    "short_row": "x,y,lab,grp\n1,2,a,m\n3,b,f\n",
    "trailing_comma": "x,lab,grp\n1,a,m\n2,b,f,\n",
    "bad_cell_before_short_row": "x,y,lab,grp\n1,2,a,m\n3,?,b,f\n4,a,m\n",
    "codes_across_chunks": "x,y,lab,grp\n"
    + "".join(_valid_rows(2 * CHUNK_ROWS + 7, first_new_label=CHUNK_ROWS + 1)),
    "bad_cell_past_first_chunk": _past_first_chunk(CHUNK_ROWS + 3, "1,oops,a,m\n"),
    "short_row_past_first_chunk": _past_first_chunk(CHUNK_ROWS + 4, "1,a,m\n"),
    "unreadable_row": "x,lab,grp\n1,a,m\n2,b,f\n" + UNREADABLE,
    "unreadable_row_after_bad_cell": "x,lab,grp\n1,a,m\nbad,b,f\n" + UNREADABLE,
    "no_feature_columns": "lab,grp\na,m\nb,f\n",
    "header_only": "x,lab,grp\n",
    "empty_file": "",
}


def _load_outcome(load, path):
    """Everything observable about a load: the dataset or the exception."""
    try:
        ds = load(path, "lab", "grp")
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


class TestLoadCsvMatchesReference:
    """The chunked loader against the row-by-row reference loader."""

    @pytest.mark.parametrize("chunk_rows", [2, CHUNK_ROWS])
    @pytest.mark.parametrize("name", sorted(LOAD_CSV_CORPUS))
    def test_identical_outcome(self, name, chunk_rows, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(LOAD_CSV_CORPUS[name].encode("utf-8"))
        expected = _load_outcome(reference_load_csv, path)
        monkeypatch.setattr(dataset, "CHUNK_ROWS", chunk_rows)
        assert _load_outcome(load_csv, path) == expected

    def test_error_row_is_absolute(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LOAD_CSV_CORPUS["bad_cell_past_first_chunk"], encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_csv(path, "lab", "grp")
        assert info.value.row == CHUNK_ROWS + 3


class TestSplit:
    def test_three_to_one(self):
        rng = np.random.default_rng(1)
        ds = TabularDataset.from_arrays(
            rng.normal(size=(100, 3)),
            rng.integers(1, 3, 100),
            rng.integers(1, 3, 100),
            l=2,
            k=2,
        )
        train, test = train_test_split(ds, 0.25, seed=7)
        assert (train.n, test.n) == (75, 25)

    def test_tiny_split(self):
        train, test = train_test_split(small_ds(), 0.25, seed=0)
        assert (train.n, test.n) == (3, 1)

    def test_deterministic(self):
        ds = small_ds(s=(1, 2, 1, 2, 1, 2), y=(1, 1, 2, 2, 1, 2))
        a = train_test_split(ds, 0.5, seed=3)
        b = train_test_split(ds, 0.5, seed=3)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            train_test_split(small_ds(), 1.0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(small_ds(), 0.0, seed=0)

    @given(n=st.integers(4, 60), frac=st.floats(0.1, 0.9), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, frac, seed):
        assume(int(np.ceil(n * (1 - frac) - 1e-9)) < n)  # both sides nonempty
        rng = np.random.default_rng(0)
        features = rng.normal(size=(n, 2))
        features[:, 0] = np.arange(n)  # row identities survive the split
        codes = np.resize([1, 2], n)
        ds = TabularDataset.from_arrays(features, codes, codes, l=2, k=2)
        train, test = train_test_split(ds, frac, seed=seed)
        ids = np.concatenate([train.features[:, 0], test.features[:, 0]])
        assert sorted(ids.tolist()) == list(range(n))
        assert train.n == int(np.ceil(n * (1 - frac) - 1e-9))


class TestSensitiveStats:
    def test_balanced(self):
        st_ = sensitive_stats(small_ds())
        assert np.allclose(st_.probabilities, [0.5, 0.5])
        assert st_.rho == 0.5
        assert np.allclose(st_.inv_sqrt, [1.41421356, 1.41421356])

    def test_skewed(self):
        st_ = sensitive_stats(small_ds(s=(1, 1, 1, 2)))
        assert np.allclose(st_.probabilities, [0.75, 0.25])
        assert st_.rho == 0.25
        # 0.75 ** -0.5 and 0.25 ** -0.5
        assert np.allclose(st_.inv_sqrt, [1.15470054, 2.0])

    def test_empty_group(self):
        ds = TabularDataset.from_arrays(
            np.zeros((4, 1)), [1, 2, 1, 2], [1, 1, 1, 1], l=2, k=2
        )
        with pytest.raises(DegenerateGroupError):
            sensitive_stats(ds)

    def test_inv_sqrt_inverts(self):
        st_ = SensitiveStats.from_groups(np.array([1, 1, 2, 3, 3, 3]), 3)
        assert np.allclose(st_.inv_sqrt * np.sqrt(st_.probabilities), 1.0)


class TestMinibatch:
    def test_full_size_draw_may_repeat(self):
        rng = np.random.default_rng(0)
        seen_repeat = any(
            len(set(minibatch(5, 5, np.random.default_rng(s)).tolist())) < 5
            for s in range(20)
        )
        assert seen_repeat
        assert minibatch(5, 5, rng).shape == (5,)

    def test_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            minibatch(5, 6, rng)
        with pytest.raises(ValueError):
            minibatch(5, 0, rng)

    def test_stream_semantics(self):
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        first_a, second_a = minibatch(10, 4, a), minibatch(10, 4, a)
        first_b, second_b = minibatch(10, 4, b), minibatch(10, 4, b)
        assert not np.array_equal(first_a, second_a)
        assert np.array_equal(first_a, first_b)
        assert np.array_equal(second_a, second_b)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(5)
        draws = np.concatenate([minibatch(10, 10, rng) for _ in range(10_000)])
        freq = np.bincount(draws, minlength=10) / draws.size
        se = np.sqrt(0.1 * 0.9 / draws.size)
        assert np.all(np.abs(freq - 0.1) <= 3 * se)


class TestImmutability:
    def test_immutability(self):
        ds = small_ds()
        with pytest.raises(ValueError):
            ds.sensitive[0] = 2
