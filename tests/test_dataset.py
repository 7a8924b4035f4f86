import csv
import io
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairdp import cli, dataset
from fairdp.dataset import (
    CHUNK_ROWS,
    TabularDataset,
    group_counts,
    load_csv,
    minibatch,
    sensitive_stats,
    train_test_split,
)
from fairdp.exceptions import (
    DegenerateConditionalError,
    DegenerateGroupError,
    EmptyDatasetError,
    ParseError,
    SchemaError,
)
from fairdp.harness import ExperimentConfig, SyntheticSpec, synth_dataset
from fairdp.optimizer import SgdaConfig
from helpers import group_stats, reference_load_csv


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def small_ds(s=(1, 1, 2, 2), y=(1, 2, 1, 2)):
    n = len(s)
    rng = np.random.default_rng(0)
    return TabularDataset(rng.normal(size=(n, 2)), y, s, l=2, k=2)


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


def _past_first_chunk(*edits):
    """Valid rows into the second chunk, with each (row, text) edit applied."""
    rows = _valid_rows(CHUNK_ROWS + 5)
    for row, text in edits:
        rows[row] = text
    return "x,y,lab,grp\n" + "".join(rows)


UNREADABLE = '"' + "z" * 200_000 + '",a,m\n'  # longer than csv's field size limit

LOAD_CSV_CORPUS = {
    "plain": "x,y,lab,grp\n1,2,a,m\n3,4,b,f\n5,6,a,f\n",
    "blank_line": "x,lab,grp\n1,a,m\n\n2,b,f\n",
    "blank_lines": "x,lab,grp\n1,a,m\n2,b,f\n\n\r\n3,a,f\n",
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
    "bad_cell_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 3, "1,oops,a,m\n")),
    "short_row_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 4, "1,a,m\n")),
    "unreadable_row": "x,lab,grp\n1,a,m\n2,b,f\n" + UNREADABLE,
    "unreadable_row_after_bad_cell": "x,lab,grp\n1,a,m\nbad,b,f\n" + UNREADABLE,
    "no_feature_columns": "lab,grp\na,m\nb,f\n",
    "header_only": "x,lab,grp\n",
    "empty_file": "",
    # cases where np.loadtxt and csv.reader could read a chunk differently
    "quote_in_label_only": 'x,lab,grp\n1,"a",m\n2,b",f\n3,a,f\n',
    "quoted_cell_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 3, '"1.5",2,"a",m\n')),
    "quoted_newline_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 3, '1,2,"a\nb",m\n')),
    "bad_row_after_quoted_newline": _past_first_chunk(
        (CHUNK_ROWS + 2, '1,2,"a\nb",m\n'), (CHUNK_ROWS + 4, "1,oops,a,m\n")
    ),
    "blank_line_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 2, "\n")),
    "whitespace_only_line": "x,lab,grp\n1,a,m\n \t \n2,b,f\n",
    "hash_feature_cell": "x,lab,grp\n1,a,m\n#2,b,f\n",
    "hash_label_first_cell": "lab,x,grp\n#,1,m\nb,2,f\n",
    "nul_in_label": "x,lab,grp\n1,a\x00b,m\n2,b,f\n",
    "nul_in_feature": "x,lab,grp\n1,a,m\n2\x00,b,f\n",
    "nul_ending_a_line": "x,lab,grp\n1,a,m\x00\n2,b,f\n3,a,m\n",
    "no_final_newline": "x,lab,grp\n1,a,m\n2,b,f",
    "label_column_first": "lab,x,grp,y\na,1,m,2\nb,3,f,4\na,5,f,6\n",
    "crlf_past_first_chunk": "x,y,lab,grp\r\n"
    + "".join(row.replace("\n", "\r\n") for row in _valid_rows(CHUNK_ROWS + 7)),
    "tiny_signed_zero_17_digits": "x,y,lab,grp\n1e-320,-0.0,a,m\n"
    "0.10000000000000001,-1.2345678901234567e-300,b,f\n4.9406564584124654e-324,0,a,f\n",
    "plus_nan": "x,lab,grp\n1,a,m\n+nan,b,f\n",
    "infinity": "x,lab,grp\nInfinity,a,m\n2,b,f\n",
    "unquoted_cell_over_field_limit": "x,lab,grp\n1,a,m\n2," + "z" * 200_000 + ",f\n",
    "long_line_short_cells": "x,lab,grp\n1" + " " * 70_000 + ",a" + " " * 70_000 + ",m\n2,b,f\n",
    "undecodable_bytes_past_first_chunk": _past_first_chunk((CHUNK_ROWS + 3, "1,2,a,@\n"))
    .encode("utf-8")
    .replace(b"@", b"\xff"),
    # ~20-byte rows put both bad rows in one CHUNK_ROWS read but different
    # 8 KB decode blocks, so the read fails after passing the bad cell
    "bad_cell_before_undecodable_bytes": b"x,lab,grp\n"
    + b"".join(b"%d.0000000000001,a,m\n" % i for i in range(100))
    + b"oops,b,f\n"
    + b"".join(b"%d.0000000000001,b,f\n" % i for i in range(800))
    + b"\xff,a,m\n1,a,f\n",
}


def _load_outcome(load, path, columns=("lab", "grp")):
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


class TestLoadCsvMatchesReference:
    """The chunked loader against the row-by-row reference loader."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk_rows", [2, CHUNK_ROWS])
    @pytest.mark.parametrize("name", sorted(LOAD_CSV_CORPUS))
    def test_identical_outcome(self, name, chunk_rows, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        text = LOAD_CSV_CORPUS[name]
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        expected = _load_outcome(reference_load_csv, path)
        monkeypatch.setattr(dataset, "CHUNK_ROWS", chunk_rows)
        assert _load_outcome(load_csv, path) == expected

    def test_error_row_is_absolute(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(LOAD_CSV_CORPUS["bad_cell_past_first_chunk"], encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_csv(path, "lab", "grp")
        assert info.value.row == CHUNK_ROWS + 3


class TestLoadtxtPath:
    """Plain numeric chunks never reach csv.reader."""

    @staticmethod
    def _guard_csv_rows(monkeypatch):
        """Make csv.reader raise on any row after the header."""
        real_reader = dataset.csv.reader
        seen = []

        def header_only_reader(lines):
            for row in real_reader(lines):
                if seen:
                    raise AssertionError(f"csv.reader parsed data row {row}")
                seen.append(row)
                yield row

        monkeypatch.setattr(dataset.csv, "reader", header_only_reader)

    def test_synth_csv_skips_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        argv = ["synth", "--n", "3000", "--d-x", "4", "--k", "3", "--seed", "2", "--out", path]
        assert cli.main([str(a) for a in argv]) == 0
        expected = reference_load_csv(path, "label", "sensitive")
        self._guard_csv_rows(monkeypatch)
        ds = load_csv(path, "label", "sensitive")
        assert ds.features.tobytes() == expected.features.tobytes()
        assert ds.labels.tolist() == expected.labels.tolist()
        assert ds.sensitive.tolist() == expected.sensitive.tolist()
        assert (ds.label_names, ds.sensitive_names) == (
            expected.label_names,
            expected.sensitive_names,
        )

    def test_guard_sees_a_quoted_chunk(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "d.csv", LOAD_CSV_CORPUS["quoted_cell_past_first_chunk"])
        self._guard_csv_rows(monkeypatch)
        with pytest.raises(AssertionError, match="csv.reader parsed data row"):
            load_csv(path, "lab", "grp")


class TestDirectAssembly:
    """load_csv writes every chunk into arrays sized from an estimate."""

    @staticmethod
    def _rows(n, quoted):
        """n rows whose first CHUNK_ROWS carry long zero-padded numerals, so
        the file outruns the row estimate taken from them."""
        rows = []
        for i in range(n):
            x = f"{i * 0.25:.20f}" if i < CHUNK_ROWS else f"{i * 0.25:g}"
            lab = f'"{"ab"[i % 2]}"' if quoted else "ab"[i % 2]
            rows.append(f"{x},{-i},{lab},{'mf'[i // 3 % 2]}\n")
        return rows

    @pytest.mark.parametrize("quoted", [False, True], ids=["loadtxt", "csv_reader"])
    def test_file_longer_than_the_estimate(self, quoted, tmp_path):
        rows = self._rows(5 * CHUNK_ROWS + 7, quoted)
        path = write_csv(tmp_path / "d.csv", "x,y,lab,grp\n" + "".join(rows))
        estimate = dataset._row_estimate(path.stat().st_size, rows[:CHUNK_ROWS])
        assert estimate < len(rows)
        assert _load_outcome(load_csv, path) == _load_outcome(reference_load_csv, path)

    def test_quoted_file_goes_to_csv_reader(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "d.csv", "x,y,lab,grp\n" + "".join(self._rows(3000, True)))
        expected = _load_outcome(reference_load_csv, path)
        parsed = []
        real_chunk = dataset._loadtxt_chunk

        def spy(*args):
            table = real_chunk(*args)
            parsed.append(table is not None)
            return table

        monkeypatch.setattr(dataset, "_loadtxt_chunk", spy)
        assert _load_outcome(load_csv, path) == expected
        assert parsed == [False]  # the first chunk hands the whole file to csv.reader

    def test_arrays_are_cut_to_the_rows_read(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y,lab,grp\n" + "".join(self._rows(300, False)))
        ds = load_csv(path, "lab", "grp")
        for a in (ds.features, ds.labels, ds.sensitive):
            assert a.shape[0] == 300
            assert a.base is None and a.flags.owndata


class TestByteOrderMark:
    """A file that starts with a byte-order mark (Excel's "CSV UTF-8") loads
    as the same file without it, on the loadtxt and csv.reader paths."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("header", [["x", "y", "lab", "grp"], ["lab", "x", "y", "grp"]],
                             ids=["feature_first", "label_first"])
    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL],
                             ids=["loadtxt", "csv_reader"])
    def test_loads_as_the_file_without_it(self, tmp_path, header, quoting):
        text = io.StringIO()
        writer = csv.writer(text, quoting=quoting)
        writer.writerow(header)
        for i in range(50):
            cells = {"x": i * 0.5, "y": -i, "lab": "ab"[i % 2], "grp": "mf"[i // 3 % 2]}
            writer.writerow([cells[name] for name in header])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text.getvalue(), encoding="utf-8")
        marked.write_text(text.getvalue(), encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        expected = _load_outcome(load_csv, plain)
        assert expected[0] == (50, 2)  # a dataset, not an error
        assert expected[-1] == ("x", "y")  # feature names
        assert _load_outcome(load_csv, marked) == expected


def _test_file(kind, tmp_path):
    """A CSV of the given kind and its (label, sensitive) column names:
    a `fairdp synth` file, whose arrays are cut to the rows read ("synth");
    a file that outruns its row estimate, so the arrays grow ("grows"); or
    a LOAD_CSV_CORPUS entry."""
    path = tmp_path / "d.csv"
    if kind == "synth":
        argv = ["synth", "--n", "3000", "--d-x", "4", "--k", "3", "--seed", "2", "--out", path]
        assert cli.main([str(a) for a in argv]) == 0
        return path, ("label", "sensitive")
    if kind == "grows":
        rows = TestDirectAssembly._rows(5 * CHUNK_ROWS + 7, False)
        return write_csv(path, "x,y,lab,grp\n" + "".join(rows)), ("lab", "grp")
    return write_csv(path, LOAD_CSV_CORPUS[kind]), ("lab", "grp")


class TestLoadUnderHooks:
    """A profile or trace hook, as cProfile, coverage and pdb install, holds
    references of its own; load_csv returns the same dataset under it."""

    @pytest.mark.parametrize("hook", ["profile", "trace"])
    @pytest.mark.parametrize("kind", ["synth", "grows"])
    def test_same_dataset(self, hook, kind, tmp_path, capsys):
        path, columns = _test_file(kind, tmp_path)
        expected = _load_outcome(load_csv, path, columns)
        assert isinstance(expected[0], tuple)  # a dataset, not an error
        previous = getattr(sys, f"get{hook}")()
        getattr(sys, f"set{hook}")(lambda *args: None)
        try:
            got = _load_outcome(load_csv, path, columns)
        finally:
            getattr(sys, f"set{hook}")(previous)
        assert got == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestLoadFromFifo:
    """load_csv streams its input: a FIFO, which has no size and cannot be
    read twice, gives the dataset of the regular file on both parse paths."""

    @pytest.mark.parametrize("kind", ["synth", "quoted_cell_past_first_chunk"])
    def test_same_dataset_as_the_file(self, kind, tmp_path, capsys):
        path, columns = _test_file(kind, tmp_path)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(path.read_bytes())
            except BrokenPipeError:  # the reader stopped early; the assert below fails
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        got = _load_outcome(load_csv, fifo, columns)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == _load_outcome(load_csv, path, columns)


class TestOwnership:
    """A dataset holds read-only arrays nothing else can write to."""

    def test_writeable_inputs_are_copied(self):
        rng = np.random.default_rng(0)
        x, y, s = rng.normal(size=(4, 2)), np.array([1, 2, 1, 2]), np.array([1, 1, 2, 2])
        ds = TabularDataset(x, y, s, l=2, k=2)
        before = (ds.features.copy(), ds.labels.copy(), ds.sensitive.copy())
        x[0, 0], y[0], s[0] = 99.0, 2, 2
        for kept, a in zip(before, (ds.features, ds.labels, ds.sensitive)):
            assert np.array_equal(kept, a)

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        base = np.random.default_rng(0).normal(size=(4, 2))
        view = base[:]
        view.setflags(write=False)
        ds = TabularDataset(view, np.array([1, 2, 1, 2]), np.array([1, 1, 2, 2]), l=2, k=2)
        assert not np.shares_memory(ds.features, base)
        base[0, 0] = 99.0
        assert ds.features[0, 0] != 99.0

    def test_read_only_view_of_a_read_only_owner_is_copied(self):
        base = np.random.default_rng(0).normal(size=(4, 2))
        base.setflags(write=False)
        view = base[:]
        ds = TabularDataset(view, np.array([1, 2, 1, 2]), np.array([1, 1, 2, 2]), l=2, k=2)
        assert ds.features is not view and not np.shares_memory(ds.features, base)
        assert np.array_equal(ds.features, base) and not ds.features.flags.writeable

    def test_read_only_arrays_are_taken_without_a_copy(self):
        x = np.random.default_rng(0).normal(size=(4, 2))
        y, s = np.array([1, 2, 1, 2]), np.array([1, 1, 2, 2])
        for a in (x, y, s):
            a.setflags(write=False)
        ds = TabularDataset(x, y, s, l=2, k=2)
        assert ds.features is x and ds.labels is y and ds.sensitive is s

    def test_checks_still_run_on_arrays_taken_as_they_are(self):
        x = np.array([[0.0], [np.inf]])
        y, s = np.array([1, 3]), np.array([1, 2])
        for a in (x, y, s):
            a.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            TabularDataset(x, np.array([1, 2]), s, l=2, k=2)
        with pytest.raises(ValueError, match="labels out of range"):
            TabularDataset(np.zeros((2, 1)), y, s, l=2, k=2)

    def test_built_datasets_are_read_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x1,x2,lab,grp\n1,2,a,m\n3,4,b,f\n5,6,a,m\n")
        built = [
            load_csv(path, "lab", "grp"),
            synth_dataset(SyntheticSpec(n=50, d_x=3, seed=1)),
            small_ds().subset([0, 2, 3]),
        ]
        for ds in built:
            for a in (ds.features, ds.labels, ds.sensitive):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1

    def test_subset_shares_no_memory_with_its_parent(self):
        ds = synth_dataset(SyntheticSpec(n=50, d_x=3, seed=1))
        for idx in (np.arange(10, 30), np.arange(50) % 2 == 0):
            sub = ds.subset(idx)
            for part, whole in (
                (sub.features, ds.features),
                (sub.labels, ds.labels),
                (sub.sensitive, ds.sensitive),
            ):
                assert not np.shares_memory(part, whole)
                assert np.array_equal(part, whole[idx])


class TestConstructorChecks:
    def test_features_must_be_a_matrix(self):
        with pytest.raises(ValueError) as info:
            TabularDataset(np.zeros(4), [1, 2, 1, 2], [1, 1, 2, 2], l=2, k=2)
        assert str(info.value) == "features must be a 2-D matrix"

    def test_zero_rows(self):
        with pytest.raises(EmptyDatasetError) as info:
            TabularDataset(np.zeros((0, 2)), [], [], l=2, k=2)
        assert str(info.value) == "dataset has no rows"

    @pytest.mark.parametrize(
        "labels, sensitive", [([1, 2, 1], [1, 1, 2, 2]), ([1, 2, 1, 2], [1, 1, 2])],
        ids=["short_labels", "short_sensitive"],
    )
    def test_codes_must_match_the_rows(self, labels, sensitive):
        with pytest.raises(ValueError) as info:
            TabularDataset(np.zeros((4, 2)), labels, sensitive, l=2, k=2)
        assert str(info.value) == "labels and sensitive must be length-n vectors"

    def test_sensitive_code_above_k(self):
        with pytest.raises(ValueError) as info:
            TabularDataset(np.zeros((4, 2)), [1, 2, 1, 2], [1, 1, 2, 3], l=2, k=2)
        assert str(info.value) == "sensitive attributes out of range 1..k"

    def test_load_csv_rejects_one_column_for_both(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,lab,grp\n1,a,m\n2,b,f\n")
        with pytest.raises(SchemaError) as info:
            load_csv(path, "lab", "lab")
        assert str(info.value) == "label and sensitive columns must differ"


class TestSplit:
    def test_three_to_one(self):
        rng = np.random.default_rng(1)
        ds = TabularDataset(
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

    def test_fraction_that_empties_a_side(self):
        # ceil(4 * 0.9) = 4 train rows leave the test side empty
        with pytest.raises(ValueError) as info:
            train_test_split(small_ds(), 0.1, seed=0)
        assert str(info.value) == "split of n=4 at fraction 0.1 leaves an empty side"

    @given(n=st.integers(4, 60), frac=st.floats(0.1, 0.9), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, frac, seed):
        assume(int(np.ceil(n * (1 - frac) - 1e-9)) < n)  # both sides nonempty
        rng = np.random.default_rng(0)
        features = rng.normal(size=(n, 2))
        features[:, 0] = np.arange(n)  # row identities survive the split
        codes = np.resize([1, 2], n)
        ds = TabularDataset(features, codes, codes, l=2, k=2)
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
        ds = TabularDataset(
            np.zeros((4, 1)), [1, 2, 1, 2], [1, 1, 1, 1], l=2, k=2
        )
        with pytest.raises(DegenerateGroupError):
            sensitive_stats(ds)

    def test_inv_sqrt_inverts(self):
        ds = TabularDataset(np.zeros((6, 1)), [1, 2, 1, 2, 1, 2], [1, 1, 2, 3, 3, 3], l=2, k=3)
        st_ = sensitive_stats(ds)
        assert np.allclose(st_.inv_sqrt * np.sqrt(st_.probabilities), 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bincount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 40, 3
        s = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        ds = TabularDataset(rng.normal(size=(n, 2)), rng.integers(1, 3, size=n), s, l=2, k=k)
        got, want = sensitive_stats(ds), group_stats(ds.sensitive, k)
        for field in ("counts", "probabilities", "inv_sqrt"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert got.rho == want.rho


def cells_dataset(pairs, l=2, k=2):
    """A dataset with one row per (label, group) pair."""
    y, s = zip(*pairs)
    return TabularDataset(np.zeros((len(pairs), 1)), y, s, l=l, k=k)


class TestGroupCounts:
    @pytest.mark.parametrize("by_label", [False, True], ids=["one_stratum", "by_label"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bincount_oracle(self, seed, by_label):
        rng = np.random.default_rng(seed)
        l, k = 3, 4
        # every (label, group) cell at least once, then random rows, shuffled
        y = np.concatenate([np.repeat(np.arange(1, l + 1), k), rng.integers(1, l + 1, 60)])
        s = np.concatenate([np.tile(np.arange(1, k + 1), l), rng.integers(1, k + 1, 60)])
        order = rng.permutation(y.size)
        ds = TabularDataset(rng.normal(size=(y.size, 2)), y[order], s[order], l=l, k=k)
        cells, counts = group_counts(ds, by_label=by_label)
        stratum = ds.labels - 1 if by_label else 0
        assert np.array_equal(cells, stratum * k + ds.sensitive - 1)
        members = [ds.labels == c for c in range(1, l + 1)] if by_label else [slice(None)]
        want = np.stack([group_stats(ds.sensitive[rows], k).counts for rows in members])
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want)

    def test_one_stratum_ignores_the_labels(self):
        # label class 2 lacks group 2, which only counting by label sees
        ds = cells_dataset([(1, 1), (1, 2), (2, 1), (2, 1)])
        assert group_counts(ds)[1].tolist() == [[3, 1]]
        with pytest.raises(DegenerateConditionalError):
            group_counts(ds, by_label=True)

    @pytest.mark.parametrize(
        "pairs, by_label, error, message",
        [
            ([(1, 1), (2, 1)], False, DegenerateGroupError,
             "sensitive group(s) [2] have no samples"),
            ([(1, 1), (1, 2)], True, DegenerateConditionalError,
             "label class 2 has no samples"),
            ([(1, 1), (1, 2), (2, 1)], True, DegenerateConditionalError,
             "within label class 2: sensitive group(s) [2] have no samples"),
            # the first label class that fails raises, whichever way it fails
            ([(2, 1)], True, DegenerateConditionalError,
             "label class 1 has no samples"),
            ([(1, 2), (3, 1), (3, 2)], True, DegenerateConditionalError,
             "within label class 1: sensitive group(s) [1] have no samples"),
            # a group absent from every class is named within the first
            ([(1, 1), (2, 1)], True, DegenerateConditionalError,
             "within label class 1: sensitive group(s) [2] have no samples"),
        ],
        ids=["absent_group", "absent_label_class", "empty_label_group_cell",
             "absent_class_before_a_later_cell", "empty_cell_before_an_absent_class",
             "absent_group_by_label"],
    )
    def test_errors(self, pairs, by_label, error, message):
        ds = cells_dataset(pairs, l=max(2, max(y for y, _ in pairs)))
        with pytest.raises(error) as info:
            group_counts(ds, by_label=by_label)
        assert type(info.value) is error
        assert str(info.value) == message


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

    @pytest.mark.parametrize("m", [np.nan, 2.5, True], ids=["nan", "fraction", "bool"])
    def test_non_integer_size_is_named(self, m):
        with pytest.raises(ValueError) as info:
            minibatch(10, m, np.random.default_rng(0))
        assert str(info.value) == f"m must be a positive integer, got {m!r}"

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


def _sgda(**kw):
    return SgdaConfig(**{"eta_theta": 0.1, "eta_w": 0.1, "T": 5, "m": 2, "box_radius": 1.0, **kw})


def _tabular(**kw):
    return TabularDataset(np.zeros((4, 1)), [1, 2, 1, 2], [1, 1, 2, 2], **{"l": 2, "k": 2, **kw})


COUNT_FIELDS = [
    (_sgda, "T"), (_sgda, "m"),
    (lambda **kw: ExperimentConfig("unused.csv", **kw), "epochs"),
    (lambda **kw: ExperimentConfig("unused.csv", **kw), "batch_size"),
    (lambda **kw: ExperimentConfig("unused.csv", **kw), "trials"),
    (lambda **kw: SyntheticSpec(**{"n": 10, "d_x": 3, **kw}), "n"),
    (lambda **kw: SyntheticSpec(**{"n": 10, "d_x": 3, **kw}), "d_x"),
    (lambda **kw: SyntheticSpec(**{"n": 10, "d_x": 3, **kw}), "k"),
    (lambda **kw: SyntheticSpec(**{"n": 10, "d_x": 3, **kw}), "l"),
    (_tabular, "l"), (_tabular, "k"),
]


class TestIntegerCounts:
    """Every count of a config, spec or dataset is an int or a numpy
    integer; anything else fails in the constructor, with a line naming
    the field, and not later in the run."""

    @pytest.mark.parametrize(
        "value",
        [float("nan"), 2.0, 2.5, True, "2", np.float64(2.0)],
        ids=["nan", "float", "fraction", "bool", "str", "float64"],
    )
    @pytest.mark.parametrize("build, field", COUNT_FIELDS)
    def test_non_integer_is_named(self, build, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? .*integer.*, got "):
            build(**{field: value})

    @pytest.mark.parametrize("build, field", COUNT_FIELDS)
    def test_numpy_integer_is_accepted(self, build, field):
        built = build(**{field: np.int64(2)})
        assert getattr(built, field) == 2
