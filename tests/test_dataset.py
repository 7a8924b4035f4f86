import csv
import dataclasses
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
from helpers import TWO_USABLE_CPUS, group_stats, load_outcome, reference_load_csv, run_fresh


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

    @pytest.mark.parametrize(
        "text, repeated",
        [
            ("x,x,lab,grp\n1,2,a,m\n3,4,b,f\n", ["x"]),
            ("lab,x,lab,grp\na,1,b,m\nb,2,a,f\n", ["lab"]),
            ("grp,y,x,lab,y,grp,x\nm,1,2,a,3,m,4\n", ["grp", "y", "x"]),
        ],
        ids=["feature", "label", "three_names"],
    )
    def test_a_repeated_column_name_is_a_schema_error(self, tmp_path, text, repeated):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(SchemaError) as info:
            load_csv(p, "lab", "grp")
        assert str(info.value) == f"header repeats the column name(s) {repeated}"

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
    "repeated_feature_name": "x,y, x,lab,grp\n1,2,3,a,m\n4,5,6,b,f\n",
    "repeated_label_name": "lab,x,lab,grp\na,1,b,m\nb,2,a,f\n",
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


class TestLoadCsvMatchesReference:
    """The chunked loader against the row-by-row reference loader."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk_rows", [2, CHUNK_ROWS])
    @pytest.mark.parametrize("name", sorted(LOAD_CSV_CORPUS))
    def test_identical_outcome(self, name, chunk_rows, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        text = LOAD_CSV_CORPUS[name]
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        expected = load_outcome(reference_load_csv, path)
        monkeypatch.setattr(dataset, "CHUNK_ROWS", chunk_rows)
        assert load_outcome(load_csv, path) == expected

    @pytest.mark.parametrize(
        "name, row", [("unquoted_cell_over_field_limit", 1), ("unreadable_row", 2)]
    )
    def test_a_cell_over_the_field_size_limit_is_a_parse_error(self, name, row, tmp_path):
        path = write_csv(tmp_path / "d.csv", LOAD_CSV_CORPUS[name])
        with pytest.raises(ParseError) as info:
            load_csv(path, "lab", "grp")
        assert str(info.value) == f"field larger than field limit (131072) (row {row})"
        assert info.value.row == row

    def test_a_header_over_the_field_size_limit_is_a_schema_error(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,lab,grp," + "z" * 200_000 + "\n1,a,m,2\n")
        message = r"^unreadable header: field larger than field limit"
        with pytest.raises(SchemaError, match=message):
            load_csv(path, "lab", "grp")

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
        assert load_outcome(load_csv, path) == load_outcome(reference_load_csv, path)

    def test_quoted_file_goes_to_csv_reader(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "d.csv", "x,y,lab,grp\n" + "".join(self._rows(3000, True)))
        expected = load_outcome(reference_load_csv, path)
        parsed = []
        real_chunk = dataset._loadtxt_chunk

        def spy(*args):
            table = real_chunk(*args)
            parsed.append(table is not None)
            return table

        monkeypatch.setattr(dataset, "_loadtxt_chunk", spy)
        assert load_outcome(load_csv, path) == expected
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
        expected = load_outcome(load_csv, plain)
        assert expected[0] == (50, 2)  # a dataset, not an error
        assert expected[-1] == ("x", "y")  # feature names
        assert load_outcome(load_csv, marked) == expected


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
        expected = load_outcome(load_csv, path, columns)
        assert isinstance(expected[0], tuple)  # a dataset, not an error
        previous = getattr(sys, f"get{hook}")()
        getattr(sys, f"set{hook}")(lambda *args: None)
        try:
            got = load_outcome(load_csv, path, columns)
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
        got = load_outcome(load_csv, fifo, columns)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == load_outcome(load_csv, path, columns)



class TestRangeCuts:
    """_split's scan in 7-byte blocks, as if two workers were granted and
    the floor were 16 bytes: where it cuts a file, and which it leaves to
    the serial parse."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "FORK_MIN_CSV_BYTES", 16)
        monkeypatch.setattr(dataset, "_SCAN_BYTES", 7)
        monkeypatch.setattr(dataset, "_workers", lambda tasks: 2)

    @staticmethod
    def split(tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            return dataset._split(path, fh.fileno())

    @pytest.mark.parametrize(
        "data, cuts",
        [
            # the cut follows the first newline at or after byte 21 of 42:
            # rows start at byte 2 + 4r, so it falls after row 4
            (b"h\n" + b"1,a\n" * 10, ([(22, 5)], 10)),
            (b"h\n" + b"1,a\n" * 9 + b"1,a", ([(22, 5)], 10)),  # no final newline
            (b"h\r\n" + b"1,a\r\n" * 10, ([(28, 5)], 10)),  # CRLF across blocks
            (b"h\n" + b"1,\xc3\xa9\n" * 10, ([(27, 5)], 10)),  # "\xe9" across blocks
            (b"\xef\xbb\xbfh\n" + b"1,a\n" * 10, ([(25, 5)], 10)),  # byte-order mark
        ],
        ids=["lf", "no_final_newline", "crlf", "two_byte_character", "byte_order_mark"],
    )
    def test_cuts_just_after_a_newline(self, tmp_path, data, cuts):
        assert self.split(tmp_path, data) == cuts
        offset, first = cuts[0][0]
        assert data[offset - 1:offset] == b"\n"
        assert data[:offset].count(b"\n") - 1 == first  # rows before the cut

    @pytest.mark.parametrize(
        "data",
        [
            b"h\n" + b"1,a\n" * 5 + b'"1",a\n' + b"1,a\n" * 4,
            b"h\n" + b"1,a\n" * 9 + b"1,\xff\n",
            b"h\n" + b"1,a\n" * 9 + b"1,\xc3",  # a character cut short at the end
            b"h\n" + b"1,a\n" * 5 + b"1,a\r" + b"1,a\n" * 4,  # a lone CR
            b"h\n1," + b"a" * 9 + b"\r2,b\n" + b"1,a\n" * 7,  # a lone CR ending a block
            b"h\n" + b"1,a\n" * 9 + b"1,a\r",  # a CR ending the file
            b"h,x" + b",y" * 20,  # no newline
            b"h\n" + b"1,a\n" * 3,  # below the floor
        ],
        ids=["quote", "undecodable", "cut_short", "lone_cr", "lone_cr_at_block_end",
             "final_cr", "no_newline", "below_the_floor"],
    )
    def test_files_the_parse_keeps_serial(self, tmp_path, data):
        assert self.split(tmp_path, data) is None

    def test_one_worker_keeps_the_parse_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_workers", lambda tasks: 1)
        assert self.split(tmp_path, b"h\n" + b"1,a\n" * 10) is None


# Run in a fresh interpreter with one BLAS thread, so the process has a single
# OS thread and, with two usable CPUs, a CSV of at least FORK_MIN_CSV_BYTES is
# parsed in forked byte ranges. READER_PRELUDE lowers that floor to
# SMALL_FLOOR and the chunk to SMALL_CHUNK_ROWS lines, so ROWS rows of
# `fairdp synth --d-x 10`, a file of about 54 KB, make two ranges of several
# chunks each. FLOOR_ROWS rows make a file of about 4.6 MB, which is two
# ranges at the library's own floor and chunk (at_the_floor()).
ROWS = 400
LAST_RANGE_ROW = ROWS - 10
SMALL_FLOOR = 40_000
SMALL_CHUNK_ROWS = 64
FLOOR_ROWS = 34_000
READER_PRELUDE = f"""
import threading

from fairdp import dataset
from fairdp.exceptions import ParseError
from helpers import load_outcome, reference_load_csv

COLUMNS = ("label", "sensitive")
FLOOR, CHUNK_ROWS = dataset.FORK_MIN_CSV_BYTES, dataset.CHUNK_ROWS
dataset.FORK_MIN_CSV_BYTES, dataset.CHUNK_ROWS = {SMALL_FLOOR}, {SMALL_CHUNK_ROWS}


def at_the_floor():
    dataset.FORK_MIN_CSV_BYTES, dataset.CHUNK_ROWS = FLOOR, CHUNK_ROWS


def on_one_cpu(load, path, columns=COLUMNS):
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {{min(cpus)}})
    try:
        return load_outcome(load, path, columns)
    finally:
        os.sched_setaffinity(0, cpus)


def check(path, forked, reference_path=None):
    # the reference's outcome (on reference_path if given), with `forked`
    # children; then with one CPU, serially
    expected = load_outcome(reference_load_csv, reference_path or path, COLUMNS)
    got = load_outcome(dataset.load_csv, path, COLUMNS)
    assert len(forks) == forked, forks
    assert got == expected, (got[:3], expected[:3])
    forks.clear()
    assert on_one_cpu(dataset.load_csv, path) == expected
    assert forks == []
    return got
"""


@pytest.fixture(scope="module")
def synth_lines(tmp_path_factory):
    """The lines (the header first, CRLF line ends) of the `fairdp synth`
    CSV of a given row count, each made once."""
    made = {}

    def lines(rows):
        if rows not in made:
            path = tmp_path_factory.mktemp("synth") / "d.csv"
            argv = ["synth", "--n", rows, "--d-x", "10", "--k", "3", "--l", "3", "--seed", "4",
                    "--out", path]
            assert cli.main([str(a) for a in argv]) == 0
            made[rows] = path.read_bytes().splitlines(keepends=True)
        return list(made[rows])

    return lines


@pytest.fixture
def fork_file(tmp_path, synth_lines):
    """Writes the synth CSV of `rows` rows, with edit(lines) applied to its
    lines (the header is line 0), and returns its path."""
    def write(edit=None, rows=ROWS):
        lines = synth_lines(rows)
        if edit is not None:
            edit(lines)
        path = tmp_path / "d.csv"
        path.write_bytes(b"".join(lines))
        return path

    return write


def _first_cell(row, value):
    """An edit that makes the first cell of data row `row` value."""
    def edit(lines):
        line = lines[row + 1]
        lines[row + 1] = value + line[line.index(b","):]
    return edit


def _line_ends(end):
    def edit(lines):
        lines[:] = [line.replace(b"\r\n", end) for line in lines]
    return edit


def _byte_order_mark(lines):
    lines[0] = b"\xef\xbb\xbf" + lines[0]


def _names_in_last_range(lines):
    # a label and a group that no earlier row has
    cells = lines[LAST_RANGE_ROW + 1].split(b",")
    lines[LAST_RANGE_ROW + 1] = b",".join(cells[:-2] + [b"late", b"new\r\n"])


def _long_first_chunk(lines):
    # long numerals in the first chunk make the row estimate taken from it
    # fall short of the rows
    for row in range(SMALL_CHUNK_ROWS):
        _first_cell(row, b"0." + b"0" * 200 + b"1")(lines)


def _blank_line(lines):
    lines[LAST_RANGE_ROW + 1] = b"\r\n"


def _repeated_name(lines):
    lines[0] = lines[0].replace(b"f1,", b"f0,")


def _names_in_later_ranges(lines):
    # with three ranges: a label and a group first met in the second range,
    # one met again and one first met in the third
    for row, label, group in [
        (ROWS // 2, b"late", b"new"),
        (LAST_RANGE_ROW - 1, b"late", b"newer"),
        (LAST_RANGE_ROW, b"later", b"new"),
    ]:
        cells = lines[row + 1].split(b",")
        lines[row + 1] = b",".join(cells[:-2] + [label, group + b"\r\n"])


def _below_the_floor(lines):
    # whole lines, up to the last that keeps the file below the floor
    size = 0
    for i, line in enumerate(lines):
        if size + len(line) >= SMALL_FLOOR:
            del lines[i:]
            return
        size += len(line)


@pytest.mark.skipif(not TWO_USABLE_CPUS, reason="a CSV parse forks only with two usable CPUs")
class TestForkedRead:
    """A CSV of at least FORK_MIN_CSV_BYTES is parsed in byte ranges, one per
    usable CPU, and gives the reference's dataset or error, which is also
    the serial parse's with one usable CPU."""

    @pytest.mark.parametrize(
        "edit, rows",
        [(None, FLOOR_ROWS), (_line_ends(b"\n"), ROWS), (_byte_order_mark, ROWS),
         (_names_in_last_range, ROWS), (_long_first_chunk, ROWS)],
        ids=["crlf", "lf", "byte_order_mark", "names_in_last_range", "rows_outrun_estimate"],
    )
    def test_same_dataset(self, fork_file, tmp_path, edit, rows):
        path = fork_file(edit, rows)
        floor = dataset.FORK_MIN_CSV_BYTES if rows == FLOOR_ROWS else SMALL_FLOOR
        assert path.stat().st_size >= floor
        # the reference reads a byte-order mark into the header; the file without it
        plain = tmp_path / "plain.csv"
        plain.write_bytes(path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
        run_fresh(f"""
            if {rows} == {FLOOR_ROWS}:
                at_the_floor()
            got = check({str(path)!r}, forked=1, reference_path={str(plain)!r})
            assert got[0] == ({rows}, 10), got[0]  # a dataset, not an error
        """, READER_PRELUDE)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (_first_cell(LAST_RANGE_ROW, b"1_0"), None),  # only float() reads it
            (_first_cell(LAST_RANGE_ROW, b"oops"), "non-numeric feature cell 'oops'"),
            (_first_cell(LAST_RANGE_ROW, b"inf"), "non-finite feature cell 'inf'"),
            (_blank_line, "expected 12 cells, got 0"),
        ],
        ids=["underscore_numeral", "bad_numeral", "non_finite", "blank_line"],
    )
    def test_csv_reader_within_the_last_range(self, fork_file, edit, error):
        # a chunk of the last range after its first goes to csv.reader; an
        # error carries its absolute row
        path = fork_file(edit)
        run_fresh(f"""
            error = {error!r}
            got = check({str(path)!r}, forked=1)
            if error is None:
                assert got[0] == ({ROWS}, 10), got[0]
            else:
                assert got[0] is ParseError and got[2] == {LAST_RANGE_ROW}, got
                assert got[1].startswith(error), got
        """, READER_PRELUDE)

    def test_a_childs_parse_error_keeps_its_row_and_carries_a_note(self, fork_file):
        # FairdpError.__reduce__ carries __dict__, where the note lives; the
        # serial parse raises the same error without one
        path = fork_file(_first_cell(LAST_RANGE_ROW, b"oops"))
        run_fresh(f"""
            def failure():
                try:
                    dataset.load_csv({str(path)!r}, *COLUMNS)
                except ParseError as exc:
                    return str(exc), exc.row, getattr(exc, "__notes__", [])
                raise AssertionError("no error")

            message, row, notes = failure()
            assert len(forks) == 1, forks
            assert message.startswith("non-numeric feature cell 'oops'"), message
            assert row == {LAST_RANGE_ROW}, row
            (note,) = notes
            assert "in parse" in note and "ParseError: " + message in note, note
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {{min(cpus)}})
            assert failure() == (message, row, [])
        """, READER_PRELUDE)

    def test_a_child_that_sent_nothing_does_not_hide_the_first_ranges_error(self, fork_file):
        # the caller's range fails at row 5 and the child dies: the error is
        # the serial parse's
        path = fork_file(_first_cell(5, b"oops"))
        run_fresh(f"""
            read = dataset._Rows.read

            def dying_read(*args, **kwargs):
                if where() == "a child":
                    os._exit(3)
                return read(*args, **kwargs)

            dataset._Rows.read = dying_read
            got = load_outcome(dataset.load_csv, {str(path)!r}, COLUMNS)
            assert len(forks) == 1, forks
            assert got[0] is ParseError and got[2] == 5, got
            assert on_one_cpu(dataset.load_csv, {str(path)!r}) == got
        """, READER_PRELUDE)

    def test_three_ranges(self, fork_file):
        # three workers, as on a host with three usable CPUs: two children,
        # whose label and group names merge in file order
        path = fork_file(_names_in_later_ranges)
        run_fresh(f"""
            workers = dataset._workers
            dataset._workers = lambda tasks: 3 if workers(tasks) > 1 else 1
            got = check({str(path)!r}, forked=2)
            assert got[0] == ({ROWS}, 10), got[0]
            assert (got[8][3:], got[9][3:]) == (("late", "later"), ("new", "newer")), got[8:10]
        """, READER_PRELUDE)

    def test_the_rows_are_held_once(self, fork_file):
        # a child's rows are read from its pipe straight into the dataset's
        # arrays: a copy of them on the way, half the data, would pass 1.4
        path = fork_file(rows=FLOOR_ROWS)
        run_fresh(f"""
            import tracemalloc

            at_the_floor()
            tracemalloc.start()
            ds = dataset.load_csv({str(path)!r}, *COLUMNS)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(forks) == 1, forks
            data = ds.features.nbytes + ds.labels.nbytes + ds.sensitive.nbytes
            assert peak <= 1.4 * data, (peak, data)
        """, READER_PRELUDE)

    def test_checkpoint_names(self, fork_file):
        # evaluate's read: the checkpoint's label codes and feature order
        path = fork_file()
        run_fresh(f"""
            names = ("2", "9", "1")
            order = [3, 1, 0, 2, 9, 8, 7, 6, 5, 4]
            features = tuple(f"f{{j}}" for j in order)

            def read(path, *columns):
                return dataset._read_csv(path, *columns, names, features)

            got = load_outcome(read, {str(path)!r}, COLUMNS)
            assert len(forks) == 1, forks
            forks.clear()
            assert on_one_cpu(read, {str(path)!r}) == got
            assert forks == []
            ref = reference_load_csv({str(path)!r}, *COLUMNS)
            assert got[3] == ref.features[:, order].tobytes()
            assert (got[8][:3], got[10]) == (names, features)
            assert [got[8][c - 1] for c in got[4]] == [ref.label_names[c - 1] for c in ref.labels]
            assert got[5] == ref.sensitive.tolist()
        """, READER_PRELUDE)

    @pytest.mark.parametrize(
        "edit, outcome",
        [
            (_first_cell(LAST_RANGE_ROW, b'"0.5"'), "dataset"),
            (_first_cell(LAST_RANGE_ROW, b"\xff"), "UnicodeDecodeError"),
            (_line_ends(b"\r"), "dataset"),
            (_below_the_floor, "dataset"),
            (_repeated_name, "SchemaError"),
        ],
        ids=["quote_in_last_range", "undecodable_byte_in_last_range", "cr_line_ends",
             "just_below_the_floor", "repeated_column_name"],
    )
    def test_files_that_stay_serial(self, fork_file, edit, outcome):
        path = fork_file(edit)
        assert SMALL_FLOOR - 1000 < path.stat().st_size
        run_fresh(f"""
            got = check({str(path)!r}, forked=0)
            outcome = got[0].__name__ if isinstance(got[0], type) else "dataset"
            assert outcome == {outcome!r}, got[:3]
        """, READER_PRELUDE)

    def test_a_second_thread_keeps_the_parse_serial(self, fork_file):
        path = fork_file()
        run_fresh(f"""
            check({str(path)!r}, forked=1)
            forks.clear()
            stop = threading.Event()
            waiter = threading.Thread(target=stop.wait)
            waiter.start()
            try:
                check({str(path)!r}, forked=0)
            finally:
                stop.set()
                waiter.join()
        """, READER_PRELUDE)


class TestLoadFromDescriptor:
    """load_csv takes an open file descriptor, which it parses in one
    process whatever the file's size, and closes."""

    def test_same_dataset_as_the_path_in_one_process(self, fork_file, monkeypatch):
        path = fork_file()
        monkeypatch.setattr(dataset, "FORK_MIN_CSV_BYTES", SMALL_FLOOR)
        assert path.stat().st_size >= SMALL_FLOOR
        columns = ("label", "sensitive")

        def no_fork():
            raise AssertionError("forked")

        # with two workers granted the path's parse forks; the descriptor's does not
        monkeypatch.setattr(dataset, "_workers", lambda tasks: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(AssertionError, match="forked"):
            load_csv(path, *columns)
        fd = os.open(path, os.O_RDONLY)
        got = load_outcome(load_csv, fd, columns)
        with pytest.raises(OSError):
            os.fstat(fd)
        monkeypatch.setattr(dataset, "_workers", lambda tasks: 1)
        assert got[0] == (ROWS, 10), got[:3]  # a dataset, not an error
        assert got == load_outcome(load_csv, path, columns)

    @pytest.mark.parametrize(
        "text, message",
        [("", "is empty"), ("x,lab,grp\n", "has a header but no data rows")],
        ids=["empty", "header_only"],
    )
    def test_an_empty_file_is_named_as_a_descriptor(self, tmp_path, text, message):
        # the path's error names the path; the descriptor's names the descriptor
        path = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(EmptyDatasetError) as info:
            load_csv(path, "lab", "grp")
        assert str(info.value) == f"{path} {message}"
        fd = os.open(path, os.O_RDONLY)
        with pytest.raises(EmptyDatasetError) as info:
            load_csv(fd, "lab", "grp")
        assert str(info.value) == f"file descriptor {fd} {message}"
        with pytest.raises(OSError):
            os.fstat(fd)


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
    def test_holds_only_rho(self):
        # group counts, shares and inverse roots come from group_counts and strata
        assert [f.name for f in dataclasses.fields(dataset.SensitiveStats)] == ["rho"]

    def test_balanced(self):
        assert sensitive_stats(small_ds()).rho == 0.5

    def test_skewed(self):
        assert sensitive_stats(small_ds(s=(1, 1, 1, 2))).rho == 0.25

    def test_empty_group(self):
        ds = TabularDataset(
            np.zeros((4, 1)), [1, 2, 1, 2], [1, 1, 1, 1], l=2, k=2
        )
        with pytest.raises(DegenerateGroupError):
            sensitive_stats(ds)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bincount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 40, 3
        s = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        ds = TabularDataset(rng.normal(size=(n, 2)), rng.integers(1, 3, size=n), s, l=2, k=k)
        rho = sensitive_stats(ds).rho
        assert type(rho) is float
        assert rho == group_stats(ds.sensitive, k)[0].min() / n
        assert rho == group_counts(ds)[1].min() / ds.n


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
        want = np.stack([group_stats(ds.sensitive[rows], k)[0] for rows in members])
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

    @pytest.mark.parametrize(
        "by_label, error, message",
        [(False, DegenerateGroupError, "sensitive group(s) ['m'] have no samples"),
         (True, DegenerateConditionalError,
          "within label class 'a': sensitive group(s) ['m'] have no samples")],
        ids=["one_stratum", "by_label"],
    )
    def test_a_csv_group_is_named_by_its_value(self, tmp_path, by_label, error, message):
        # code 2 is "m", the second group value of the file to appear
        path = tmp_path / "groups.csv"
        path.write_text("x,label,sensitive\n1,a,f\n2,b,m\n3,a,f\n")
        ds = load_csv(path, "label", "sensitive")
        with pytest.raises(error) as info:
            group_counts(ds.subset([0, 2]), by_label=by_label)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "pairs, message",
        [([(1, 1), (2, 1), (2, 2)],
          "within label class 'yes': sensitive group(s) ['b'] have no samples"),
         ([(2, 1), (2, 2)], "label class 'yes' has no samples")],
        ids=["empty_cell", "absent_label_class"],
    )
    def test_a_label_class_is_named_by_its_value(self, pairs, message):
        # as a group is: a label class the dataset names is named, not numbered
        names = {"label_names": ("yes", "no"), "sensitive_names": ("a", "b")}
        ds = dataclasses.replace(cells_dataset(pairs), **names)
        with pytest.raises(DegenerateConditionalError) as info:
            group_counts(ds, by_label=True)
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
