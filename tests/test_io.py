"""Tests for CSV ingestion, dataset writing, and report serialization."""

import contextlib
import csv
import gzip
import io
import json
import math
import os
import signal
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from objentropy import cli
from objentropy import data as odata
from objentropy import io as oio
from objentropy import likelihoods as olikelihoods
from objentropy.data import (
    Dataset,
    Layout,
    SplitSpec,
    split_blocks,
    validate_dataset,
)
from objentropy.errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    UndecodableFile,
    UnparseableNumber,
)
from objentropy.information import EntropyEstimate, rank_objectives
from objentropy.io import (
    format_report,
    load_csv,
    load_entropies,
    report_records,
    write_dataset_csv,
)
from objentropy.likelihoods import CATALOG, evaluate_objective, location_frames
from objentropy.synthetic import SyntheticModel, generate


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("location_id,observed,predicted\nA,1.0,2.0\nA,2.0,4.0\n")
        ds = load_csv(f)
        assert ds.n_total == 2
        np.testing.assert_array_equal(ds.observed, [1.0, 2.0])

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("location_id,observed\nA,1.0\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(f)
        assert "predicted" in str(err.value)

    def test_repeated_ignored_column_is_allowed(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("note,location_id,observed,predicted,note,k,k\n"
                     "x,A,1.0,2.0,y,1,2\n")
        np.testing.assert_array_equal(load_csv(f).pairs, [[1.0], [2.0]])

    def test_unparseable_number_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("location_id,observed,predicted\nA,1.0,abc\n")
        with pytest.raises(UnparseableNumber) as err:
            load_csv(f)
        assert "line 2" in str(err.value)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(f)
        f.write_text("location_id,observed,predicted\n")
        with pytest.raises(EmptyFile):
            load_csv(f)

    def test_timestamp_column_preserved(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "timestamp,location_id,observed,predicted\n"
            "2020-01-02,A,1.0,2.0\n"
            "2020-01-01,A,2.0,4.0\n"
        )
        ds = load_csv(f)
        assert ds.timestamps == ("2020-01-02", "2020-01-01")

    def test_interleaved_locations_grouped_in_file_order(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "location_id,observed,predicted\n"
            "B,1.0,1.0\nA,2.0,2.0\nB,3.0,3.0\n"
        )
        ds = load_csv(f)
        assert ds.location_ids == ("B", "A")
        assert ds.bounds.tolist() == [0, 2, 3]
        np.testing.assert_array_equal(ds.observed, [1.0, 3.0, 2.0])

    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch):
        """A file saved as "CSV UTF-8" starts with a byte-order mark. Both
        readers skip it, also when the row parser rereads the file after
        the columnar read gives up on a `1_000` cell."""
        f = tmp_path / "d.csv"
        f.write_text("\ufeff" + _HEADER + "A,1,2\nB,3,4\n", encoding="utf-8")
        ds = _load_by(f, monkeypatch, "columns")
        assert ds.location_ids == ("A", "B")
        np.testing.assert_array_equal(ds.pairs, [[1.0, 3.0], [2.0, 4.0]])
        f.write_text("\ufeff" + _HEADER + "A,1_000,2\n", encoding="utf-8")
        ds = load_csv(f)
        assert ds.location_ids == ("A",)
        np.testing.assert_array_equal(ds.pairs, [[1000.0], [2.0]])
        f.write_text("\ufeffobjective,k,h_bits\nMSE,1,2.5\n", encoding="utf-8")
        (estimate,) = load_entropies(f)
        assert (estimate.name, estimate.k, estimate.h_bits) == ("MSE", 1, 2.5)

    def test_load_entropies_checks_repeats_in_linear_time(self, tmp_path):
        """A repeated objective is looked up among the names seen so far,
        not among every estimate read: 20,000 distinct rows load in well
        under the 9 s that a scan of the estimates per row took."""
        f = tmp_path / "e.csv"
        f.write_text("objective,h_bits\n"
                     + "".join(f"O{i},{i}\n" for i in range(20_000)))
        start = time.perf_counter()
        estimates = load_entropies(f)
        assert time.perf_counter() - start < 2
        assert [e.name for e in estimates[::9_999]] == ["O0", "O9999",
                                                         "O19998"]


def _load_by(path, monkeypatch, parser):
    """load_csv forced onto one parser: "columns" fails the test if the
    columnar read gives up, "rows" skips the columnar read."""
    with monkeypatch.context() as m:
        if parser == "rows":
            m.setattr(oio, "_parse_blocks", _reject)
        else:
            m.setattr(oio, "_read_rows", _unexpected_fallback)
        return load_csv(path)


def _reject(*args, **kwargs):
    raise ValueError("columnar read disabled")


def _unexpected_fallback(*args):
    raise AssertionError("columnar read fell back to the row parser")


_LAID_OUT = oio._laid_out


def _no_gather(parsed):
    """_laid_out of parsed, a grouped file's records, which are left where
    they are spooled."""
    if parsed.order is not None:
        raise AssertionError("a grouped file's spooled numbers were gathered")
    return _LAID_OUT(parsed)


def _assert_identical(a, b):
    assert a.location_ids == b.location_ids
    assert a.bounds.tolist() == b.bounds.tolist()
    assert a.pairs.tobytes() == b.pairs.tobytes()
    assert a.timestamps == b.timestamps


_HEADER = "location_id,observed,predicted\n"

# (body, the parser load_csv ends up using)
_LOADER_CASES = {
    "interleaved": (_HEADER + "B,1.5,1\nA,2,2\nB,3,3\nC,4,4\nA,5,5\n", "columns"),
    "blank lines": (_HEADER + "\nA,1,2\n\n\nB,3,4\n\n", "columns"),
    "whitespace-only lines": (_HEADER + "A,1,2\n   \n\t\nB,3,4\n", "rows"),
    "blank cells": (_HEADER + "A,1,2\n , ,\nB,3,4\n", "rows"),
    "padded ids": (_HEADER + "  A ,1,2\nA,3,4\n\tB,5,6\nA\t,7,8\n", "columns"),
    "adjacent padded ids": (_HEADER + " A,1,2\nA,3,4\nB,5,6\n", "columns"),
    "hash ids": (_HEADER + "#A,1,2\nB,3,4\n#A,5,6\n", "columns"),
    "quoted ids": (_HEADER + '"A,B",1,2\n"x""y",3,4\n"A,B",5,6\n"p\nq",7,8\n',
                   "columns"),
    "quoted numbers": (_HEADER + 'A,"1.25"," 2"\n', "columns"),
    "extra columns": ("note,predicted,location_id,observed,x\n"
                      "n1,2,A,1,\nn2,4,B,3,zz\nn3,6,A,5\n", "columns"),
    "underscore digits": (_HEADER + "A,1_000,2\nA,3,4_0.5\n", "rows"),
    "timestamps": ("timestamp,location_id,observed,predicted\n"
                   " 2020-01-02 ,A,1,2\n2020-01-01,B,3,4\n2020-01-03,A,5,6\n",
                   "columns"),
    "crlf": ("location_id,observed,predicted\r\nA,1,2\r\nB,3,4\r\n", "columns"),
    "nul in id": (_HEADER + "A\x00,1,2\nA,3,4\n", "columns"),
    "padded numbers": (_HEADER + "A, 1e3 ,\t-0.0\nA,+.5,2.\n", "columns"),
    "no final newline": (_HEADER + "A,1,2\nB,3,4", "columns"),
    # numpy reads a path with universal newlines; a quoted CR must survive.
    "quoted crlf ids": (_HEADER + '"p\r\nq",1,2\nA,3,4\n"p\nq",5,6\n'
                        '"p\r\nq",7,8\n', "columns"),
    "quoted cr ids": (_HEADER + '"p\rq",1,2\n"p\nq",3,4\n"p\rq",5,6\n',
                      "columns"),
    "quoted cr stamps": ("timestamp,location_id,observed,predicted\n"
                         '"t\r1",A,1,2\n"t\n1",A,3,4\n"t\r\n1",B,5,6\n'
                         't1,B,7,8\n', "columns"),
    "lone cr": ("location_id,observed,predicted\rA,1,2\rB,3,4\rA,5,6\r",
                "columns"),
}
# The cases that list some location's records apart, so that the load
# gathers each location's records by a record order.
_UNGROUPED = {"interleaved", "padded ids", "hash ids", "quoted ids",
              "extra columns", "timestamps", "quoted crlf ids",
              "quoted cr ids", "lone cr"}


class TestLoaderEquivalence:
    """The columnar read gives the row parser's dataset, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_LOADER_CASES))
    def test_matches_row_parser(self, case, tmp_path, monkeypatch):
        body, parser = _LOADER_CASES[case]
        f = tmp_path / "d.csv"
        f.write_bytes(body.encode("utf-8"))
        reference = _load_by(f, monkeypatch, "rows")
        _assert_identical(_load_by(f, monkeypatch, parser), reference)
        _assert_identical(load_csv(f), reference)

    @pytest.mark.parametrize("case", sorted(_LOADER_CASES))
    def test_only_ungrouped_files_are_reordered(self, case, tmp_path,
                                                monkeypatch):
        """The pairs are gathered by a record order where a location's
        records lie apart, and copied as read where the file is grouped."""
        f = tmp_path / "d.csv"
        f.write_bytes(_LOADER_CASES[case][0].encode("utf-8"))
        orders = []
        laid_out = oio._laid_out

        def recorded(parsed):
            orders.append(parsed.order)
            return laid_out(parsed)

        monkeypatch.setattr(oio, "_laid_out", recorded)
        load_csv(f)
        (order,) = orders
        assert (order is not None) == (case in _UNGROUPED)

    @pytest.mark.parametrize("parser", ["columns", "rows"])
    def test_non_finite_value_names_the_first_location(self, parser,
                                                       tmp_path, monkeypatch):
        """A NaN or infinite value raises as a dataset of the grouped pairs
        raises: naming the first location, in grouped order, that holds
        one, not the location of the file's first. Where none is left, the
        file loads."""
        f = tmp_path / "d.csv"
        body = _HEADER + "B,1,1\nA,nan,2\nC,3,3\nB,2,inf\nA,4,4\n"
        f.write_text(body)
        with pytest.raises(NonFiniteValue, match="location 'B'"):
            _load_by(f, monkeypatch, parser)
        f.write_text(body.replace("inf", "2"))
        with pytest.raises(NonFiniteValue, match="location 'A'"):
            _load_by(f, monkeypatch, parser)
        f.write_text(body.replace("inf", "2").replace("nan", "-inf"))
        with pytest.raises(NonFiniteValue, match="location 'A'"):
            _load_by(f, monkeypatch, parser)
        f.write_text(body.replace("inf", "2").replace("nan", "3"))
        assert _load_by(f, monkeypatch, parser).location_ids == ("B", "A", "C")

    def test_quoted_crlf_and_lf_ids_stay_apart(self, tmp_path, monkeypatch):
        """Read from the path, numpy turns the CRLF into LF, and the two ids
        would merge into one location."""
        f = tmp_path / "d.csv"
        f.write_bytes(b'location_id,observed,predicted\n'
                      b'"p\r\nq",1,2\n"p\nq",3,4\n')
        ds = _load_by(f, monkeypatch, "columns")
        assert ds.location_ids == ("p\r\nq", "p\nq")
        assert ds.bounds.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(ds.pairs, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("name", ["x.gz", "x.bz2", "x.xz", "x.lzma"])
    def test_compression_suffix_is_plain_text(self, tmp_path, monkeypatch,
                                              name):
        """numpy decompresses a path by its suffix; load_csv reads the file
        as written."""
        body = ("timestamp,location_id,observed,predicted\n"
                "t1,A,1,2\nt2,B,3.5,4\nt3,A,5,6e-3\n").encode()
        (tmp_path / "x.csv").write_bytes(body)
        (tmp_path / name).write_bytes(body)
        _assert_identical(_load_by(tmp_path / name, monkeypatch, "columns"),
                          load_csv(tmp_path / "x.csv"))

    def test_gzip_file_is_undecodable(self, tmp_path):
        f = tmp_path / "x.csv.gz"
        f.write_bytes(gzip.compress((_HEADER + "A,1,2\n").encode()))
        with pytest.raises(UndecodableFile) as err:
            load_csv(f)
        assert str(err.value) == (
            f"{f} is not UTF-8 text: cannot decode byte 0x8b")

    def test_grouping_follows_first_appearance(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(_LOADER_CASES["padded ids"][0])
        ds = load_csv(f)
        assert ds.location_ids == ("A", "B")
        assert ds.bounds.tolist() == [0, 3, 4]
        np.testing.assert_array_equal(ds.observed, [1.0, 3.0, 7.0, 5.0])

    @pytest.mark.parametrize("body, line, what", [
        (_HEADER + "A,1,2\nB,x,3\n", 3, "cannot parse 'x' as a number"),
        (_HEADER + "A,1,2\n\nB,3\n", 4, "row has too few columns"),
        (_HEADER + "A,1,2\n\n\nB,3,\n", 5, "cannot parse '' as a number"),
        ("observed,predicted,location_id\n1,2,A\n3,4\n", 3,
         "row has too few columns"),
        ("location_id,observed,predicted,timestamp\nA,1,2,t1\nA,3,4\n", 3,
         "row has too few columns"),
        # Lines are counted in the file, not in records: "A<newline>B"
        # spans lines 2 and 3.
        (_HEADER + '"A\nB",1,2\nC,x,3\n', 4, "cannot parse 'x' as a number"),
        (_HEADER + '"A\nB",1,2\n\n"C\n",1\n', 5, "row has too few columns"),
    ])
    def test_unparseable_number_line(self, tmp_path, body, line, what):
        f = tmp_path / "d.csv"
        f.write_text(body)
        with pytest.raises(UnparseableNumber) as err:
            load_csv(f)
        assert str(err.value) == f"{f} line {line}: {what}"

    @pytest.mark.parametrize("body", [
        b"location_id,obs\xff,observed,predicted\nA,1,2\n",
        b"location_id,observed,predicted\n" + b"A,1,2\n" * 2000
        + b"A,\xff1,2\n",
    ], ids=["header", "data row"])
    def test_non_utf8_byte(self, tmp_path, monkeypatch, body):
        """A byte that is not UTF-8 is named as such, without a second read
        of the file by the row parser. The bad data row lies past the first
        block of text the reader decodes."""
        f = tmp_path / "d.csv"
        f.write_bytes(body)
        monkeypatch.setattr(oio, "_read_rows", None)
        with pytest.raises(UndecodableFile) as err:
            load_csv(f)
        assert str(err.value) == (
            f"{f} is not UTF-8 text: cannot decode byte 0xff")

    def test_id_read_error_wins(self, tmp_path):
        """The id read gives up at the short row on line 2; the number read
        gets past it to a byte that is not UTF-8. As when the id read runs
        first, the row parser reports the short row."""
        f = tmp_path / "d.csv"
        f.write_bytes(b"observed,predicted,location_id\n1,2\n"
                      + b"3,4,A\n" * 20000 + b"5,\xff6,A\n")
        with pytest.raises(UnparseableNumber) as err:
            load_csv(f)
        assert str(err.value) == f"{f} line 2: row has too few columns"

    def test_blank_data_is_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "\n   \n\n")
        with pytest.raises(EmptyFile) as err:
            load_csv(f)
        assert str(err.value) == f"{f} has a header but no data rows"

    # TestLoaderEquivalenceInChild runs this test too, which hypothesis
    # would flag: the two executors must give the same results.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(st.lists(
        st.tuples(
            st.sampled_from(["A", " A", "A ", "B", "#b", '"c,d"', '"e""f"']),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(["", "\n", "\r\n"]),
        ),
        min_size=1, max_size=40,
    ))
    def test_random_files_match_row_parser(self, tmp_path_factory, rows):
        f = tmp_path_factory.mktemp("eq") / "d.csv"
        f.write_text(_HEADER + "".join(
            f"{loc},{o!r},{p!r}\n{gap}" for loc, o, p, gap in rows
        ), newline="")
        with pytest.MonkeyPatch.context() as mp:
            reference = _load_by(f, mp, "rows")
            _assert_identical(_load_by(f, mp, "columns"), reference)


class TestLoaderEquivalenceInChild(TestLoaderEquivalence):
    """Every loader case again, with the id read in a forked child while
    this process reads the numbers, as in a large file on a host with more
    than one CPU."""

    @pytest.fixture(autouse=True)
    def _fork_every_read(self, monkeypatch):
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_workers", lambda: 2)


@st.composite
def _csv_texts(draw):
    """A CSV text from the loader cases' alphabet: ids that hold commas,
    quotes, CRs, LFs, CRLFs, NULs or padding, blank lines, LF, CRLF and
    lone-CR record ends, an optional timestamp column, and rows grouped
    by location or interleaved."""
    piece = st.sampled_from(["A", "b", "#", "\u00e9", ",", '"', "\r", "\n",
                             "\r\n", "\x00", " ", "\t"])
    cell = st.lists(piece, max_size=4).map("".join)
    ids = draw(st.lists(cell, min_size=1, max_size=4))
    with_time = draw(st.booleans())
    rows = draw(st.lists(st.tuples(
        st.integers(0, len(ids) - 1), _FLOATS, _FLOATS, cell,
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.sampled_from(["", "\n", "\r\n", "\r"])),
        min_size=1, max_size=12))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0])
    header = ("timestamp," if with_time else "") + _HEADER[:-1]
    text = header + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    for loc, obs, pred, stamp, end, blank in rows:
        cells = [oio._quote(ids[loc]), repr(obs), repr(pred)]
        if with_time:
            cells.insert(0, oio._quote(stamp))
        text += ",".join(cells) + end + blank
    return text


class TestBlockReader:
    """load_csv's block reader gives the row parser's dataset without
    falling back to it, at any block size and worker count, and split_csv
    folds what it loads."""

    @settings(max_examples=120, deadline=None)
    @given(_csv_texts(), st.integers(1, 80), st.integers(1, 3))
    @example(_HEADER + '"p\r\nq",1,2\r"x""y",3,4\r\n\r\n"x""y",5,6', 1, 3)
    def test_texts_load_as_the_row_parser_reads_them(
            self, tmp_path_factory, text, block, workers):
        f = tmp_path_factory.mktemp("blocks") / "d.csv"
        f.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            reference = _load_by(f, mp, "rows")
            mp.setattr(oio, "_BLOCK_BYTES", block)
            mp.setattr(oio, "_FORK_BYTES", 0)
            mp.setattr(oio, "_workers", lambda: workers)
            _assert_identical(_load_by(f, mp, "columns"), reference)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 16, 1 << 20])
    def test_quote_inside_a_cell_is_read_by_row(self, tmp_path, monkeypatch,
                                                workers, block):
        """A `"` inside an unquoted cell is a character to numpy and to the
        csv module, but counting it would take the quoted line end after it
        for a record end; the row parser reads such a file."""
        f = tmp_path / "d.csv"
        f.write_text('location_id,observed,predicted,note\n'
                     'x"y,1,2,a\nB,3,4,"p\nC,5,6,q"\nD,7,8,z\n')
        reference = _load_by(f, monkeypatch, "rows")
        assert reference.location_ids == ('x"y', "B", "D")
        monkeypatch.setattr(oio, "_BLOCK_BYTES", block)
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_workers", lambda: workers)
        rows = []
        read_rows = oio._read_rows

        def spy(*args):
            rows.append(True)
            return read_rows(*args)

        monkeypatch.setattr(oio, "_read_rows", spy)
        _assert_identical(load_csv(f), reference)
        assert rows == [True]

    @given(st.lists(st.sampled_from([b"a", b",", b'"', b"\r", b"\n"]),
                    max_size=30).map(b"".join), st.booleans())
    def test_last_end_is_the_last_line_end_outside_quotes(self, data, odd):
        """_last_end gives one past the last CR or LF with an even count
        of `"` before it, counted from a start at parity odd, and the
        parity at data's end."""
        ends = [i + 1 for i in range(len(data)) if data[i:i + 1] in b"\r\n"
                and (odd + data[:i].count(b'"')) % 2 == 0]
        assert oio._last_end(data, odd) == (
            ends[-1] if ends else 0, (odd + data.count(b'"')) % 2 == 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stray_quote_in_a_large_file_reaches_the_row_parser_in_time(
            self, tmp_path, monkeypatch, workers):
        """After a `"` inside an unquoted cell, the quote count takes no
        line end for a record end; the search for one looks at each byte a
        bounded number of times, so a file of several blocks reaches the
        row parser in about the time the row parser takes."""
        rng = np.random.default_rng(2)
        f = tmp_path / "d.csv"
        write_dataset_csv(validate_dataset({
            f"L{i}": tuple(rng.lognormal(0.0, 1.0, (2, 3000)))
            for i in range(40)}), f)
        data = f.read_bytes()
        at = data.index(b"\nL1,") + 1
        f.write_bytes(data[:at] + b'x"y' + data[at + 2:])
        assert len(data) > 4 * oio._BLOCK_BYTES
        start = time.perf_counter()
        reference = _load_by(f, monkeypatch, "rows")
        row_seconds = time.perf_counter() - start
        assert reference.location_ids[:3] == ("L0", 'x"y', "L1")
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_workers", lambda: workers)
        rows = []
        read_rows = oio._read_rows

        def spy(*args):
            rows.append(True)
            return read_rows(*args)

        monkeypatch.setattr(oio, "_read_rows", spy)
        start = time.perf_counter()
        loaded = load_csv(f)
        seconds = time.perf_counter() - start
        _assert_identical(loaded, reference)
        assert rows == [True]
        assert seconds < 3 * row_seconds + 1.0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 64, 1 << 20])
    def test_quoted_file_streams_the_loaded_frames(self, tmp_path,
                                                   monkeypatch, workers,
                                                   block):
        """split_csv folds a grouped file whose ids are quoted, in sample,
        to the location frames of the dataset load_csv reads, bit for bit,
        without gathering its pairs."""
        rng = np.random.default_rng(5)
        f = tmp_path / "d.csv"
        write_dataset_csv(validate_dataset({
            loc: tuple(rng.lognormal(0.0, 1.0, (2, size)))
            for loc, size in [("a,b", 3), ('say "x"', 9), ("p\r\nq", 2),
                              ("r\rs", 5), ("t\nu", 4), ("v", 7)]
        }), f)
        specs = list(CATALOG.values())
        loaded = _ids_and_frames(specs, load_csv(f))
        monkeypatch.setattr(oio, "_BLOCK_BYTES", block)
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_workers", lambda: workers)
        monkeypatch.setattr(oio, "_laid_out", _no_gather)
        streamed, _ = oio.split_csv(f, SplitSpec("none"),
                                    partial(_ids_and_frames, specs))
        assert _frame_columns(streamed) == _frame_columns([loaded])


def _ids_and_frames(specs, part):
    """part's location ids and location frames."""
    return part.location_ids, location_frames(specs, part)


def _frame_columns(blocks):
    """The location ids of blocks of _ids_and_frames, and each transform's
    frame columns and failed locations, over all blocks."""
    ids = [i for block_ids, _ in blocks for i in block_ids]
    columns = {}
    for _, frames in blocks:
        for kind, frame in frames.items():
            cols = columns.setdefault(kind, {"errors": {}})
            for name, col in [("n", frame.n), ("log_jacobian",
                                                 frame.log_jacobian),
                              ("n1", frame.n1), ("n2", frame.n2),
                              *frame.statistic.items()]:
                cols[name] = cols.get(name, b"") + col.tobytes()
            cols["errors"].update((i, str(error))
                                  for i, error in frame.errors.items())
    return ids, columns


def _main(argv):
    """cli.main(argv): exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _rank(path, fmt="json", objectives="all", split="none", seed=0):
    """rank's argv for the file at path."""
    return ["rank", "--input", path, "--format", fmt, "--objectives",
            objectives, "--split", split, "--seed", seed]


def _cli_both(argv, mp, workers, block=8):
    """cli.main(argv)'s exit code, stdout and stderr with its input loaded
    whole by load_csv, its values checked by the Dataset that load builds
    rather than by the reader; the same with its input read by read_csv in
    `workers` ranges of blocks of `block` bytes; and whether read_csv
    handed the command a layout, once, and nothing else."""
    # Each command imports these from io when it runs.
    read_csv, split_csv = oio.read_csv, oio.split_csv

    def load(path):
        # load_csv reads through io.read_csv, which this side replaces.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(oio, "read_csv", read_csv)
            m.setattr(oio, "_check_finite", lambda *args: None)
            return load_csv(path)

    mp.setattr(oio, "read_csv", lambda path, use, stamps=False: use(
        load(path)))
    mp.setattr(oio, "split_csv", lambda path, spec, reduce: split_blocks(
        load(path), spec, reduce))
    loaded = _main(argv)
    sources = []

    def spy(path, use, stamps=False):
        def seen(data):
            sources.append(type(data))
            return use(data)
        return read_csv(path, seen, stamps)

    mp.setattr(oio, "read_csv", spy)
    mp.setattr(oio, "split_csv", split_csv)
    mp.setattr(oio, "_BLOCK_BYTES", block)
    mp.setattr(oio, "_FORK_BYTES", 0)
    mp.setattr(oio, "_workers", lambda: workers)
    return loaded, _main(argv), sources == [Layout]


class TestStreamedRank:
    """rank --split none folds a grouped file's spooled numbers a block of
    whole locations at a time; its report, or its error and exit code, is
    that of the whole read."""

    # NSE fails on most of these small files; MSE, MAE and U rank them.
    @pytest.mark.parametrize("objectives", ["all", "MSE,MAE,U"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(_LOADER_CASES))
    def test_loader_cases(self, case, workers, objectives, tmp_path,
                          monkeypatch):
        f = tmp_path / "d.csv"
        f.write_bytes(_LOADER_CASES[case][0].encode("utf-8"))
        whole, streamed, took_stream = _split_both(
            f, monkeypatch, "none", workers, objectives=objectives)
        # Every file that reads, grouped or not, is handed on as a layout.
        assert streamed == whole and took_stream

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_formats(self, fmt, tmp_path, monkeypatch):
        model = SyntheticModel("multiplicative-log-laplace", 0.5,
                               zero_inflation_rate=0.05, n_per_location=9,
                               n_locations=5, seed=4)
        f = tmp_path / "d.csv"
        write_dataset_csv(generate(model)[0], f)
        for workers in (1, 2, 3):
            whole, streamed, took_stream = _split_both(f, monkeypatch,
                                                       "none", workers, fmt)
            assert whole[0] == 0 and streamed == whole and took_stream

    # The files of TestLoaderEquivalence.test_random_files_match_row_parser.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["A", " A", "A ", "B", "#b", '"c,d"', '"e""f"']),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(["", "\n", "\r\n"]),
        ),
        min_size=1, max_size=40,
    ), st.sampled_from([1, 2, 3]))
    def test_random_files(self, tmp_path_factory, rows, workers):
        f = tmp_path_factory.mktemp("rank") / "d.csv"
        f.write_text(_HEADER + "".join(
            f"{loc},{o!r},{p!r}\n{gap}" for loc, o, p, gap in rows
        ), newline="")
        # Extreme floats overflow; numpy's warnings are not what is compared.
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole, streamed, _ = _split_both(f, mp, "none", workers)
        assert streamed == whole

    @pytest.mark.parametrize("body", [
        _HEADER + "A,1,2\nA,3,5\nB,x,3\n",
        _HEADER + "A,1,2\nA,3,5\n\nB,3\n",
        "location_id,observed,predicted,timestamp\nA,1,2,t1\nA,3,4\n",
        _HEADER + "A,1,2\nA,3,5\nB,nan,3\nB,1,1\n",
        _HEADER + "A,1,2\nA,3,5\nB,\udcff1,3\n",
    ], ids=["number", "short row", "short of a timestamp", "nan",
            "not utf-8"])
    def test_malformed_files_are_the_whole_reads_errors(self, body, tmp_path,
                                                       monkeypatch):
        """What numpy rejects is read by the row parser, which raises; a
        NaN is parsed and raises as the file is read. Either way the
        command is handed nothing."""
        f = tmp_path / "d.csv"
        f.write_bytes(body.encode("utf-8", "surrogateescape"))
        whole, streamed, took_stream = _split_both(f, monkeypatch, "none", 2)
        assert streamed == whole and not took_stream
        assert whole[0] == 2 and whole[2].startswith("error: ")

    def test_no_data_rows_is_the_whole_reads_error(self, tmp_path,
                                                   monkeypatch):
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "\n\r\n")
        whole, streamed, took_stream = _split_both(f, monkeypatch, "none", 2)
        assert streamed == whole and not took_stream
        assert whole[0] == 2 and "has a header but no data rows" in whole[2]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("largest", [9, 10, 30])
    def test_large_location_is_read_whole(self, largest, workers, tmp_path,
                                          monkeypatch):
        """A location of more than _BLOCK_PAIRS pairs is read whole, as a
        block of its own, whichever ranges parse it; the other blocks hold
        whole locations up to _BLOCK_PAIRS pairs."""
        monkeypatch.setattr(odata, "_BLOCK_PAIRS", 9)
        rng = np.random.default_rng(largest)
        f = tmp_path / "d.csv"
        write_dataset_csv(validate_dataset({
            loc: tuple(rng.lognormal(0.0, 1.0, (2, size)))
            for loc, size in [("A", 3), ("B", largest), ("C", 2), ("D", 5)]
        }), f)
        blocks = []
        frames = olikelihoods.location_frames

        def spy(specs, block, **kwargs):
            blocks.append(block.location_ids)
            return frames(specs, block, **kwargs)

        monkeypatch.setattr(olikelihoods, "location_frames", spy)
        whole, streamed, took_stream = _split_both(
            f, monkeypatch, "none", workers, objectives="MSE,MAE,U")
        assert whole[0] == 0 and streamed == whole and took_stream
        # The loaded file is blocked as the fold is, which follows it.
        assert blocks == [("A",), ("B",), ("C", "D")] * 2


    def test_large_location_is_parsed_once(self, tmp_path, monkeypatch):
        """A location of more than _BLOCK_PAIRS rows is parsed by numpy
        once: two loadtxt calls, for the ids and the numbers, of its one
        block of bytes."""
        monkeypatch.setattr(oio, "_workers", lambda: 1)
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "".join(f"A,{i % 7 + 1},{i % 5 + 1}\n"
                                       for i in range(odata._BLOCK_PAIRS + 9)))
        blocks, loadtxt = [], np.loadtxt
        parse_blocks = oio._parse_blocks

        def counting(*args, **kwargs):
            for block in parse_blocks(*args, **kwargs):
                blocks.append(block)
                yield block

        def spy(*args, **kwargs):
            calls.append(True)
            return loadtxt(*args, **kwargs)

        calls = []
        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(oio, "_parse_blocks", counting)
        code, out, err = _main(_rank(f, objectives="MSE,MAE"))
        assert (code, err) == (0, "") and json.loads(out)["rows"]
        assert f.stat().st_size < oio._BLOCK_BYTES
        assert (len(blocks), len(calls)) == (1, 2)

    def test_stray_quote_is_parsed_by_block_once(self, tmp_path,
                                                 monkeypatch):
        """A `"` inside an unquoted cell sends the file to the row parser
        after one attempt to read its block's lines."""
        monkeypatch.setattr(oio, "_workers", lambda: 1)
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + 'x"y,1,2\nx"y,3,5\nB,2,3\nB,1,4\n')
        attempts, rows = [], []
        lines, read_rows = oio._lines, oio._read_rows
        monkeypatch.setattr(oio, "_lines", lambda text: attempts.append(
            True) or lines(text))
        monkeypatch.setattr(oio, "_read_rows", lambda *args: rows.append(
            True) or read_rows(*args))
        code, out, err = _main(_rank(f, objectives="MSE,MAE"))
        assert (code, err) == (0, "") and json.loads(out)["rows"]
        assert attempts == rows == [True]


def _split_both(path, mp, split, workers, fmt="json", seed=0,
                objectives="all", block=8):
    """rank --split's output on path loaded whole and split; its output
    split from the spooled numbers, read in `workers` ranges of blocks of
    `block` bytes; and whether that split folded a layout without
    loading (see _cli_both)."""
    return _cli_both(_rank(path, fmt, objectives, split, seed), mp, workers,
                     block)


_SPLITS = ["none", "random:0.3", "random:0.8", "location:0.5"]


class TestSpooledSplit:
    """rank --split random|location, and the in-sample fallback, fold a
    grouped file's spooled numbers a block of whole locations at a time;
    the report, or the error and exit code, is that of the loaded file
    split."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.sampled_from(_SPLITS), st.integers(0, 3), st.integers(1, 3),
           st.integers(1, 64), st.sampled_from(["json", "csv", "table"]),
           st.sampled_from(["all", "MSE,MAE,U,MSLE,ZMALE"]),
           st.integers(0, 2 ** 32 - 1))
    @example([3, 7, 2, 9, 1, 6], "location:0.5", 1, 3, 5, "csv",
             "MSE,MAE,U,MSLE,ZMALE", 7)
    @example([3, 7, 2, 9, 1, 6], "random:0.3", 2, 2, 1, "table", "all", 8)
    def test_grouped_files(self, tmp_path_factory, sizes, split, seed,
                           workers, block, fmt, objectives, draw):
        """Locations above and below a block of 5 pairs, so that blocks
        hold one location or several, read from spools in chunks of 3.
        NSE fails on a location of one pair; the other objectives rank
        most of these files."""
        rng = np.random.default_rng(draw)
        ids = ["A", 'q"x', "c,d", "B", " e", "F"]
        f = tmp_path_factory.mktemp("split") / "d.csv"
        obs, pred = rng.lognormal(0.0, 1.0, (2, sum(sizes)))
        obs[rng.random(obs.size) < 0.1] = 0.0
        bounds = np.cumsum([0, *sizes])
        write_dataset_csv(validate_dataset({
            ids[i]: (obs[lo:hi], pred[lo:hi]) for i, (lo, hi)
            in enumerate(zip(bounds[:-1], bounds[1:]))}), f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(odata, "_BLOCK_PAIRS", 5)
            mp.setattr(oio, "_READ_PAIRS", 3)
            loaded, spooled, folded = _split_both(f, mp, split, workers, fmt,
                                                  seed, objectives, block)
        assert spooled == loaded
        assert folded or loaded[0] == 2

    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("body", [
        _HEADER + "A,1,2\nA,3,5\nB,x,3\n",
        _HEADER + "A,1,2\nA,3,5\n\nB,3\n",
        _HEADER + "A,1,2\nA,1_000,5\nB,2,3\nB,4,1\n",
        _HEADER + "A,1,2\nA,3,5\nB,\udcff1,3\n",
        _HEADER,
        _HEADER + "\n\r\n",
    ], ids=["number", "short row", "underscore digits", "not utf-8",
            "header only", "no data rows"])
    def test_pinned_files(self, body, split, tmp_path, monkeypatch):
        """A file numpy rejects is read by the row parser, and what it
        reads is split as a layout; its error, or its report, is the
        load's."""
        f = tmp_path / "d.csv"
        f.write_bytes(body.encode("utf-8", "surrogateescape"))
        loaded, spooled, folded = _split_both(f, monkeypatch, split, 2,
                                              objectives="MSE,MAE,U")
        assert spooled == loaded and folded == ("1_000" in body)
        assert loaded[0] == (0 if "1_000" in body else 2)

    @pytest.mark.parametrize("split", ["random:0.1", "location:0.1"])
    def test_load_error_before_an_empty_side(self, split, tmp_path,
                                             monkeypatch):
        """Where the held-out mask would leave a side empty, the error
        about a NaN comes first: the file is checked as it is read, before
        the mask is drawn, as the load checks it."""
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "A,1,2\nA,3,5\nB,nan,3\nB,1,1\n")
        loaded, spooled, _ = _split_both(f, monkeypatch, split, 2)
        assert spooled == loaded
        assert loaded[0] == 2 and "NaN" in loaded[2]

    @pytest.mark.parametrize("split", _SPLITS)
    def test_nan_in_a_later_block(self, split, tmp_path, monkeypatch):
        """A NaN in a block after the first raises the load's error, naming
        the first location that holds one, before the split."""
        monkeypatch.setattr(odata, "_BLOCK_PAIRS", 2)
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "A,1,2\nA,3,5\nB,2,3\nB,1,1\n"
                     "C,inf,1\nC,2,2\nD,nan,3\nD,1,1\n")
        loaded, spooled, folded = _split_both(f, monkeypatch, split, 2)
        assert spooled == loaded and not folded
        assert loaded[0] == 2 and "'C' contains NaN" in loaded[2]

    @pytest.mark.parametrize("split", ["random:0.3", "location:0.5"])
    def test_nan_names_the_files_first_location(self, split, tmp_path):
        """A grouped file of two locations, with a NaN in a held-out pair
        of A and one in a kept pair of B: the split names 'A', as the load
        does, though the train side, without A's NaN, is built first."""
        mode, fraction = split.split(":")
        rows = [[loc, i % 4 + 1.0, i % 3 + 1.0]
                for loc in "AB" for i in range(10)]
        finite = validate_dataset({loc: ([r[1] for r in rows[k:k + 10]],
                                         [r[2] for r in rows[k:k + 10]])
                                   for loc, k in (("A", 0), ("B", 10))})
        for seed in range(100):
            held = odata._test_mask(finite, SplitSpec(mode, float(fraction),
                                                      seed))
            in_a = np.flatnonzero(held[:10])
            in_b = 10 + np.flatnonzero(~held[10:])
            if in_a.size and in_b.size:
                break
        rows[in_a[0]][1] = rows[in_b[0]][2] = math.nan
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "".join(f"{loc},{o!r},{p!r}\n"
                                       for loc, o, p in rows))
        with pytest.raises(NonFiniteValue, match="location 'A'"):
            load_csv(f)
        code, out, err = _main(_rank(f, objectives="MSE,MAE,U", split=split,
                                     seed=seed))
        assert (code, out) == (2, "")
        assert err == "error: location 'A' contains NaN or infinite values\n"

    @pytest.mark.parametrize("split", [*_SPLITS, "time:0.5"])
    @pytest.mark.parametrize("body", [
        _HEADER + "A,1,2\nB,3,5\nA,2,3\nB,1,1\n",
        "timestamp," + _HEADER + "2020-01-02,A,1,2\n2020-01-01,A,3,5\n"
        "2020-01-01,B,2,3\n2020-01-02,B,1,1\n",
        _HEADER + "A,1,2\nA,3,5\nB,2,3\nB,1,1\n",
    ], ids=["ungrouped", "timestamped", "grouped"])
    def test_what_is_loaded(self, body, split, tmp_path, monkeypatch):
        """Every file is split as a layout: an ungrouped one gathered by
        location, a timestamped one with its stamps where a split by time
        reads them."""
        f = tmp_path / "d.csv"
        f.write_text(body)
        loaded, spooled, folded = _split_both(f, monkeypatch, split, 2,
                                              objectives="MSE,MAE,U")
        assert spooled == loaded and folded


    @pytest.mark.parametrize("split", [*_SPLITS, "time:0.5"])
    def test_stamps_are_kept_for_a_time_split_only(self, split, tmp_path,
                                                   monkeypatch):
        """The workers parse every timestamp, but send them only to a time
        split; every split folds the file."""
        kept = []
        load_range = oio._load_range

        def spy(*args):
            blocks = load_range(*args)
            kept.append({stamps is not None for _, _, stamps, _ in blocks})
            return blocks

        monkeypatch.setattr(oio, "_load_range", spy)
        f = tmp_path / "d.csv"
        f.write_text("timestamp," + _HEADER + "".join(
            f"2020-01-{day:02d},{loc},{day},{day % 3 + 1}\n"
            for loc in "ABC" for day in range(1, 9)))
        # One worker parses in this process, where the spy sees it.
        loaded, spooled, folded = _split_both(f, monkeypatch, split, 1,
                                              objectives="MSE,MAE,U")
        assert loaded[0] == 0 and spooled == loaded and folded
        # The loaded path's read, then the spooled one's blocks.
        assert kept == [{True}, {split == "time:0.5"}]

    @pytest.mark.parametrize("split", [*_SPLITS, "time:0.5"])
    def test_record_without_its_timestamp(self, split, tmp_path,
                                          monkeypatch):
        """A record that lacks its timestamp cell is the load's
        line-numbered error, though no stamp is kept."""
        f = tmp_path / "d.csv"
        f.write_text("location_id,observed,predicted,timestamp\n"
                     "A,1,2,2020-01-01\nA,3,4,2020-01-02\nB,5,6\n")
        loaded, spooled, folded = _split_both(f, monkeypatch, split, 2)
        assert spooled == loaded and not folded
        assert loaded[0] == 2 and "line 4: row has too few columns" in (
            loaded[2])


# correlate, and convergence with and without --bootstrap, as argv after
# --input: --objectives, --format and --seed are appended.
_DIAGNOSE = {
    "correlate": ["correlate"],
    "convergence": ["convergence", "--sizes", "1,5", "--replicates", "2"],
    "bootstrap": ["convergence", "--sizes", "1,5", "--replicates", "2",
                  "--bootstrap"],
}


def _diagnose(command, path, fmt="json", objectives="MSE,MAE,U", seed=0):
    argv = [*_DIAGNOSE[command][:1], "--input", path,
            *_DIAGNOSE[command][1:], "--format", fmt,
            "--objectives", objectives]
    return argv + ["--seed", seed] if command != "correlate" else argv


class TestFoldedDiagnostics:
    """correlate and convergence read a grouped file's spooled numbers, as
    rank does; the report, or the error and exit code, is that of the
    loaded file."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.sampled_from(sorted(_DIAGNOSE)), st.integers(0, 3),
           st.integers(1, 3), st.integers(1, 64),
           st.sampled_from(["json", "csv", "table"]),
           st.sampled_from(["all", "MSE,MAE,U,MSLE,ZMALE"]),
           st.integers(0, 2 ** 32 - 1))
    @example([3, 7, 2, 9, 1, 6], "bootstrap", 1, 3, 5, "csv",
             "MSE,MAE,U,MSLE,ZMALE", 7)
    @example([3, 7, 2, 9, 1, 6], "correlate", 2, 2, 1, "table", "all", 8)
    @example([3, 7, 2, 9, 1, 6], "convergence", 3, 2, 9, "json", "all", 9)
    def test_grouped_files(self, tmp_path_factory, sizes, command, seed,
                           workers, block, fmt, objectives, draw):
        """TestSpooledSplit's files: blocks of whole locations of up to 5
        pairs, spool reads of 3 pairs, and draws read 2 pairs at a time."""
        rng = np.random.default_rng(draw)
        ids = ["A", 'q"x', "c,d", "B", " e", "F"]
        f = tmp_path_factory.mktemp("diagnose") / "d.csv"
        obs, pred = rng.lognormal(0.0, 1.0, (2, sum(sizes)))
        obs[rng.random(obs.size) < 0.1] = 0.0
        bounds = np.cumsum([0, *sizes])
        write_dataset_csv(validate_dataset({
            ids[i]: (obs[lo:hi], pred[lo:hi]) for i, (lo, hi)
            in enumerate(zip(bounds[:-1], bounds[1:]))}), f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(odata, "_BLOCK_PAIRS", 5)
            mp.setattr(odata, "_TAKE_PAIRS", 2)
            mp.setattr(oio, "_READ_PAIRS", 3)
            loaded, spooled, folded = _cli_both(
                _diagnose(command, f, fmt, objectives, seed), mp, workers,
                block)
        assert spooled == loaded and folded

    @pytest.mark.parametrize("command", sorted(_DIAGNOSE))
    @pytest.mark.parametrize("body", [
        _HEADER + "A,1,2\nA,3,5\nB,x,3\n",
        _HEADER + "A,1,2\nA,3,5\n\nB,3\n",
        _HEADER + "A,1,2\nA,1_000,5\nB,2,3\nB,4,1\nB,3,2\n",
        _HEADER + "A,1,2\nA,3,5\nB,\udcff1,3\n",
        _HEADER,
        _HEADER + "\n\r\n",
    ], ids=["number", "short row", "underscore digits", "not utf-8",
            "header only", "no data rows"])
    def test_pinned_files(self, body, command, tmp_path, monkeypatch):
        """A file numpy rejects is read by the row parser, and what it
        reads is handed on as a layout; its error, or its report, is the
        load's."""
        f = tmp_path / "d.csv"
        f.write_bytes(body.encode("utf-8", "surrogateescape"))
        loaded, spooled, folded = _cli_both(_diagnose(command, f), monkeypatch,
                                            2)
        assert spooled == loaded and folded == ("1_000" in body)
        assert loaded[0] == (0 if "1_000" in body else 2)

    @pytest.mark.parametrize("command", sorted(_DIAGNOSE))
    def test_nan_in_a_later_block(self, command, tmp_path, monkeypatch):
        """A NaN in a block after the first raises the load's error, naming
        the first location that holds one, before the command runs."""
        monkeypatch.setattr(odata, "_BLOCK_PAIRS", 2)
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "A,1,2\nA,3,5\nB,2,3\nB,1,1\n"
                     "C,inf,1\nC,2,2\nD,nan,3\nD,1,1\n")
        loaded, spooled, folded = _cli_both(_diagnose(command, f), monkeypatch,
                                            2)
        assert spooled == loaded and not folded
        assert loaded[0] == 2 and "'C' contains NaN" in loaded[2]

    @pytest.mark.parametrize("command", ["convergence", "bootstrap"])
    def test_nan_that_no_draw_picks(self, command, tmp_path, monkeypatch):
        """Every value is checked as the file is read, so a NaN that no
        draw reads fails the command, as it fails the load."""
        monkeypatch.setattr(odata, "_BLOCK_PAIRS", 4)
        argv = _diagnose(command, tmp_path / "d.csv")
        sizes = argv.index("--sizes") + 1
        argv[sizes:sizes + 3] = ["2", "--replicates", "1"]
        # The positions the seed draws, replaced or not, of 12 pairs.
        drawn = np.random.default_rng(0).choice(
            12, size=2, replace=command == "bootstrap")
        nan = min(set(range(12)) - set(drawn.tolist()))
        values = [f"{i % 5 + 1},{i % 3 + 1}" for i in range(12)]
        values[nan] = "nan,1"
        (tmp_path / "d.csv").write_text(_HEADER + "".join(
            f"{'ABC'[i // 4]},{v}\n" for i, v in enumerate(values)))
        loaded, spooled, folded = _cli_both(argv, monkeypatch, 2)
        assert spooled == loaded and not folded
        assert loaded[0] == 2 and "contains NaN" in loaded[2]

    @pytest.mark.parametrize("command", sorted(_DIAGNOSE))
    def test_timestamped_file_is_folded(self, command, tmp_path,
                                        monkeypatch):
        """A grouped file with a timestamp column is folded; its stamps are
        not read."""
        f = tmp_path / "d.csv"
        f.write_text("timestamp," + _HEADER + "".join(
            f"2020-01-{day:02d},{loc},{day},{day % 3 + 1}\n"
            for loc in "ABC" for day in range(1, 9)))
        loaded, spooled, folded = _cli_both(_diagnose(command, f), monkeypatch,
                                            2)
        assert loaded[0] == 0 and spooled == loaded and folded

    @pytest.mark.parametrize("command", sorted(_DIAGNOSE))
    def test_grouped_file_is_never_loaded(self, command, tmp_path,
                                          monkeypatch):
        """Neither command calls load_csv on a grouped file, nor gathers
        its spooled numbers."""
        model = SyntheticModel("multiplicative-log-laplace", 0.5,
                               zero_inflation_rate=0.05, n_per_location=20,
                               n_locations=6, seed=4)
        f = tmp_path / "d.csv"
        write_dataset_csv(generate(model)[0], f)

        def forbidden(*args):
            raise AssertionError("the file was loaded")

        monkeypatch.setattr(oio, "load_csv", forbidden)
        monkeypatch.setattr(oio, "_laid_out", _no_gather)
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_workers", lambda: 2)
        code, out, err = _main(_diagnose(command, f))
        assert (code, err) == (0, "") and json.loads(out)["rows"]


class TestNonFiniteValues:
    """A NaN or infinite value anywhere in a file fails every split and
    command as it fails the load, before the command is handed the file:
    the same exit code, stdout and stderr, naming the first location that
    holds one."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 71), st.integers(0, 1),
                              st.sampled_from([math.nan, math.inf,
                                               -math.inf])), max_size=3),
           st.sampled_from([*_SPLITS, "time:0.5", *sorted(_DIAGNOSE)]),
           st.booleans(), st.integers(0, 3), st.integers(1, 3),
           st.integers(1, 64), st.sampled_from([5, 1 << 16]),
           st.integers(0, 2 ** 32 - 1))
    # Seed 0 holds out pair 2, of A, and keeps pair 5, of q"x, which the
    # train side of the one block reads first.
    @example([3, 7, 2, 9, 1, 6], [(2, 0, math.nan), (5, 1, math.inf)],
             "random:0.3", False, 0, 2, 5, 1 << 16, 8)
    @example([3, 7, 2, 9, 1, 6], [(12, 1, -math.inf), (2, 0, math.nan)],
             "time:0.5", True, 1, 3, 7, 5, 3)
    @example([3, 7, 2], [(11, 0, math.nan)], "bootstrap", False, 0, 2, 9, 5,
             1)
    def test_drawn_positions(self, tmp_path_factory, sizes, bad, command,
                             stamped, seed, workers, block, block_pairs,
                             draw):
        """TestSpooledSplit's files, stamped for a split by time, with
        NaN and infinite values at drawn positions, split in blocks of
        whole locations of up to 5 pairs or in one block."""
        rng = np.random.default_rng(draw)
        ids = ["A", 'q"x', "c,d", "B", " e", "F"]
        n = sum(sizes)
        pairs = rng.lognormal(0.0, 1.0, (2, n))
        pairs[0, rng.random(n) < 0.1] = 0.0
        for at, row, value in bad:
            pairs[row, at % n] = value
        bounds = np.cumsum([0, *sizes])
        locations = np.repeat(ids[:len(sizes)], sizes).tolist()
        stamps = (np.datetime64("2020-01-01T00") + rng.permutation(n)).astype(
            str).tolist()
        f = tmp_path_factory.mktemp("nonfinite") / "d.csv"
        stamped = stamped or command == "time:0.5"
        with f.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["timestamp"] * stamped + [
                "location_id", "observed", "predicted"])
            writer.writerows(
                [stamp] * stamped + [loc, o, p] for stamp, loc, o, p
                in zip(stamps, locations, *pairs.tolist()))
        argv = (_diagnose(command, f, seed=seed) if command in _DIAGNOSE
                else _rank(f, objectives="MSE,MAE,U", split=command,
                           seed=seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(odata, "_BLOCK_PAIRS", block_pairs)
            mp.setattr(odata, "_TAKE_PAIRS", 2)
            mp.setattr(oio, "_READ_PAIRS", 3)
            loaded, spooled, folded = _cli_both(argv, mp, workers, block)
        assert spooled == loaded
        finite = np.isfinite(pairs).all(axis=0)
        if not finite.all():
            first = ids[int(np.searchsorted(bounds, np.argmin(finite),
                                            "right")) - 1].strip()
            assert loaded == (2, "", f"error: location {first!r} contains "
                              "NaN or infinite values\n")
            assert not folded


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _killed_in_child(original):
    """original, except that in a forked child it kills its own process."""
    parent = os.getpid()

    def run(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args)
    return run


class TestWorkerLifecycle:
    """A forked worker never outlives the read or write that started it."""

    @pytest.fixture(autouse=True)
    def _fork_everything(self, monkeypatch):
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_CHUNK_ROWS", 1)
        monkeypatch.setattr(oio, "_workers", lambda: 3)

    def test_killed_id_reader_is_an_error(self, tmp_path, monkeypatch):
        """A child that reads a range of records, ids and numbers, is
        killed before it sends them."""
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "A,1,2\nB,3,4\n")
        monkeypatch.setattr(oio, "_load_range",
                            _killed_in_child(oio._load_range))
        with pytest.raises(ChildProcessError, match=(
                r"^worker process \d+ was killed by signal 9 before it "
                r"sent its result$")):
            load_csv(f)
        _assert_no_child_left()

    def test_killed_row_writer_is_an_error(self, tmp_path, monkeypatch):
        ds = Dataset(("A", "B"), [0, 2, 3], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        monkeypatch.setattr(oio, "_write_rows",
                            _killed_in_child(oio._write_rows))
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            write_dataset_csv(ds, tmp_path / "d.csv")
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_parent_error_kills_a_running_child(self, tmp_path, monkeypatch,
                                                error):
        """The children's range writes would take a minute; this process's
        own range write, the first range of a write, fails at once, and the
        children are killed and reaped without waiting."""
        ds = Dataset(("A", "B"), [0, 2, 3], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        parent = os.getpid()

        def write(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise error("range write interrupted")

        monkeypatch.setattr(oio, "_write_rows", write)
        start = time.monotonic()
        with pytest.raises(error):
            write_dataset_csv(ds, tmp_path / "d.csv")
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_first_range_error_kills_the_other_children(self, tmp_path,
                                                        monkeypatch):
        """load_csv reads every range in a child; the first range's error
        is raised here at once, and the children still reading are killed
        and reaped without waiting."""
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "A,1,2\nB,3,4\n")

        def read(path, columns, spools, stamps, cuts, k):
            if k:
                time.sleep(60)
            raise RuntimeError("range read failed")

        monkeypatch.setattr(oio, "_load_range", read)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="range read failed"):
            load_csv(f)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_child_exception_is_raised_here(self):
        """A child's exception arrives pickled, with its type and text."""
        with oio._in_child(int, "x") as result:
            with pytest.raises(ValueError, match="invalid literal"):
                result()
        _assert_no_child_left()


def test_one_worker_while_another_thread_runs():
    """A forked child keeps no thread but the one that forked it, so a lock
    held by another thread would never be released in it."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert oio._workers() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308,
                     0.30000000000000004, 1.0000000000000002,
                     1.7976931348623157e308, 123456789.01234567]),
)


def _cells(alphabet, min_size):
    """Text cells as load_csv returns them: no surrounding whitespace."""
    return st.text(alphabet + ',"\r\n ', min_size=min_size,
                   max_size=12).filter(lambda t: t == t.strip())


@st.composite
def _datasets(draw):
    n_loc = draw(st.integers(1, 3))
    ids = draw(st.lists(_cells("ABCxyz019_-.", 1),
                        min_size=n_loc, max_size=n_loc, unique=True))
    with_time = draw(st.booleans())
    bounds = [0]
    for _ in ids:
        bounds.append(bounds[-1] + draw(st.integers(1, 12)))
    n = bounds[-1]
    pairs = draw(st.lists(st.lists(_FLOATS, min_size=n, max_size=n),
                          min_size=2, max_size=2))
    ts = None
    if with_time:
        ts = draw(st.lists(_cells("0123456789-:T", 0), min_size=n, max_size=n))
    return Dataset(tuple(ids), bounds, pairs, ts)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(_datasets())
    def test_write_then_load_is_bitwise_exact(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_dataset_csv(ds, path)
        _assert_identical(load_csv(path), ds)

    @settings(max_examples=40, deadline=None)
    @given(_datasets(), st.integers(1, 5))
    @example(Dataset(("a",), [0, 2], [[1.0, 2.0], [3.0, 4.0]],
                     ("t1", "t,2")), 1)
    def test_bytes_do_not_depend_on_workers(self, tmp_path_factory, ds,
                                            chunk):
        """One, two or three workers, each range written `chunk` rows at a
        time, write the same bytes; the example has fewer rows than
        workers."""
        folder = tmp_path_factory.mktemp("w")
        written = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oio, "_CHUNK_ROWS", chunk)
            for workers in (1, 2, 3):
                mp.setattr(oio, "_workers", lambda: workers)
                write_dataset_csv(ds, folder / f"{workers}.csv")
                written.append((folder / f"{workers}.csv").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]
        assert sorted(p.name for p in folder.iterdir()) == [
            "1.csv", "2.csv", "3.csv"]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", [
        *sorted(_UNGROUPED), "quoted cr stamps", "grouped stamps"])
    def test_read_layout_writes_the_loaded_bytes(self, case, workers,
                                                 tmp_path, monkeypatch):
        """The layout read_csv reads with its stamps writes the bytes that
        load_csv's dataset writes, also where forked writers, a row each,
        read a grouped file's spools at once."""
        f = tmp_path / "d.csv"
        f.write_text(_LOADER_CASES[case][0] if case in _LOADER_CASES else
                     "timestamp," + _HEADER + "".join(
                         f"2020-01-{day:02d},{loc},{day},{day % 3 + 1}\n"
                         for loc in "ABCD" for day in range(1, 29)),
                     newline="")
        monkeypatch.setattr(oio, "_FORK_BYTES", 0)
        monkeypatch.setattr(oio, "_CHUNK_ROWS", 1)
        monkeypatch.setattr(oio, "_workers", lambda: workers)
        write_dataset_csv(load_csv(f), tmp_path / "loaded.csv")
        oio.read_csv(f, partial(write_dataset_csv, path=tmp_path / "read.csv"),
                     stamps=True)
        assert (tmp_path / "read.csv").read_bytes() == (
            tmp_path / "loaded.csv").read_bytes()

    def test_synth_round_trip_is_exact(self, tmp_path):
        model = SyntheticModel("multiplicative-log-laplace", 0.5,
                               zero_inflation_rate=0.05, n_per_location=400,
                               n_locations=3, seed=17)
        ds, _ = generate(model)
        path = tmp_path / "synth.csv"
        write_dataset_csv(ds, path)
        back = load_csv(path)
        assert back.location_ids == ds.location_ids
        np.testing.assert_array_equal(back.observed, ds.observed)
        np.testing.assert_array_equal(back.predicted, ds.predicted)


def _report():
    model = SyntheticModel("multiplicative-lognormal", 0.6,
                           zero_inflation_rate=0.04, n_per_location=600,
                           n_locations=2, seed=8)
    ds, _ = generate(model)
    estimates = [evaluate_objective(s, ds, ds) for s in CATALOG.values()]
    return rank_objectives(estimates, adjusted=True,
                           descriptions={n: s.description
                                         for n, s in CATALOG.items()})


class TestReportFormats:
    def test_csv_json_numeric_parity(self):
        """CSV and JSON carry the same numbers to 12 significant digits."""
        report = _report()
        csv_text = format_report(report, "csv")
        json_rows = json.loads(format_report(report, "json"))["rows"]
        lines = csv_text.strip().splitlines()
        header = lines[0].split(",")
        for line, jrow in zip(lines[1:], json_rows):
            cells = dict(zip(header, line.split(",")))
            for field in ("h_bits", "h_adj_bits", "weight", "loglik_nats"):
                if cells[field] == "":
                    assert jrow[field] is None
                    continue
                a, b = float(cells[field]), float(jrow[field])
                assert f"{a:.12g}" == f"{b:.12g}"

    def test_table_rounds_to_two_decimals(self):
        report = _report()
        table = format_report(report, "table")
        assert "Objective" in table and "Rank" in table
        for row in report.rows:
            assert f"{row.weight:.2f}" in table

    def test_json_is_valid_without_nan(self):
        report = _report()
        payload = json.loads(format_report(report, "json"))
        assert payload["aic_adjusted"] is True
        assert len(payload["rows"]) == 10

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
    def test_numpy_scalars_write_as_python_scalars(self, fmt, kind):
        """An estimate that holds numpy scalars writes the bytes of the one
        that holds the Python scalars they equal."""
        def report(real, integer):
            return rank_objectives([
                EntropyEstimate("A", integer(1), real(1.5), real(1.5),
                                real(-3.0), integer(2)),
                EntropyEstimate("B", integer(2), real(2.5), real(2.5))])

        numeric = (report(float, kind) if kind is np.int64
                   else report(kind, int))
        assert format_report(numeric, fmt) == format_report(
            report(float, int), fmt)

    def test_records_null_out_non_finite(self):
        est = EntropyEstimate(name="DEAD", k=1, h_bits=float("inf"),
                              h_adj_bits=float("inf"),
                              loglik_nats=float("-inf"), n_eval=5,
                              zero_likelihood=True)
        report = rank_objectives([est, EntropyEstimate(
            name="OK", k=1, h_bits=2.0, h_adj_bits=2.1)])
        rec = [r for r in report_records(report) if r["objective"] == "DEAD"][0]
        assert rec["h_bits"] is None
        assert rec["loglik_nats"] is None
        assert rec["zero_likelihood"] is True
        assert math.isfinite(rec["weight"]) and rec["weight"] == 0.0
