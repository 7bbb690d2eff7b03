"""Tests for CSV ingestion, dataset writing, and report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy import io as oio
from objentropy.data import Dataset
from objentropy.errors import (
    EmptyFile,
    MissingColumn,
    UndecodableFile,
    UnparseableNumber,
)
from objentropy.information import EntropyEstimate, rank_objectives
from objentropy.io import (
    format_report,
    load_csv,
    report_records,
    write_dataset_csv,
)
from objentropy.likelihoods import CATALOG, evaluate_objective
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


def _load_by(path, monkeypatch, parser):
    """load_csv forced onto one parser: "columns" fails the test if the
    columnar read gives up, "rows" skips the columnar read."""
    with monkeypatch.context() as m:
        if parser == "rows":
            m.setattr(oio, "_read_columns", _reject)
        else:
            m.setattr(oio, "_read_rows", _unexpected_fallback)
        return load_csv(path)


def _reject(*args):
    raise ValueError("columnar read disabled")


def _unexpected_fallback(*args):
    raise AssertionError("columnar read fell back to the row parser")


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
}


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

    def test_blank_data_is_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(_HEADER + "\n   \n\n")
        with pytest.raises(EmptyFile) as err:
            load_csv(f)
        assert str(err.value) == f"{f} has a header but no data rows"

    @settings(max_examples=60, deadline=None)
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
