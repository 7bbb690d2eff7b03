"""End-to-end tests of the command-line interface."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from objentropy.cli import _build_parser, main

TABLE_ENTROPIES = """objective,k,h_bits
MSPE,1,23.54
U,1,18.17
MSE,1,11.62
NSE,1,11.20
MAE,1,9.49
MSLE,1,7.47
MARE,1,7.34
ZMSLE,2,7.18
MALE,1,7.04
ZMALE,2,6.95
"""

EXPECTED_WEIGHTS = {
    "MSPE": 0.00, "U": 0.00, "MSE": 0.01, "NSE": 0.01, "MAE": 0.04,
    "MSLE": 0.15, "MARE": 0.17, "ZMSLE": 0.19, "MALE": 0.21, "ZMALE": 0.22,
}
EXPECTED_RANKS = {
    "MSPE": 10, "U": 9, "MSE": 8, "NSE": 7, "MAE": 6,
    "MSLE": 5, "MARE": 4, "ZMSLE": 3, "MALE": 2, "ZMALE": 1,
}


def _synth(tmp_path, name="data.csv", **overrides):
    args = {
        "family": "multiplicative-log-laplace",
        "scale": "0.5",
        "zero-inflation": "0.02",
        "n-per-location": "2000",
        "locations": "2",
        "seed": "11",
    }
    args.update(overrides)
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for key, value in args.items():
        argv += [f"--{key}", value]
    assert main(argv) == 0
    return out


class TestRank:
    def test_single_objective_gets_weight_one(self, tmp_path, capsys):
        data = _synth(tmp_path)
        capsys.readouterr()
        rc = main(["rank", "--input", str(data), "--objectives", "MSE",
                   "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 1
        assert rows[0]["objective"] == "MSE"
        assert rows[0]["weight"] == pytest.approx(1.0)
        assert rows[0]["rank"] == 1

    def test_json_report_holds_only_the_ranking(self, tmp_path, capsys):
        f = tmp_path / "entropies.csv"
        f.write_text(TABLE_ENTROPIES)
        assert main(["rank", "--from-entropies", str(f),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out).keys() == {
            "aic_adjusted", "rows"}

    @pytest.mark.parametrize("base", ["bits", "nats"])
    def test_base_is_not_an_option(self, tmp_path, capsys, base):
        f = tmp_path / "entropies.csv"
        f.write_text(TABLE_ENTROPIES)
        assert main(["rank", "--from-entropies", str(f), "--base", base]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_csv_report_quotes_a_carriage_return(self, tmp_path):
        """An objective name holding a CR reads back as one csv cell."""
        f = tmp_path / "entropies.csv"
        with f.open("w", newline="") as fh:
            csv.writer(fh).writerows(
                [("objective", "h_bits"), ("a\rb", "2.5"), ("c", "3.0")])
        out = tmp_path / "report.csv"
        assert main(["rank", "--from-entropies", str(f), "--format", "csv",
                     "--out", str(out)]) == 0
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert sorted(row[0] for row in rows) == ["a\rb", "c", "objective"]

    def test_from_entropies_reproduces_reference_table(self, tmp_path, capsys):
        f = tmp_path / "entropies.csv"
        f.write_text(TABLE_ENTROPIES)
        rc = main(["rank", "--from-entropies", str(f), "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row in rows:
            name = row["objective"]
            assert round(row["weight"], 2) == EXPECTED_WEIGHTS[name]
            assert row["rank"] == EXPECTED_RANKS[name]

    def test_rank_zero_inflated_data_prefers_zmale(self, tmp_path, capsys):
        data = _synth(tmp_path, **{"n-per-location": "20000"})
        capsys.readouterr()
        rc = main(["rank", "--input", str(data), "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        top = [r for r in rows if r["rank"] == 1][0]
        assert top["objective"] == "ZMALE"

    def test_split_modes_run(self, tmp_path, capsys):
        data = _synth(tmp_path)
        for spec in ("random:0.25", "location:0.5"):
            assert main(["rank", "--input", str(data), "--split", spec,
                         "--objectives", "MSE,MAE", "--format", "csv"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("row, what", [
        ("MSE,1,abc", "cannot parse 'abc' as a number"),
        ("MSE,x,1.0", "cannot parse 'x' as a number"),
        ("MSE,1", "row has too few columns"),
        (",1,2.0", "objective is blank"),
    ])
    def test_from_entropies_rejects_bad_cells(self, tmp_path, capsys, row,
                                              what):
        f = tmp_path / "e.csv"
        f.write_text(f"objective,k,h_bits\nMAE,1,2.0\n{row}\n")
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {f} line 3: {what}\n"

    def test_from_entropies_names_the_physical_line(self, tmp_path, capsys):
        f = tmp_path / "e.csv"
        f.write_text('objective,k,h_bits\n"M\nSE",1,2.0\n\nMAE,1,abc\n')
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} line 5: cannot parse 'abc' as a number\n")

    @pytest.mark.parametrize("h", ["nan", "inf", "-inf"])
    def test_from_entropies_rejects_non_finite(self, tmp_path, capsys, h):
        f = tmp_path / "e.csv"
        f.write_text(f"objective,k,h_bits\nMAE,1,2.0\nMSE,1,{h}\n")
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} line 3: h_bits must be finite, got {float(h)}\n")

    def test_from_entropies_rejects_a_negative_k(self, tmp_path, capsys):
        f = tmp_path / "e.csv"
        f.write_text("objective,h_bits,k\nMAE,2.0,0\nMSE,3,-1\n")
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} line 3: k must be >= 0, got -1\n")

    def test_from_entropies_needs_its_columns(self, tmp_path, capsys):
        f = tmp_path / "e.csv"
        f.write_text("objective,k,h\nMSE,1,2.0\n")
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} lacks column(s) h_bits; found "
            "['objective', 'k', 'h']\n")

    @pytest.mark.parametrize("flag, body", [
        ("--input", b"location_id,observed,predicted\xff\nA,1,2\n"),
        ("--input", b"location_id,observed,predicted\nA,1,2\nB,1,\xff2\n"),
        ("--from-entropies", b"objective,k,h_bits\nMSE,1,2.0\xff\n"),
    ], ids=["header", "data row", "entropies"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, flag, body):
        f = tmp_path / "d.csv"
        f.write_bytes(body)
        assert main(["rank", flag, str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} is not UTF-8 text: cannot decode byte 0xff\n")

    def test_requires_exactly_one_input(self, tmp_path):
        data = _synth(tmp_path)
        assert main(["rank"]) == 1
        f = tmp_path / "e.csv"
        f.write_text(TABLE_ENTROPIES)
        assert main(["rank", "--input", str(data),
                     "--from-entropies", str(f)]) == 1

    def test_unknown_objective_is_usage_error(self, tmp_path, capsys):
        data = _synth(tmp_path)
        rc = main(["rank", "--input", str(data), "--objectives", "RMSE"])
        assert rc == 1
        assert "valid names" in capsys.readouterr().err

    @pytest.mark.parametrize("command, selection", [
        ("rank", "MSE,MSE,MAE"), ("correlate", "MSE,MSE"),
    ])
    def test_repeated_objective_is_usage_error(self, tmp_path, capsys,
                                               command, selection):
        """A name selected twice would split its evidence; it is refused
        before the input is read, so a missing file is not reached."""
        absent = str(tmp_path / "absent.csv")
        assert main([command, "--input", absent,
                     "--objectives", selection]) == 1
        assert capsys.readouterr().err == (
            "usage error: objective 'MSE' is selected twice\n")

    def test_from_entropies_rejects_a_repeated_objective(self, tmp_path,
                                                         capsys):
        f = tmp_path / "e.csv"
        f.write_text("objective,h_bits\nMSE,3\nMAE,2\nMSE,3\n")
        assert main(["rank", "--from-entropies", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} line 4: objective 'MSE' is listed twice\n")

    def test_missing_file_is_data_error(self, capsys):
        rc = main(["rank", "--input", "/nonexistent/x.csv"])
        assert rc == 2

    def test_failure_names_the_objective(self, tmp_path, capsys):
        f = tmp_path / "flat.csv"
        f.write_text("location_id,observed,predicted\nA,1.0,1.0\nA,2.0,2.0\n")
        rc = main(["rank", "--input", str(f), "--objectives", "MSE"])
        assert rc == 2
        assert "MSE" in capsys.readouterr().err

    def test_empty_support_names_the_objective_once(self, tmp_path, capsys):
        data = _synth(tmp_path)
        capsys.readouterr()
        rc = main(["rank", "--input", str(data), "--threshold", "1e300",
                   "--objectives", "MSE,MSLE"])
        assert (rc, capsys.readouterr().err) == (2, (
            "error: objective MSLE: no pairs above the zero-state "
            "threshold\n"))

    @pytest.mark.parametrize("flag, header, column", [
        ("--input", "location_id,observed,predicted,observed", "observed"),
        ("--input", "timestamp,location_id,observed,predicted,timestamp",
         "timestamp"),
        ("--from-entropies", "objective,h_bits,h_bits", "h_bits"),
        ("--from-entropies", "k,objective,k,h_bits", "k"),
    ])
    def test_repeated_column_is_data_error(self, tmp_path, capsys, flag,
                                           header, column):
        f = tmp_path / "d.csv"
        columns = header.split(",")
        f.write_text(f"{header}\n" + ",".join(["1"] * len(columns)) + "\n")
        assert main(["rank", flag, str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f} repeats column(s) {column}; found {columns}\n")

    def test_bad_split_is_usage_error(self, tmp_path, capsys):
        """SplitSpec's own checks run before the input is read, so a
        missing file is not reached."""
        absent = str(tmp_path / "absent.csv")
        for how in ("fancy:0.5", "random:2", "none:0.5", "none:", "random:",
                    "random:nan", "location:0", "time"):
            assert main(["rank", "--input", absent, "--split", how]) == 1, how
            assert capsys.readouterr().err.startswith("usage error:"), how

    def test_time_split_needs_timestamps(self, tmp_path):
        data = _synth(tmp_path)
        assert main(["rank", "--input", str(data), "--split", "time:0.2",
                     "--objectives", "MSE"]) == 2

    def test_time_split_runs_with_timestamps(self, tmp_path, capsys):
        f = tmp_path / "t.csv"
        rows = [
            f"2020-01-{d:02d},A,{1.0 + d / 7:.3f},{1.0 + d / 9:.3f}"
            for d in range(1, 21)
        ]
        f.write_text("timestamp,location_id,observed,predicted\n"
                     + "\n".join(rows) + "\n")
        assert main(["rank", "--input", str(f), "--split", "time:0.25",
                     "--objectives", "MSE,MAE", "--format", "csv"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("stamp", ["2020-1-2", "01/02/2020"])
    def test_time_split_rejects_non_iso_stamps(self, tmp_path, capsys, stamp):
        f = tmp_path / "t.csv"
        f.write_text("timestamp,location_id,observed,predicted\n"
                     "2020-01-01,A,1,2\n2020-01-02,A,2,1\n"
                     f"2020-01-01,B,1,2\n{stamp},B,2,1\n")
        assert main(["rank", "--input", str(f), "--split", "time:0.5",
                     "--objectives", "MSE"]) == 2
        err = capsys.readouterr().err
        assert f"location 'B' has timestamp {stamp!r}" in err

    def test_time_split_orders_offset_stamps_in_utc(self, tmp_path, capsys):
        """Stamps with a UTC offset are ordered in UTC without a warning:
        08:00Z is the latest stamp (09:00+02:00 is 07:00Z), so it alone is
        held out. MAE then fits b = (1 + 2 + 8) / 3 on the residuals of the
        other rows and scores the held-out residual 4."""
        f = tmp_path / "t.csv"
        f.write_text("timestamp,location_id,observed,predicted\n"
                     "2020-01-10T05:00Z,A,2,1\n2020-01-10T09:00+02:00,A,3,1\n"
                     "2020-01-10T08:00Z,A,5,1\n2020-01-10T06:00Z,A,9,1\n")
        rc = main(["rank", "--input", str(f), "--split", "time:0.25",
                   "--objectives", "MAE", "--format", "json"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        (row,) = json.loads(out)["rows"]
        assert row["n_eval"] == 1
        assert row["loglik_nats"] == pytest.approx(
            -math.log(2 * 11 / 3) - 4 / (11 / 3), rel=1e-12)

    @pytest.mark.parametrize("how", ["random:0.3", "time:0.1"])
    def test_nse_scoring_failure_keeps_the_ranking(self, tmp_path, capsys,
                                                   how):
        """A test side where some location has sigma_o = 0 gives NSE the
        zero-likelihood sentinel instead of ending the run."""
        rng = np.random.default_rng(6)
        lines = ["timestamp,location_id,observed,predicted"]
        for i in range(60):
            for day in range(int(rng.integers(5, 60))):
                obs, pred = rng.lognormal(1.0, 0.5, 2).tolist()
                lines.append(f"2021-{1 + day // 28:02d}-{1 + day % 28:02d},"
                             f"S{i:03d},{obs!r},{pred!r}")
        f = tmp_path / "stamped.csv"
        f.write_text("\n".join(lines) + "\n")
        rc = main(["rank", "--input", str(f), "--split", how,
                   "--format", "json"])
        assert rc == 0, capsys.readouterr().err
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 10
        nse = next(r for r in rows if r["objective"] == "NSE")
        assert (nse["weight"], nse["zero_likelihood"]) == (0.0, True)
        assert nse["rank"] > max(r["rank"] for r in rows
                                 if not r["zero_likelihood"])

    def test_every_objective_a_sentinel_is_data_error(self, tmp_path,
                                                      capsys):
        """When every objective scores zero likelihood on the held-out
        pairs, the error names them and says why."""
        f = tmp_path / "stamped.csv"
        f.write_text("timestamp,location_id,observed,predicted\n"
                     "2021-01-01,A,1,1.5\n2021-01-02,A,2,1.5\n"
                     "2021-01-03,A,5,1\n2021-01-04,A,5,1\n")
        rc = main(["rank", "--input", str(f), "--split", "time:0.5",
                   "--objectives", "NSE,U"])
        assert (rc, capsys.readouterr().err) == (2, (
            "error: every objective has zero likelihood: NSE, U; none can "
            "be ranked\n"))


class TestDeterminism:
    def test_rank_bytes_identical_across_threads_and_runs(self, tmp_path):
        data = _synth(tmp_path, **{"n-per-location": "5000"})
        outputs = []
        for run, threads in enumerate(("1", "4", None, "1")):
            out = tmp_path / f"report{run}.csv"
            argv = ["rank", "--input", str(data), "--threshold", "0.0028",
                    "--seed", "3", "--format", "csv", "--out", str(out)]
            if threads is not None:
                argv += ["--threads", threads]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    def test_synth_bytes_identical(self, tmp_path):
        a = _synth(tmp_path, name="a.csv", seed="1")
        b = _synth(tmp_path, name="b.csv", seed="1")
        assert a.read_bytes() == b.read_bytes()

    # sha256 of the CSV that synth writes for each (family, zero
    # inflation): three locations of 40 rows with their own medians.
    @pytest.mark.parametrize("family, zeros, digest", [
        ("additive-normal", "0", "7c32db952345f44a0466043dadd5ccb5"
                                 "a5610b2b05db36c86407d8e23262999e"),
        ("additive-normal", "0.1", "9c4b009f9c95358c7a4e7ee4bfbd6bcd"
                                   "d62a29ce1bb4e2477c942d637f549ae0"),
        ("additive-laplace", "0", "097ce945858ba5397b6907475e7c6780"
                                  "e63a0b63ef9257d57b0d2afe347b3e44"),
        ("additive-laplace", "0.1", "02f35e4897417dd31753252010014f67"
                                    "b494a72fdd0fa93d7d048845c77e57b5"),
        ("multiplicative-lognormal", "0", "9fbc9142ff222fc701336f233f3b2ab2"
                                          "0f98ec28738e793f862dfcc8450b67bf"),
        ("multiplicative-lognormal", "0.1",
         "cf5675f057fc05730f4a9c8c07d48cd183ccd19cdb1d54c894ee824c610781c7"),
        ("multiplicative-log-laplace", "0",
         "098a1b106e421cac47bb18f45792b9a9efd5a3f9b9b2dbd60de5ed8f1d5983ac"),
        ("multiplicative-log-laplace", "0.1",
         "f47ac58834f84486ab72d8c809130de05b21d7fe1f8202ed644b8dee5a26120a"),
    ])
    def test_synth_bytes_are_pinned(self, tmp_path, capsys, family, zeros,
                                    digest):
        """synth draws the same values, in the same order, as the
        generator that recorded these digests."""
        out = tmp_path / "s.csv"
        assert main(["synth", "--family", family, "--scale", "0.5",
                     "--zero-inflation", zeros, "--base-median",
                     "2.0,0.5,7.5", "--n-per-location", "40", "--locations",
                     "3", "--seed", "11", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The ids keep the (flag, environment cap) form they had while an
    # environment variable could also set the cap, so results compare
    # across versions.
    @pytest.mark.parametrize("flag", ["0", "-1"], ids=["0-None", "-1-None"])
    def test_bad_thread_cap_is_usage_error(self, tmp_path, capsys, flag):
        data = _synth(tmp_path, **{"n-per-location": "50"})
        capsys.readouterr()
        assert main(["rank", "--input", str(data), "--threads", flag]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("command", [
        ["rank", "--input"],
        ["convergence", "--sizes", "10", "--input"],
        ["synth", "--family", "additive-normal", "--scale", "1", "--out"],
    ], ids=["rank", "convergence", "synth"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, command, seed):
        """Checked before the input is read or the output written."""
        absent = tmp_path / "absent.csv"
        assert main(command + [str(absent), "--seed", seed]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not absent.exists()


class TestOtherCommands:
    @pytest.mark.parametrize("module", ["objentropy", "objentropy.cli"])
    def test_python_m_runs_the_cli(self, capsys, module):
        """`python -m objentropy` (or `objentropy.cli`) prints what main
        prints and exits with its code."""
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["adjust", "--center", "1", "--sigma", "0.5"]

        def run(*flags):
            return subprocess.run([sys.executable, "-m", module, *flags],
                                  capture_output=True, text=True, env=env)

        capsys.readouterr()
        assert main(argv) == 0
        ok = run(*argv)
        assert (ok.returncode, ok.stdout) == (0, capsys.readouterr().out)
        bad = run(*argv, "--sigma-typo", "1")
        assert bad.returncode == 1
        assert bad.stderr.startswith("usage error:")

    def test_adjust_example_values(self, capsys):
        capsys.readouterr()
        rc = main(["adjust", "--center", "10", "--sigma", "0.5",
                   "--format", "json"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["expectation"] == pytest.approx(11.3315, abs=1e-3)
        assert row["low"] == pytest.approx(3.7531, abs=0.01)
        assert row["high"] == pytest.approx(26.6446, abs=0.02)

    def test_adjust_additive(self, capsys):
        rc = main(["adjust", "--center", "10", "--sigma", "2",
                   "--style", "additive", "--format", "json"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["low"] == pytest.approx(6.08, abs=5e-3)
        assert row["high"] == pytest.approx(13.92, abs=5e-3)
        assert row["expectation"] == 10.0

    @pytest.mark.parametrize("center, sigma, overflows", [
        ("1e308", "30", {"expectation", "high"}), ("1", "40", {"expectation"}),
    ])
    def test_adjust_overflow_is_null(self, capsys, center, sigma, overflows):
        """Finite flags whose expectation or upper bound overflows a float
        give null in json and an empty cell in csv and the table."""
        out = {}
        for fmt in ("json", "csv", "table"):
            assert main(["adjust", "--center", center, "--sigma", sigma,
                         "--format", fmt]) == 0
            out[fmt] = capsys.readouterr().out
        row = json.loads(out["json"])["rows"][0]
        assert {key for key, v in row.items() if v is None} == overflows
        header, cells = csv.reader(io.StringIO(out["csv"]))
        assert {key for key, c in zip(header, cells) if not c} == overflows
        assert "inf" not in out["table"]

    def test_convergence_long_format(self, tmp_path, capsys):
        data = _synth(tmp_path, **{"n-per-location": "1500"})
        capsys.readouterr()
        rc = main(["convergence", "--input", str(data), "--sizes", "50,500",
                   "--replicates", "3", "--objectives", "MSE,MALE",
                   "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2 * 2 * 3  # objectives x sizes x replicates
        assert {r["objective"] for r in rows} == {"MSE", "MALE"}

    def test_convergence_failure_names_the_objective(self, tmp_path, capsys):
        # 20 draws from 25 locations leave some location with one pair,
        # whose sigma_o of 0 NSE cannot divide by.
        data = _synth(tmp_path, locations="25", **{"n-per-location": "4"})
        capsys.readouterr()
        rc = main(["convergence", "--input", str(data), "--sizes", "20",
                   "--replicates", "1", "--objectives", "MSE,NSE"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: objective NSE: sigma_o must be > 0")

    @pytest.mark.parametrize("sizes, replicates, what", [
        ("10,20", "0", "replicates must be >= 1"),
        ("20,10", "1", "sizes must be strictly increasing"),
        ("0,10", "1", "sizes must be >= 1"),
    ])
    def test_convergence_bad_draws_are_usage_errors(self, tmp_path, capsys,
                                                    sizes, replicates, what):
        """Checked before the input is read, so a missing file is not
        reached."""
        rc = main(["convergence", "--input", str(tmp_path / "absent.csv"),
                   "--sizes", sizes, "--replicates", replicates])
        assert (rc, capsys.readouterr().err) == (1, f"usage error: {what}\n")

    def test_convergence_size_beyond_data_names_no_objective(self, tmp_path,
                                                            capsys):
        data = _synth(tmp_path)
        capsys.readouterr()
        rc = main(["convergence", "--input", str(data), "--sizes", "10,5000",
                   "--objectives", "MSE,MAE"])
        assert (rc, capsys.readouterr().err) == (
            2, "error: size 5000 exceeds the 4000 available pairs\n")

    def test_correlate_pairs(self, tmp_path, capsys):
        data = _synth(tmp_path, locations="5", **{"n-per-location": "500"})
        capsys.readouterr()
        rc = main(["correlate", "--input", str(data),
                   "--objectives", "MSE,MAE,MALE", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 3  # pairs of three objectives
        names = {(r["objective_a"], r["objective_b"]) for r in rows}
        assert ("MSE", "MAE") in names

    def test_correlate_failed_cells_are_silent(self, tmp_path, capsys):
        """A flat location (sigma_o = 0) fails NSE and one with no observed
        value above the threshold fails the positive-domain objectives;
        correlate drops those cells, warns about nothing and exits 0."""
        data = tmp_path / "failing.csv"
        data.write_text(
            "location_id,observed,predicted\n"
            "A,1.5,1.2\nA,2.5,2.9\nA,0.7,0.6\nA,3.1,2.2\n"
            "FLAT,2.0,1.5\nFLAT,2.0,2.5\nFLAT,2.0,2.25\n"
            "ZERO,0,0\nZERO,0,0.5\nZERO,0.001,0\n"
            "C,4.0,3.0\nC,1.0,1.5\nC,2.5,2.0\nC,0,0.1\n")
        rc = main(["correlate", "--input", str(data), "--objectives", "all",
                   "--format", "json"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        counts = {(r["objective_a"], r["objective_b"]): r["n_locations"]
                  for r in json.loads(captured.out)["rows"]}
        assert counts[("MSE", "MAE")] == 4
        assert counts[("MSE", "NSE")] == counts[("MSE", "MSLE")] == 3
        assert counts[("NSE", "MSLE")] == 2

    def test_correlate_needs_two_objectives(self, tmp_path, capsys):
        data = _synth(tmp_path)
        rc = main(["correlate", "--input", str(data), "--objectives", "MSE"])
        assert rc == 1
        assert "two objectives" in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x"
        assert main(["adjust", "--center", "10", "--sigma", "0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_synth_reports_truth(self, tmp_path, capsys):
        _synth(tmp_path)
        truth = json.loads(capsys.readouterr().out)
        assert truth["optimal_objective"] == "ZMALE"
        assert truth["n_total"] == 4000


# Each command with valid flags that name an input which does not exist.
_VALID_FLAGS = {
    "rank": ["--input", "absent.csv"],
    "convergence": ["--input", "absent.csv", "--sizes", "10"],
    "correlate": ["--input", "absent.csv"],
    "synth": ["--family", "additive-normal", "--scale", "1"],
    "adjust": ["--center", "10", "--sigma", "0.5"],
}
_SHARED_BAD = [["--objectives", ","], ["--objectives", "RMSE"],
               ["--objectives", "MSE,MSE"], ["--threshold", "0"],
               ["--threshold", "-1"], ["--threshold", "nan"],
               ["--threshold", "inf"]]
_SEEDS_BAD = [["--seed", "-1"], ["--seed", str(2 ** 64)]]
_BAD_FLAGS = [
    *[("rank", flags) for flags in _SHARED_BAD + _SEEDS_BAD],
    *[("rank", ["--split", how]) for how in (
        "fancy:0.5", "random:2", "none:0.5", "none:", "random:",
        "random:nan", "random:x", "location:0", "time")],
    ("rank", ["--threads", "0"]), ("rank", ["--threads", "-1"]),
    ("rank", ["--from-entropies", "absent.csv"]),
    *[("convergence", flags) for flags in _SHARED_BAD + _SEEDS_BAD],
    ("convergence", ["--sizes", ","]), ("convergence", ["--sizes", "1,x"]),
    ("convergence", ["--sizes", "20,10"]), ("convergence", ["--sizes", "0,10"]),
    ("convergence", ["--replicates", "0"]),
    *[("correlate", flags) for flags in _SHARED_BAD],
    ("correlate", ["--objectives", "MSE"]),
    *[("synth", flags) for flags in _SEEDS_BAD],
    ("synth", ["--scale", "0"]), ("synth", ["--scale", "-1"]),
    ("synth", ["--n-per-location", "0"]), ("synth", ["--locations", "0"]),
    ("synth", ["--base-median", "0"]), ("synth", ["--base-median", "x"]),
    ("synth", ["--base-median", "1,2"]), ("synth", ["--zero-inflation", "1"]),
    ("synth", ["--base-log-sigma", "-1"]), ("synth", ["--family", "gamma"]),
    *[("synth", [flag, value]) for flag, value in (
        ("--scale", "inf"), ("--base-median", "nan"), ("--base-median", "inf"),
        ("--base-log-sigma", "nan"), ("--base-log-sigma", "inf"))],
    ("adjust", ["--sigma", "-1"]), ("adjust", ["--coverage", "2"]),
    ("adjust", ["--coverage", "0"]), ("adjust", ["--center", "-1"]),
    ("adjust", ["--center", "0"]), ("adjust", ["--style", "other"]),
    ("adjust", ["--sigma", "nan"]), ("adjust", ["--sigma", "inf"]),
    ("adjust", ["--center", "inf"]),
    ("adjust", ["--style", "additive", "--center", "nan"]),
]


@pytest.mark.parametrize(
    "command, flags", _BAD_FLAGS,
    ids=[" ".join([command, *flags]) for command, flags in _BAD_FLAGS])
def test_bad_flag_value_is_usage_error(tmp_path, monkeypatch, capsys,
                                       command, flags):
    """A bad value for any flag is a usage error (exit 1), found before
    any file is read or written: the input named does not exist, so reading
    it would fail as a data error, and the --out file is not created."""
    monkeypatch.chdir(tmp_path)
    argv = [command, *_VALID_FLAGS[command], *flags, "--out", "out.txt"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


def test_readme_names_exactly_the_cli_flags():
    """Every long flag the parser defines is documented, and the README
    names no other."""
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    defined = {
        option
        for command in subparsers.choices.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) == defined
