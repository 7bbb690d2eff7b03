"""End-to-end tests of the command-line interface."""

import json
import math

import numpy as np
import pytest

from objentropy.cli import main

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

    def test_missing_file_is_data_error(self, capsys):
        rc = main(["rank", "--input", "/nonexistent/x.csv"])
        assert rc == 2

    def test_failure_names_the_objective(self, tmp_path, capsys):
        f = tmp_path / "flat.csv"
        f.write_text("location_id,observed,predicted\nA,1.0,1.0\nA,2.0,2.0\n")
        rc = main(["rank", "--input", str(f), "--objectives", "MSE"])
        assert rc == 2
        assert "MSE" in capsys.readouterr().err

    def test_bad_split_is_usage_error(self, tmp_path):
        data = _synth(tmp_path)
        assert main(["rank", "--input", str(data), "--split", "fancy:0.5"]) == 1
        assert main(["rank", "--input", str(data), "--split", "random:2"]) == 1

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

    def test_env_thread_cap_respected(self, tmp_path, monkeypatch):
        data = _synth(tmp_path)
        out1 = tmp_path / "env1.csv"
        out2 = tmp_path / "env2.csv"
        monkeypatch.setenv("OBJENTROPY_THREADS", "2")
        assert main(["rank", "--input", str(data), "--format", "csv",
                     "--out", str(out1)]) == 0
        monkeypatch.setenv("OBJENTROPY_THREADS", "1")
        assert main(["rank", "--input", str(data), "--format", "csv",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, env", [
        ("0", None), ("-1", None), (None, "abc"), (None, "0"),
    ])
    def test_bad_thread_cap_is_usage_error(self, tmp_path, monkeypatch,
                                           capsys, flag, env):
        data = _synth(tmp_path, **{"n-per-location": "50"})
        capsys.readouterr()
        monkeypatch.delenv("OBJENTROPY_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("OBJENTROPY_THREADS", env)
        argv = ["rank", "--input", str(data)]
        if flag is not None:
            argv += ["--threads", flag]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")


class TestOtherCommands:
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

    def test_correlate_needs_two_objectives(self, tmp_path, capsys):
        data = _synth(tmp_path)
        rc = main(["correlate", "--input", str(data), "--objectives", "MSE"])
        assert rc == 1
        assert "two objectives" in capsys.readouterr().err

    def test_synth_reports_truth(self, tmp_path, capsys):
        _synth(tmp_path)
        truth = json.loads(capsys.readouterr().out)
        assert truth["optimal_objective"] == "ZMALE"
        assert truth["n_total"] == 4000
