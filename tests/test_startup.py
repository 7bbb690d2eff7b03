"""What each command imports, and the bytes of the commands that run
without numpy.

Every command imports the modules it runs when it runs, and the package
imports its modules on first use, so `adjust`, `--help` and a usage error
start without numpy. Each case runs in a fresh interpreter with the
package's source on PYTHONPATH and bytecode writing off, as a command run
from a source checkout does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import objentropy
from objentropy import information, likelihoods, plain, synthetic
from objentropy import io as oio

ROOT = Path(__file__).resolve().parents[1]

# Runs cli.main(argv), writes its exit code and the modules it left
# imported to the file named by the first argument, and exits with it.
_MAIN = """\
import json
import sys
from objentropy.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump([code, sorted(sys.modules)], fh)
sys.exit(code)
"""

ADJUST = ("adjust", "--center", "1", "--sigma", "0.5")
OVERFLOW = ("adjust", "--center", "1", "--sigma", "1000")

# The bytes below are those of the package before its imports were made
# lazy; argparse's help text is that of Python 3.11 at 80 columns.
ADJUST_OUT = {
    "table": (
        "center  sigma   coverage  style           expectation  low     high\n"
        "------  ------  --------  --------------  -----------  ------  ------\n"
        "1.0000  0.5000  0.9500    multiplicative  1.1331       0.3753  2.6644\n"
    ),
    "csv": (
        "center,sigma,coverage,style,expectation,low,high\n"
        "1.0,0.5,0.95,multiplicative,1.1331484530668263,0.37531785741317664,"
        "2.664408261552897\n"
    ),
    "json": """\
{
  "rows": [
    {
      "center": 1.0,
      "sigma": 0.5,
      "coverage": 0.95,
      "style": "multiplicative",
      "expectation": 1.1331484530668263,
      "low": 0.37531785741317664,
      "high": 2.664408261552897
    }
  ]
}
""",
}
OVERFLOW_OUT = {
    "table": (
        "center  sigma      coverage  style           expectation  low     high\n"
        "------  ---------  --------  --------------  -----------  ------  ----\n"
        "1.0000  1000.0000  0.9500    multiplicative               0.0000\n"
    ),
    "csv": (
        "center,sigma,coverage,style,expectation,low,high\n"
        "1.0,1000.0,0.95,multiplicative,,0.0,\n"
    ),
    "json": """\
{
  "rows": [
    {
      "center": 1.0,
      "sigma": 1000.0,
      "coverage": 0.95,
      "style": "multiplicative",
      "expectation": null,
      "low": 0.0,
      "high": null
    }
  ]
}
""",
}
HELP = """\
usage: objentropy [-h] {rank,convergence,correlate,synth,adjust} ...

Rank model objective functions by the bits per observation each needs to
represent the model error.

positional arguments:
  {rank,convergence,correlate,synth,adjust}
    rank                rank objectives on a dataset
    convergence         entropy error versus subsample size
    correlate           location-wise entropy correlation of objectives
    synth               generate a synthetic dataset CSV
    adjust              expectation adjustment and prediction interval

options:
  -h, --help            show this help message and exit
"""
RANK_HELP = """\
usage: objentropy rank [-h] [--input INPUT] [--from-entropies FROM_ENTROPIES]
                       [--threshold THRESHOLD] [--objectives OBJECTIVES]
                       [--format {table,csv,json}] [--out OUT] [--split SPLIT]
                       [--seed SEED] [--aic {on,off}] [--threads THREADS]

options:
  -h, --help            show this help message and exit
  --input INPUT         CSV of location_id,observed,predicted
  --from-entropies FROM_ENTROPIES
                        CSV of objective,k,h_bits; rank the given entropies
                        directly
  --threshold THRESHOLD
                        zero-state threshold in flow units
  --objectives OBJECTIVES
                        "all" or comma-separated catalog names
  --format {table,csv,json}
  --out OUT
  --split SPLIT         none | random:<frac> | time:<frac> | location:<frac>
  --seed SEED
  --aic {on,off}        apply the overfitting correction (default on)
  --threads THREADS     validated (>= 1) for compatibility; objectives run
                        serially
"""
NEGATIVE_SIGMA = ("adjust", "--center", "1", "--sigma", "-1")
NEGATIVE_SIGMA_ERR = "usage error: sigma must be finite and >= 0, got -1.0\n"
BAD_FAMILY = ("synth", "--family", "gamma", "--scale", "1", "--out", "x.csv")
BAD_FAMILY_ERR = (
    "usage error: argument --family: invalid choice: 'gamma' (choose from "
    "'additive-normal', 'additive-laplace', 'multiplicative-lognormal', "
    "'multiplicative-log-laplace')\n"
)


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONSTARTUP", None)
    return env


def _run(tmp_path, argv):
    """The exit code, stdout, stderr and imported modules of a command run
    in a fresh interpreter, in tmp_path."""
    record = tmp_path / "record"
    proc = subprocess.run([sys.executable, "-c", _MAIN, str(record), *argv],
                          capture_output=True, text=True, env=_env(),
                          cwd=tmp_path)
    code, modules = json.loads(record.read_text())
    assert code == proc.returncode
    return code, proc.stdout, proc.stderr, modules


@pytest.mark.parametrize("argv, code, out, err", [
    *((ADJUST + ("--format", fmt), 0, ADJUST_OUT[fmt], "")
      for fmt in ("table", "csv", "json")),
    *((OVERFLOW + ("--format", fmt), 0, OVERFLOW_OUT[fmt], "")
      for fmt in ("table", "csv", "json")),
    (("--help",), 0, HELP, ""),
    (("rank", "--help"), 0, RANK_HELP, ""),
    (NEGATIVE_SIGMA, 1, "", NEGATIVE_SIGMA_ERR),
    (BAD_FAMILY, 1, "", BAD_FAMILY_ERR),
], ids=["adjust table", "adjust csv", "adjust json", "overflow table",
        "overflow csv", "overflow json", "help", "rank help",
        "negative sigma", "unknown family"])
def test_command_runs_without_numpy(tmp_path, argv, code, out, err):
    """adjust, --help and a usage error write the bytes they wrote when the
    package imported every module, and never import numpy."""
    got = _run(tmp_path, argv)
    assert got[:3] == (code, out, err)
    assert "numpy" not in got[3]
    assert not (tmp_path / "x.csv").exists()


def test_import_loads_no_module(tmp_path):
    """import objentropy imports none of its modules, though dir() lists
    every public name; a public name imports the module it is read
    from."""
    script = ("import sys, objentropy\n"
              "listed = 'load_csv' in dir(objentropy)\n"
              "before = sorted(m for m in sys.modules if m.startswith("
              "'objentropy.'))\n"
              "objentropy.prediction_interval\n"
              "print(listed, before, 'numpy' in sys.modules)\n"
              "objentropy.load_csv\n"
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env(), check=True)
    assert proc.stdout == "True [] False\nTrue\n"


def test_rank_imports_neither_synthetic_nor_diagnostics(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("location_id,observed,predicted\n"
                    "A,1,1.5\nA,2,2.5\nA,3,2\nB,4,3\nB,5,6\nB,6,7\n")
    code, out, err, modules = _run(
        tmp_path, ("rank", "--input", str(data), "--objectives", "MSE,MAE"))
    assert (code, err) == (0, "")
    assert "MSE" in out
    assert "objentropy.likelihoods" in modules
    # statistics, which imports decimal and fractions, is adjust's alone.
    assert not {"objentropy.synthetic", "objentropy.diagnostics",
                "statistics"} & set(modules)


@pytest.mark.parametrize("module, name", [
    (information, "prediction_interval"),
    (information, "adjust_expectation_lognormal"),
    (information, "_exp"),
    (likelihoods, "DEFAULT_ZERO_THRESHOLD"),
    (synthetic, "FAMILIES"),
    (oio, "format_adjustment"),
    (oio, "_quote"),
])
def test_moved_names_are_one_object(module, name):
    """A name that moved to the numpy-free module is the same object where
    it was read before."""
    assert getattr(module, name) is getattr(plain, name)
    if name in objentropy.__all__:
        assert getattr(objentropy, name) is getattr(plain, name)


def test_finite_reads_numpy_scalars_by_duck_type():
    record = plain._finite({"a": np.float32(0.5), "b": np.int64(3),
                            "c": np.float64("inf"), "d": 2.0, "e": "x"})
    assert record == {"a": 0.5, "b": 3, "c": None, "d": 2.0, "e": "x"}
    assert [type(v) for v in record.values()] == [
        float, int, type(None), float, str]


# Runs adjust and synth under perfbench's tracer, with only objentropy.cli
# imported beforehand, as perfbench/run.py does, and prints every module
# attribute, or attribute of Dataset, still bound to something the tracer
# made once it has exited.
_TRACED = """\
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from objentropy import cli
with Tracer() as tracer:
    codes = [cli.main(["adjust", "--center", "1", "--sigma", "0.5"]),
             cli.main(["synth", "--family", "additive-normal", "--scale",
                       "1", "--n-per-location", "50", "--out", sys.argv[2]])]
assert codes == [0, 0], codes
assert any(s.name == "synthetic.layout" for s in tracer.spans)
owners = [(name, vars(module)) for name, module in sorted(sys.modules.items())
          if name == "objentropy" or name.startswith("objentropy.")]
owners.append(("Dataset", vars(sys.modules["objentropy.data"].Dataset)))


def from_tracer(value):
    # Made by the tracer: its code, or its class, is the tracer's. (Not
    # anything with __wrapped__: contextmanager's helpers carry one too.)
    value = getattr(value, "func", value)  # a cached_property's function
    code = getattr(value, "__code__", None)
    if code is not None:
        return code.co_filename == tracer_file
    return isinstance(value, type) and value.__module__ == "tracer"


tracer_file = sys.modules["tracer"].__file__
print([f"{owner}.{attr}" for owner, names in owners
       for attr, value in names.items() if from_tracer(value)])
"""


def test_tracer_leaves_no_wrapper_behind(tmp_path):
    """The benchmark's tracer restores every name it wraps, also in
    modules first imported while it runs."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED, str(ROOT / "perfbench"),
         str(tmp_path / "synth.csv")],
        capture_output=True, text=True, env=_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
