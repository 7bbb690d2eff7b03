"""The benchmark's tracer still wraps and restores what it names.

perfbench/tracer.py re-wraps public module functions, Dataset.subset and
Dataset's cached flattening properties by name; a refactor that renames or
reshapes them breaks `perfbench/run.py --trace 1` without failing any other
test.
"""

import importlib.util
import sys
from pathlib import Path

from objentropy import cli
from objentropy.data import Dataset

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name the tracer may replace, with the object it names."""
    names = {("Dataset", attr): value for attr, value in vars(Dataset).items()}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name == "objentropy" or mod_name.startswith("objentropy."):
            names.update(((mod_name, attr), value)
                         for attr, value in vars(module).items())
    return names


def test_rank_under_tracer(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert cli.main(["synth", "--family", "multiplicative-lognormal",
                     "--scale", "0.4", "--n-per-location", "100",
                     "--locations", "2", "--seed", "5",
                     "--out", str(data)]) == 0
    before = _bindings()
    tracer = _load_tracer().Tracer()
    with tracer:
        rc = cli.main(["rank", "--input", str(data), "--format", "json",
                       "--out", str(tmp_path / "rank.json")])
    capsys.readouterr()
    assert rc == 0
    assert "data.Dataset.observed" in {span.name for span in tracer.spans}
    after = _bindings()
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []
