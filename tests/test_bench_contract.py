"""The benchmark's tracer still wraps and restores what it names.

perfbench/tracer.py re-wraps public module functions, Dataset.subset and
Dataset's cached flattening properties by name, and perfbench/run.py counts
attributes of their results; a refactor that renames or reshapes them
breaks `perfbench/run.py --trace 1` without failing any other test.
"""

import collections
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

from objentropy import cli
from objentropy import io as oio
from objentropy.data import Dataset

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


def _load_run():
    """perfbench/run.py, which imports its sibling modules by bare name."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        return _load("perfbench_run", ROOT / "perfbench" / "run.py")
    finally:
        sys.path.remove(bench)


def _synth(path, *args):
    assert cli.main(["synth", "--n-per-location", "100", "--locations", "2",
                     *args, "--out", str(path)]) == 0


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
    _synth(data, "--family", "multiplicative-lognormal", "--scale", "0.4",
           "--seed", "5")
    before = _bindings()
    tracer = _load_tracer().Tracer()
    with tracer:
        rc = cli.main(["rank", "--input", str(data), "--format", "json",
                       "--out", str(tmp_path / "rank.json")])
    capsys.readouterr()
    assert rc == 0
    names = {span.name for span in tracer.spans}
    # The transforms.apply.* per-layer metrics read these spans.
    assert {"data.Dataset.observed", "transforms.apply",
            "transforms.log_jacobian_terms"} <= names
    after = _bindings()
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []


def test_counters_read_the_evaluations(tmp_path, capsys):
    """The benchmark's evaluate_objective counters sum the n_eval and
    zero-likelihood flags of the rows rank reports."""
    data = tmp_path / "d.csv"
    _synth(data, "--family", "multiplicative-log-laplace", "--scale", "0.4",
           "--zero-inflation", "0.05", "--seed", "7")
    out = tmp_path / "rank.json"
    run = _load_run()
    with run.Tracer(run.COUNTERS) as tracer:
        rc = cli.main(["rank", "--input", str(data), "--split", "random:0.5",
                       "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    flagged = sum(row["zero_likelihood"] for row in rows)
    assert flagged > 0
    counts = tracer.counts
    assert counts["likelihoods.evaluate_objective.n_eval"] == sum(
        row["n_eval"] for row in rows)
    assert counts["likelihoods.evaluate_objective.zero_likelihood"] == flagged


def test_diagnose_commands_under_counters(tmp_path, capsys):
    """correlate and convergence run under the benchmark's counters, every
    binding is restored afterwards, and per_location_entropy counts one
    cell per location and objective of the report. correlate scores its
    cells without evaluate_objective; convergence makes one evaluation per
    size, replicate and objective."""
    data = tmp_path / "d.csv"
    _synth(data, "--family", "multiplicative-lognormal", "--scale", "0.4",
           "--locations", "10", "--seed", "3")
    out = tmp_path / "correlate.json"
    run = _load_run()
    before = _bindings()
    with run.Tracer(run.COUNTERS) as tracer:
        codes = [
            cli.main(["correlate", "--input", str(data), "--format", "json",
                      "--out", str(out)]),
            cli.main(["convergence", "--input", str(data), "--sizes",
                      "50,500", "--replicates", "2", "--objectives",
                      "MSE,MALE,ZMALE", "--format", "json", "--out",
                      str(tmp_path / "convergence.json")]),
        ]
    capsys.readouterr()
    assert codes == [0, 0]
    after = _bindings()
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []
    rows = json.loads(out.read_text())["rows"]
    objectives = {row[side] for row in rows
                  for side in ("objective_a", "objective_b")}
    locations = max(row["n_locations"] for row in rows)
    assert tracer.counts["diagnostics.per_location_entropy.cells"] == (
        locations * len(objectives)) == 100
    spans = tracer.spans
    roots = run.root_of(spans)
    _, convergence = sorted(
        (s for s in spans if s.name == "cli.main"), key=lambda s: s.start_ns)
    evaluations = collections.Counter(
        roots[s.span_id] for s in spans
        if s.name == "likelihoods.evaluate_objective")
    assert evaluations == {convergence.span_id: 2 * 2 * 3}


def test_load_csv_reads_benchmark_input_from_the_path(tmp_path, monkeypatch):
    """Each of two processes parses a range of a benchmark input's bytes,
    handing numpy each block as a list of lines, once for the ids and once
    for the numbers, and none falls back to the row parser. One range is
    read in a forked child, as in a benchmark-sized file, so the spy logs
    each call to a file."""
    inputs = _load("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    data = tmp_path / "flows.csv"
    inputs.write_csv(inputs.Shape(3, 50, "laplace", 0.5, 0.02), 5, data)
    log = tmp_path / "loadtxt.log"
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {type(source).__name__}\n")
        return loadtxt(source, *args, **kwargs)

    def fallback(*args):
        raise AssertionError("load_csv fell back to the row parser")

    monkeypatch.setattr(np, "loadtxt", spy)
    monkeypatch.setattr(oio, "_read_rows", fallback)
    monkeypatch.setattr(oio, "_FORK_BYTES", 0)
    monkeypatch.setattr(oio, "_workers", lambda: 2)
    dataset = oio.load_csv(data)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert [source for _, source in calls] == ["list"] * 4
    assert sorted(collections.Counter(pid for pid, _ in calls).values()) == [
        2, 2]
    assert dataset.n_total == 150 and len(dataset.location_ids) == 3
