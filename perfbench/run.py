"""objentropy benchmark: CLI wall time on seeded workloads, and a per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rank-large --seed 1 --seconds 30 --trace 0

With --trace 0 every command runs as `python -c` in a fresh interpreter
(PYTHONPATH=src, OBJENTROPY_THREADS unset), one at a time, and the last line
of stdout carries the end-to-end metrics. With --trace 1 the same commands
call objentropy.cli.main in this process, alternating untraced and traced
passes, and the last line carries the per-layer metrics. Every command's
output is checked, and its bytes must match across passes and between the
traced and untraced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import Shape, sha256_file, write_csv
from tracer import Tracer, root_of, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
MAIN = "import sys; from objentropy.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_ARGV = ("adjust", "--center", "1", "--sigma", "0.5")
SETUP_PER_PASS = 3
COMMAND_TIMEOUT_S = 150

KNOWN_GAPS = {
    "convergence --bootstrap": "duplicate draws collapse into one mask entry "
    "(a known defect); fixing it changes the work done, so timings would "
    "not compare across the fix",
    "rank --split time:<frac>": "the generated inputs carry no timestamps",
    "NSE in convergence": "sparse subsamples leave single-pair locations "
    "with sigma_o = 0, so the command exits 2 by design",
}


# --- output checks: each returns None when the report is right ---

def _rows(report: bytes) -> list[dict]:
    return json.loads(report)["rows"]


def check_rank(best: str, n_rows: int) -> Callable[[bytes], str | None]:
    def check(report: bytes) -> str | None:
        rows = _rows(report)
        if len(rows) != n_rows:
            return f"{len(rows)} rows, expected {n_rows}"
        top = [r["objective"] for r in rows if r["rank"] == 1]
        if top != [best]:
            return f"rank 1 is {top}, expected {best}"
        total = math.fsum(r["weight"] for r in rows)
        if abs(total - 1.0) > 1e-9:
            return f"weights sum to {total!r}"
        return None
    return check


# Pearson's r can leave [-1, 1] by rounding (MSE and NSE agree exactly on
# a single location, so their r is 1 up to the last bit); the package's own
# tests allow the same margin.
CORRELATION_SLACK = 1e-12


def check_correlate(report: bytes) -> str | None:
    rows = _rows(report)
    if len(rows) != 45:
        return f"{len(rows)} pairs, expected 45"
    bad = [r for r in rows if r["correlation"] is None
           or not abs(r["correlation"]) <= 1.0 + CORRELATION_SLACK]
    return f"correlation outside [-1, 1]: {bad[0]}" if bad else None


def check_convergence(report: bytes) -> str | None:
    rows = _rows(report)
    if len(rows) != 30:
        return f"{len(rows)} rows, expected 30"
    bad = [r for r in rows
           if r["h_bits"] is None or not math.isfinite(r["h_bits"])]
    return f"non-finite h_bits: {bad[0]}" if bad else None


def check_synth(summary: bytes) -> str | None:
    record = json.loads(summary)
    if record["n_total"] != 1_000_000:
        return f"n_total is {record['n_total']}, expected 1000000"
    if record["optimal_objective"] != "MSLE":
        return f"optimal objective is {record['optimal_objective']}"
    return None


# --- workloads ---

@dataclass(frozen=True)
class Command:
    """One CLI call. `{dir}` and `{seed}` in argv are filled in per run.

    outputs[0] is the report the check reads ("-" is stdout); the bytes of
    every output must repeat across passes.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: int
    check: Callable[[bytes], str | None]


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, Shape]
    commands: tuple[Command, ...]


# BENCHMARK.json and README.md say why each workload is here.
WORKLOADS = {
    "rank-large": Workload(
        inputs={"flows.csv": Shape(40, 25_000, "laplace", 0.5, 0.02)},
        commands=(
            Command("rank", ("rank", "--input", "{dir}/flows.csv",
                             "--objectives", "all", "--format", "json",
                             "--threads", "2", "--out", "{dir}/rank.json"),
                    ("{dir}/rank.json",), 1_000_000, check_rank("ZMALE", 10)),
        ),
    ),
    "diagnose-many-locations": Workload(
        inputs={"flows.csv": Shape(2000, 200, "normal", 0.3, 0.02)},
        commands=(
            Command("correlate", ("correlate", "--input", "{dir}/flows.csv",
                                  "--objectives", "all", "--format", "json",
                                  "--out", "{dir}/correlate.json"),
                    ("{dir}/correlate.json",), 400_000, check_correlate),
            Command("convergence", ("convergence", "--input", "{dir}/flows.csv",
                                    "--sizes", "10000,100000",
                                    "--replicates", "5",
                                    "--objectives", "MSE,MALE,ZMALE",
                                    "--seed", "{seed}", "--format", "json",
                                    "--out", "{dir}/convergence.json"),
                    ("{dir}/convergence.json",), 400_000, check_convergence),
        ),
    ),
    "synth-roundtrip": Workload(
        inputs={},
        commands=(
            Command("synth", ("synth", "--family", "multiplicative-lognormal",
                              "--scale", "0.3", "--n-per-location", "250000",
                              "--locations", "4", "--seed", "{seed}",
                              "--out", "{dir}/synth.csv"),
                    ("-", "{dir}/synth.csv"), 1_000_000, check_synth),
            Command("rank", ("rank", "--input", "{dir}/synth.csv",
                             "--split", "random:0.3", "--seed", "{seed}",
                             "--objectives", "MSE,MAE,U,MSPE,MSLE,MALE,MARE",
                             "--format", "json", "--threads", "2",
                             "--out", "{dir}/rank.json"),
                    ("{dir}/rank.json",), 1_000_000, check_rank("MSLE", 7)),
        ),
    ),
}


# --- running commands ---

@dataclass
class Result:
    command: str
    seconds: float
    error: str | None
    peak_rss_kb: int = 0


class Runner:
    """Runs commands, checks their outputs and remembers the first digests."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.reference: dict[int, list[str]] = {}
        # objentropy calls no BLAS routine, but numpy starts a BLAS worker
        # at import whose spinning competes for the second CPU; on a busy
        # host that swung start-up time by a third between sets of runs.
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.env.pop("OBJENTROPY_THREADS", None)

    def _fill(self, text: str) -> str:
        return text.format(dir=self.work, seed=self.seed)

    def _output(self, name: str) -> Path:
        return self.work / "stdout" if name == "-" else Path(self._fill(name))

    def run(self, index: int, cmd: Command, cli=None) -> Result:
        """Run one command: in a fresh interpreter, or through `cli.main`
        in this process when the cli module is given."""
        argv = [self._fill(a) for a in cmd.argv]
        for name in cmd.outputs:
            self._output(name).unlink(missing_ok=True)
        rss = 0
        if cli is None:
            seconds, code, rss = self._child(argv)
        else:
            seconds, code = self._call(cli, argv)
        return Result(cmd.name, seconds, self._verify(index, cmd, code), rss)

    def run_pass(self, workload: Workload, cli=None) -> list[Result]:
        return [self.run(i, cmd, cli) for i, cmd in enumerate(workload.commands)]

    def _child(self, argv: list[str]) -> tuple[float, int | None, int]:
        """Wall seconds, exit code (None if killed) and peak RSS in KiB."""
        with (self.work / "stdout").open("wb") as out, \
                (self.work / "stderr").open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", MAIN, *argv],
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return seconds, (code if code >= 0 else None), usage.ru_maxrss

    def _call(self, cli, argv: list[str]) -> tuple[float, int | None]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        (self.work / "stdout").write_text(buf.getvalue(), encoding="utf-8")
        return seconds, code

    def _verify(self, index: int, cmd: Command, code: int | None) -> str | None:
        if code != 0:
            err = self.work / "stderr"
            tail = err.read_text(errors="replace")[-500:] if err.exists() else ""
            return f"exit code {code}: {tail.strip()}"
        paths = [self._output(name) for name in cmd.outputs]
        if not all(p.exists() and p.stat().st_size for p in paths):
            return "wrote no output"
        try:
            error = cmd.check(paths[0].read_bytes())
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable report: {exc!r}"
        if error:
            return error
        digests = [sha256_file(p) for p in paths]
        expected = self.reference.setdefault(index, digests)
        if digests != expected:
            return "output bytes differ from the first pass"
        return None


def closed_loop(seconds: float, steps: tuple[Callable, ...]) -> list[list]:
    """Call the steps in turn, round after round, until another round would
    overrun `seconds`; every step runs at least once. Odd rounds call the
    steps in reverse order, so that no step always runs first. Returns each
    step's return values in call order."""
    out: list[list] = [[] for _ in steps]
    order = list(zip(out, steps))
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for values, step in order:
            gc.collect()
            values.append(step())
        order.reverse()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return out


# --- untraced run: end-to-end metrics ---

def end_to_end(runner: Runner, workload: Workload, seconds: float):
    setup_cmd = Command("adjust", SETUP_ARGV, ("-",), 0, lambda b: None)
    setup: list[Result] = []

    def one_pass() -> list[Result]:
        # Set-up samples are spread over the run, so that they see the same
        # machine as the commands do.
        setup.extend(runner.run(-1, setup_cmd) for _ in range(SETUP_PER_PASS))
        return runner.run_pass(workload)

    [passes] = closed_loop(seconds, (one_pass,))
    ok_passes = [p for p in passes if not any(r.error for r in p)]
    timed = ok_passes or passes
    rows = sum(c.rows for c in workload.commands) * len(timed)
    busy = sum(r.seconds for p in timed for r in p)
    metrics = {
        "setup_s": (statistics.median([r.seconds for r in setup]), "s"),
        "pass_s": (statistics.median([sum(r.seconds for r in p) for p in timed]), "s"),
        "rows_per_s": (rows / busy, "1/s"),
        "peak_rss_mb": (statistics.median([max(r.peak_rss_kb for r in p) / 1024.0
                                 for p in timed]), "MB"),
    }
    results = setup + [r for p in passes for r in p]
    lines = [f"{'setup_s':<14}{metrics['setup_s'][0]:12.4f} s    "
             f"median of {len(setup)}"]
    for name in ("rank", "correlate", "convergence", "synth"):
        samples = [r.seconds for p in timed for r in p if r.command == name]
        lines.append(
            f"{name + '_s':<14}{statistics.median(samples):12.4f} s    median of "
            f"{len(samples)}" if samples
            else f"{name + '_s':<14}{'n/a':>12}      not in this workload")
    lines.append(f"{'pass_s':<14}{metrics['pass_s'][0]:12.4f} s    "
                 f"median of {len(timed)}")
    lines.append(f"{'rows_per_s':<14}{metrics['rows_per_s'][0]:12.1f} 1/s  "
                 f"{rows} rows over {busy:.3f} s of commands")
    lines.append(f"{'peak_rss_mb':<14}{metrics['peak_rss_mb'][0]:12.1f} MB")
    failed = sum(1 for r in results if r.error)
    lines.append(f"{'failed_frac':<14}{failed / len(results):12.4f}      "
                 f"{failed} of {len(results)} commands")
    return metrics, results, lines


# --- traced run: per-layer metrics ---

COUNTERS = {
    "io.load_csv": {"rows": lambda a, k, r: r.n_total},
    "io.write_dataset_csv": {"rows": lambda a, k, r: a[0].n_total},
    "transforms.apply": {"values": lambda a, k, r: r.size},
    "likelihoods.evaluate_objective": {
        "n_eval": lambda a, k, r: r.n_eval,
        "zero_likelihood": lambda a, k, r: int(r.zero_likelihood),
    },
    "data.Dataset.subset": {"rows_out": lambda a, k, r: r.n_total},
    "diagnostics.per_location_entropy": {
        "cells": lambda a, k, r: r.entropies.size,
        "cells_finite": lambda a, k, r: int(np.isfinite(r.entropies).sum()),
    },
    "synthetic.generate": {"rows": lambda a, k, r: r[0].n_total},
}

# Metric name -> the spans it sums over.
LAYER_GROUPS = {
    "io.load_csv": ("io.load_csv",),
    "io.write_dataset_csv": ("io.write_dataset_csv",),
    "io.format": ("io.format_report", "io.format_correlations",
                  "io.format_convergence"),
    "transforms.apply": ("transforms.apply",),
    "transforms.log_jacobian_sum": ("transforms.log_jacobian_sum",),
    "likelihoods.evaluate_objective": ("likelihoods.evaluate_objective",),
    "data.Dataset.subset": ("data.Dataset.subset",),
    "data.partition_zero_state": ("data.partition_zero_state",),
    "data.location_stats": ("data.location_stats",),
    "data.split": ("data.split",),
    "data.flatten": ("data.Dataset.observed", "data.Dataset.predicted",
                     "data.Dataset.locations"),
    "diagnostics.per_location_entropy": ("diagnostics.per_location_entropy",),
    "diagnostics.convergence_curve": ("diagnostics.convergence_curve",),
    "information.rank_objectives": ("information.rank_objectives",),
    "synthetic.generate": ("synthetic.generate",),
    "cli.main": ("cli.main",),
}
COUNTED = {
    "io.load_csv.rows", "io.write_dataset_csv.rows", "transforms.apply.values",
    "likelihoods.evaluate_objective.n_eval", "data.Dataset.subset.rows_out",
    "synthetic.generate.rows",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and self time per span name."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_by_name = {n: math.fsum(own[s.span_id] for s in ss)
                    for n, ss in by_name.items()}
    metrics: dict[str, float] = {}
    for group, names in LAYER_GROUPS.items():
        metrics[f"{group}.self_s"] = math.fsum(
            self_by_name.get(n, 0.0) for n in names)
        metrics[f"{group}.calls"] = float(
            sum(len(by_name.get(n, ())) for n in names))
    counts = tracer.counts
    for key in COUNTED:
        metrics[key] = counts[key]
    evals = metrics["likelihoods.evaluate_objective.calls"]
    metrics["likelihoods.evaluate_objective.zero_likelihood_frac"] = _ratio(
        counts["likelihoods.evaluate_objective.zero_likelihood"], evals)
    metrics["likelihoods.apply_per_eval"] = _ratio(
        metrics["transforms.apply.calls"], evals)
    metrics["diagnostics.per_location_entropy.cells_finite_frac"] = _ratio(
        counts["diagnostics.per_location_entropy.cells_finite"],
        counts["diagnostics.per_location_entropy.cells"])

    # Evaluate-span time over the interval the spans cover, per command.
    roots = root_of(spans)
    cover: dict[int, list[int]] = {}
    busy = 0
    for s in by_name.get("likelihoods.evaluate_objective", ()):
        lo_hi = cover.setdefault(roots[s.span_id], [s.start_ns, s.end_ns])
        lo_hi[0] = min(lo_hi[0], s.start_ns)
        lo_hi[1] = max(lo_hi[1], s.end_ns)
        busy += s.end_ns - s.start_ns
    metrics["likelihoods.evaluate_objective.concurrency"] = _ratio(
        busy, sum(hi - lo for lo, hi in cover.values()))

    mains = {s.span_id: s for s in by_name.get("cli.main", ())}
    wall = math.fsum((s.end_ns - s.start_ns) / 1e9 for s in mains.values())
    under = math.fsum(t for sid, t in own.items() if roots[sid] in mains)
    metrics["trace.self_sum_frac"] = _ratio(under - wall, wall)
    metrics["trace.spans"] = float(len(spans))
    return metrics, self_by_name


def traced(runner: Runner, workload: Workload, seconds: float):
    sys.path.insert(0, str(SRC))
    os.environ.pop("OBJENTROPY_THREADS", None)
    cli = importlib.import_module("objentropy.cli")

    def traced_pass():
        with Tracer(COUNTERS) as tracer:
            return runner.run_pass(workload, cli), tracer

    plain, traced_passes = closed_loop(
        seconds, (lambda: runner.run_pass(workload, cli), traced_pass))
    results = [r for p in plain for r in p]
    results += [r for p, _ in traced_passes for r in p]
    per_pass = [layer_metrics(tracer) for _, tracer in traced_passes]
    metrics = {name: (statistics.median([m[name] for m, _ in per_pass]), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    wall_plain = statistics.median([sum(r.seconds for r in p) for p in plain])
    wall_traced = statistics.median([sum(r.seconds for r in p) for p, _ in traced_passes])
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "1")
    self_by_name = per_pass[-1][1]
    lines = [f"{'span':<40}{'self_s':>10}  (last traced pass)"]
    for name, t in sorted(self_by_name.items(), key=lambda kv: -kv[1])[:20]:
        lines.append(f"{name:<40}{t:10.4f}")
    lines.append(f"traced passes {len(traced_passes)}, untraced passes "
                 f"{len(plain)}, overhead {metrics['trace.overhead_frac'][0]:+.4f}")
    return metrics, results, lines


PER_LAYER_UNITS = {
    **{f"{g}.self_s": "s" for g in LAYER_GROUPS},
    **{f"{g}.calls": "count" for g in LAYER_GROUPS},
    **{name: "count" for name in sorted(COUNTED)},
    "likelihoods.evaluate_objective.zero_likelihood_frac": "1",
    "likelihoods.evaluate_objective.concurrency": "1",
    "likelihoods.apply_per_eval": "1",
    "diagnostics.per_location_entropy.cells_finite_frac": "1",
    "trace.self_sum_frac": "1",
    "trace.spans": "count",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if not (SRC / "objentropy" / "cli.py").is_file():
        print(f"error: {SRC / 'objentropy'} not found; run from the root of "
              "an objentropy checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        hashes = {}
        for name, shape in workload.inputs.items():
            write_csv(shape, args.seed, work / name)
            hashes[name] = sha256_file(work / name)
        runner = Runner(work, args.seed)
        measure = traced if args.trace else end_to_end
        metrics, results, lines = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    for r in results:
        if r.error:
            print(f"FAILED {r.command}: {r.error}", file=sys.stderr)
    for line in lines:
        print(line)
    print("meta " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "input_sha256": hashes,
        "output_sha256": {workload.commands[i].name if i >= 0 else "setup":
                          digests for i, digests in runner.reference.items()},
        "known_gaps": KNOWN_GAPS,
    }, sort_keys=True))
    failed = sum(1 for r in results if r.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
