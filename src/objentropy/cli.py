"""Command-line interface.

Subcommands: rank, convergence, correlate, synth, adjust. Exit codes:
0 success, 1 usage error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .data import SplitSpec, split
from .diagnostics import convergence_curve, per_location_entropy
from .errors import ObjentropyError, UnknownObjective, UsageError
from .information import (
    adjust_expectation_lognormal,
    prediction_interval,
    rank_objectives,
)
from .io import (
    format_adjustment,
    format_convergence,
    format_correlations,
    format_report,
    load_csv,
    load_entropies,
    write_dataset_csv,
)
from .likelihoods import (
    CATALOG,
    DEFAULT_ZERO_THRESHOLD,
    evaluate_objective,
    resolve_objectives,
)
from .synthetic import FAMILIES, SyntheticModel, generate

THREADS_ENV = "OBJENTROPY_THREADS"

_DESCRIPTIONS = {name: spec.description for name, spec in CATALOG.items()}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exit code 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="objentropy",
        description=(
            "Rank model objective functions by the bits per observation "
            "each needs to represent the model error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank objectives on a dataset")
    rank.add_argument("--input", help="CSV of location_id,observed,predicted")
    rank.add_argument(
        "--from-entropies",
        help="CSV of objective,k,h_bits; rank the given entropies directly",
    )
    _common_flags(rank)
    rank.add_argument("--split", default="none",
                      help="none | random:<frac> | time:<frac> | location:<frac>")
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--base", choices=("bits", "nats"), default="bits")
    rank.add_argument("--aic", choices=("on", "off"), default="on",
                      help="apply the overfitting correction (default on)")
    rank.add_argument("--threads", type=int, default=None,
                      help=f"validated (>= 1, default ${THREADS_ENV}) for "
                           "compatibility; objectives run serially")

    conv = sub.add_parser(
        "convergence", help="entropy error versus subsample size"
    )
    conv.add_argument("--input", required=True)
    conv.add_argument("--sizes", required=True,
                      help="comma-separated increasing subsample sizes")
    conv.add_argument("--replicates", type=int, default=5)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--bootstrap", action="store_true",
                      help="sample with replacement instead of without")
    _common_flags(conv)

    corr = sub.add_parser(
        "correlate", help="location-wise entropy correlation of objectives"
    )
    corr.add_argument("--input", required=True)
    _common_flags(corr)

    synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--family", choices=FAMILIES, required=True)
    synth.add_argument("--scale", type=float, required=True)
    synth.add_argument("--zero-inflation", type=float, default=0.0)
    synth.add_argument("--base-median", default="1.0",
                       help="single value or comma list, one per location")
    synth.add_argument("--base-log-sigma", type=float, default=1.0)
    synth.add_argument("--n-per-location", type=int, default=1000)
    synth.add_argument("--locations", type=int, default=1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    adj = sub.add_parser(
        "adjust", help="expectation adjustment and prediction interval"
    )
    adj.add_argument("--center", type=float, required=True,
                     help="median (multiplicative) or expectation (additive)")
    adj.add_argument("--sigma", type=float, required=True)
    adj.add_argument("--coverage", type=float, default=0.95)
    adj.add_argument("--style", choices=("multiplicative", "additive"),
                     default="multiplicative")
    adj.add_argument("--format", choices=("table", "csv", "json"),
                     default="table")
    adj.add_argument("--out", default=None)
    return parser


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threshold", type=float,
                     default=DEFAULT_ZERO_THRESHOLD,
                     help="zero-state threshold in flow units")
    sub.add_argument("--objectives", default="all",
                     help='"all" or comma-separated catalog names')
    sub.add_argument("--format", choices=("table", "csv", "json"),
                     default="table")
    sub.add_argument("--out", default=None)


def _parse_split(text: str, seed: int) -> SplitSpec:
    text = text.strip()
    if text == "none":
        return SplitSpec("none")
    mode_map = {
        "random": "random-fraction",
        "time": "by-time",
        "location": "by-location",
    }
    name, _, frac_text = text.partition(":")
    if name not in mode_map or not frac_text:
        raise UsageError(
            f"bad --split {text!r}; expected none, random:<frac>, "
            "time:<frac>, or location:<frac>"
        )
    try:
        frac = float(frac_text)
    except ValueError:
        raise UsageError(f"bad split fraction {frac_text!r}") from None
    if not (0.0 < frac < 1.0):
        raise UsageError(f"split fraction must lie in (0, 1), got {frac}")
    return SplitSpec(mode_map[name], test_fraction=frac, seed=seed)


def _resolve_specs(selection: str):
    try:
        return resolve_objectives(selection)
    except UnknownObjective as exc:
        raise UsageError(str(exc)) from exc


def _validate_threshold(threshold: float) -> float:
    if not threshold > 0:
        raise UsageError(f"--threshold must be > 0, got {threshold}")
    return threshold


def _validate_seed(seed: int) -> int:
    if not (0 <= seed < 2 ** 64):
        raise UsageError(f"--seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _resolve_threads(flag: int | None) -> None:
    """Validate the thread cap of --threads or the environment; rank is
    serial, but a bad cap stays a usage error."""
    if flag is None:
        env = os.environ.get(THREADS_ENV)
        if not env:
            return
        try:
            flag = int(env)
        except ValueError:
            raise UsageError(
                f"{THREADS_ENV} must be an integer, got {env!r}"
            ) from None
    if flag < 1:
        raise UsageError(f"thread cap must be >= 1, got {flag}")


def _per_objective(specs, evaluate):
    """evaluate(spec) for each spec in turn; an error names its objective."""
    results = []
    for spec in specs:
        try:
            results.append(evaluate(spec))
        except ObjentropyError as exc:
            raise type(exc)(f"objective {spec.name}: {exc}") from exc
    return results


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _cmd_rank(args: argparse.Namespace) -> None:
    if (args.input is None) == (args.from_entropies is None):
        raise UsageError("rank needs exactly one of --input or --from-entropies")
    if args.from_entropies is not None:
        estimates = load_entropies(args.from_entropies)
        report = rank_objectives(
            estimates, base=args.base, adjusted=False,
            descriptions=_DESCRIPTIONS,
        )
        _emit(format_report(report, args.format), args.out)
        return

    specs = _resolve_specs(args.objectives)
    threshold = _validate_threshold(args.threshold)
    split_spec = _parse_split(args.split, _validate_seed(args.seed))
    _resolve_threads(args.threads)

    dataset = load_csv(args.input)
    train, test = split(dataset, split_spec)
    estimates = _per_objective(specs, lambda spec: evaluate_objective(
        spec, train, test, threshold
    ))
    report = rank_objectives(
        estimates, base=args.base, adjusted=args.aic == "on",
        descriptions=_DESCRIPTIONS,
    )
    _emit(format_report(report, args.format), args.out)


def _cmd_convergence(args: argparse.Namespace) -> None:
    specs = _resolve_specs(args.objectives)
    threshold = _validate_threshold(args.threshold)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --sizes {args.sizes!r}") from None
    if not sizes:
        raise UsageError("--sizes is empty")
    seed = _validate_seed(args.seed)
    dataset = load_csv(args.input)
    curves = _per_objective(specs, lambda spec: convergence_curve(
        dataset, spec, sizes,
        replicates=args.replicates,
        seed=seed,
        threshold=threshold,
        with_replacement=args.bootstrap,
    ))
    _emit(format_convergence(curves, args.format), args.out)


def _cmd_correlate(args: argparse.Namespace) -> None:
    specs = _resolve_specs(args.objectives)
    if len(specs) < 2:
        raise UsageError("correlate requires at least two objectives")
    threshold = _validate_threshold(args.threshold)
    dataset = load_csv(args.input)
    matrix = per_location_entropy(dataset, specs, threshold=threshold)
    _emit(format_correlations(matrix, args.format), args.out)


def _cmd_synth(args: argparse.Namespace) -> None:
    try:
        medians = [float(m) for m in str(args.base_median).split(",")]
    except ValueError:
        raise UsageError(f"bad --base-median {args.base_median!r}") from None
    model = SyntheticModel(
        family=args.family,
        scale=args.scale,
        zero_inflation_rate=args.zero_inflation,
        base_median=medians[0] if len(medians) == 1 else tuple(medians),
        base_log_sigma=args.base_log_sigma,
        n_per_location=args.n_per_location,
        n_locations=args.locations,
        seed=_validate_seed(args.seed),
    )
    dataset, truth = generate(model)
    write_dataset_csv(dataset, args.out)
    sys.stdout.write(json.dumps({
        "out": str(args.out),
        "n_total": dataset.n_total,
        "family": truth.family,
        "optimal_objective": truth.optimal_objective,
        "error_entropy_bits": truth.error_entropy_bits,
    }) + "\n")


def _cmd_adjust(args: argparse.Namespace) -> None:
    low, high = prediction_interval(
        args.center, args.sigma, args.coverage, args.style
    )
    if args.style == "multiplicative":
        expectation = adjust_expectation_lognormal(args.center, args.sigma)
    else:
        expectation = args.center
    record = {
        "center": args.center,
        "sigma": args.sigma,
        "coverage": args.coverage,
        "style": args.style,
        "expectation": expectation,
        "low": low,
        "high": high,
    }
    _emit(format_adjustment(record, args.format), args.out)


_COMMANDS = {
    "rank": _cmd_rank,
    "convergence": _cmd_convergence,
    "correlate": _cmd_correlate,
    "synth": _cmd_synth,
    "adjust": _cmd_adjust,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ObjentropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cli_entry() -> None:
    raise SystemExit(main())
