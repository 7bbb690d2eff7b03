"""Command-line interface.

Subcommands: rank, convergence, correlate, synth, adjust. Exit codes:
0 success; 1 usage error, a bad flag value, found before any file is read
or written; 2 a file that cannot be read or written, or bad data in one.

Each command imports the modules it runs when it runs, so that adjust,
--help and a usage error start without importing numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from .errors import ObjentropyError, UsageError

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exit code 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    from .plain import FAMILIES

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
    rank.add_argument("--split", type=_split_flag, default="none",
                      help="none | random:<frac> | time:<frac> | location:<frac>")
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--aic", choices=("on", "off"), default="on",
                      help="apply the overfitting correction (default on)")
    rank.add_argument("--threads", type=int, default=None,
                      help="validated (>= 1) for compatibility; "
                           "objectives run serially")

    conv = sub.add_parser(
        "convergence", help="entropy error versus subsample size"
    )
    conv.add_argument("--input", required=True)
    conv.add_argument("--sizes", type=_comma_list(int), required=True,
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
    synth.add_argument("--base-median", type=_comma_list(float),
                       default="1.0",
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
    from .plain import DEFAULT_ZERO_THRESHOLD

    sub.add_argument("--threshold", type=float,
                     default=DEFAULT_ZERO_THRESHOLD,
                     help="zero-state threshold in flow units")
    sub.add_argument("--objectives", default="all",
                     help='"all" or comma-separated catalog names')
    sub.add_argument("--format", choices=("table", "csv", "json"),
                     default="table")
    sub.add_argument("--out", default=None)


def _comma_list(kind: type) -> Callable[[str], list]:
    """The argparse type of a comma-separated list of kind values."""
    def parse(text: str) -> list:
        return [kind(item) for item in text.split(",") if item.strip()]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's message
    return parse


def _split_flag(text: str) -> tuple[str, float | None]:
    """--split's mode[:fraction] as a pair; SplitSpec checks both."""
    mode, colon, frac = text.strip().partition(":")
    return mode, float(frac) if colon else None


_split_flag.__name__ = "mode[:fraction]"  # argparse's message


@contextlib.contextmanager
def _flag_values() -> Iterator[None]:
    """The block where a command turns its flags into the library's values.
    It reads and writes no file, so a library error raised in it is a bad
    flag value: a usage error."""
    try:
        yield
    except ObjentropyError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _cmd_rank(args: argparse.Namespace) -> None:
    from .data import SplitSpec
    from .information import rank_objectives
    from .io import format_report, load_entropies, split_csv
    from .likelihoods import (
        CATALOG,
        check_threshold,
        evaluate_objective,
        location_frames,
        resolve_objectives,
    )

    with _flag_values():
        if (args.input is None) == (args.from_entropies is None):
            raise UsageError(
                "rank needs exactly one of --input or --from-entropies")
        specs = resolve_objectives(args.objectives)
        threshold = check_threshold(args.threshold)
        split_spec = SplitSpec(*args.split, args.seed)
        if args.threads is not None and args.threads < 1:
            raise UsageError(f"thread cap must be >= 1, got {args.threads}")

    if args.from_entropies is not None:
        estimates, adjusted = load_entropies(args.from_entropies), False
    else:
        # Each side's location frames suffice.
        train, test = split_csv(args.input, split_spec, partial(
            location_frames, specs, threshold=threshold))
        estimates = [evaluate_objective(spec, train, test, threshold)
                     for spec in specs]
        adjusted = args.aic == "on"
    descriptions = {name: spec.description for name, spec in CATALOG.items()}
    report = rank_objectives(estimates, adjusted=adjusted,
                             descriptions=descriptions)
    _emit(format_report(report, args.format), args.out)


def _cmd_convergence(args: argparse.Namespace) -> None:
    from .diagnostics import check_subsamples, convergence_curve
    from .io import format_convergence, read_csv
    from .likelihoods import check_threshold, resolve_objectives

    with _flag_values():
        specs = resolve_objectives(args.objectives)
        threshold = check_threshold(args.threshold)
        sizes = check_subsamples(args.sizes, args.replicates, args.seed)
    curves = read_csv(args.input, partial(
        convergence_curve, specs=specs, sizes=sizes,
        replicates=args.replicates, seed=args.seed, threshold=threshold,
        with_replacement=args.bootstrap))
    _emit(format_convergence(curves, args.format), args.out)


def _cmd_correlate(args: argparse.Namespace) -> None:
    from .diagnostics import per_location_entropy
    from .io import format_correlations, read_csv
    from .likelihoods import check_threshold, resolve_objectives

    with _flag_values():
        specs = resolve_objectives(args.objectives)
        if len(specs) < 2:
            raise UsageError("correlate requires at least two objectives")
        threshold = check_threshold(args.threshold)
    matrix = read_csv(args.input, partial(per_location_entropy, specs=specs,
                                          threshold=threshold))
    _emit(format_correlations(matrix, args.format), args.out)


def _cmd_synth(args: argparse.Namespace) -> None:
    from .io import write_dataset_csv
    from .synthetic import SyntheticModel, layout, truth

    medians = args.base_median
    with _flag_values():
        model = SyntheticModel(
            family=args.family,
            scale=args.scale,
            zero_inflation_rate=args.zero_inflation,
            base_median=medians[0] if len(medians) == 1 else tuple(medians),
            base_log_sigma=args.base_log_sigma,
            n_per_location=args.n_per_location,
            n_locations=args.locations,
            seed=args.seed,
        )
    # Each location is drawn where its rows are written, one at a time.
    drawn = layout(model)
    write_dataset_csv(drawn, args.out)
    known = truth(model)
    sys.stdout.write(json.dumps({
        "out": str(args.out),
        "n_total": drawn.n_total,
        "family": known.family,
        "optimal_objective": known.optimal_objective,
        "error_entropy_bits": known.error_entropy_bits,
    }) + "\n")


def _cmd_adjust(args: argparse.Namespace) -> None:
    from .plain import (
        adjust_expectation_lognormal,
        format_adjustment,
        prediction_interval,
    )

    with _flag_values():
        low, high = prediction_interval(
            args.center, args.sigma, args.coverage, args.style
        )
        expectation = (
            adjust_expectation_lognormal(args.center, args.sigma)
            if args.style == "multiplicative" else args.center)
    record = {"center": args.center, "sigma": args.sigma,
              "coverage": args.coverage, "style": args.style,
              "expectation": expectation, "low": low, "high": high}
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
    except (ObjentropyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
