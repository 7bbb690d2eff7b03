"""The part of objentropy that needs only the standard library.

What the command-line parser reads (the synthetic error families and the
default zero-state threshold), the closed-form predictive adjustments, and
the plain-text serialization of records, so that `adjust`, `--help` and a
usage error run without importing numpy. The modules that need numpy import
these names from here.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist
from typing import Any, Mapping, Sequence

from .errors import (
    InvalidCoverage,
    NegativeSigma,
    NonFiniteValue,
    NonPositiveMedian,
)

# Default zero-state threshold in flow units (m^3/s); roughly 0.01 ft^3/s.
DEFAULT_ZERO_THRESHOLD = 0.0028

# The error families synthetic data can be drawn with (see synthetic).
FAMILIES = (
    "additive-normal",
    "additive-laplace",
    "multiplicative-lognormal",
    "multiplicative-log-laplace",
)


# --- predictive adjustments ---

def adjust_expectation_lognormal(median: float, sigma: float) -> float:
    """Convert a median prediction to an expectation: median * exp(sigma^2/2).

    sigma is the standard deviation of the natural-log-scale errors.
    """
    if not 0 < median < math.inf:
        raise NonPositiveMedian(f"median must be finite and > 0, got {median}")
    if not 0 <= sigma < math.inf:
        raise NegativeSigma(f"sigma must be finite and >= 0, got {sigma}")
    return median * _exp(0.5 * sigma * sigma)


def prediction_interval(
    center: float,
    sigma: float,
    coverage: float = 0.95,
    style: str = "multiplicative",
) -> tuple[float, float]:
    """Central prediction interval at the given coverage.

    multiplicative: (center / exp(sigma z), center * exp(sigma z)) for a
    median center on the original scale; additive: (center - sigma z,
    center + sigma z) for an expectation center. z is the standard-normal
    quantile at (1 + coverage) / 2. center and sigma must be finite; a
    bound may overflow to an infinity.
    """
    if not 0 <= sigma < math.inf:
        raise NegativeSigma(f"sigma must be finite and >= 0, got {sigma}")
    if not (0.0 < coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {coverage}")
    if style not in ("multiplicative", "additive"):
        raise InvalidCoverage(f"unknown interval style {style!r}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + coverage))
    if style == "multiplicative":
        if not 0 < center < math.inf:
            raise NonPositiveMedian("multiplicative interval requires a "
                                    f"finite center > 0, got {center}")
        factor = _exp(sigma * z)
        return center / factor, center * factor
    if not math.isfinite(center):
        raise NonFiniteValue(f"center must be finite, got {center}")
    return center - sigma * z, center + sigma * z


def _exp(x: float) -> float:
    """math.exp(x), or inf where that overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# --- record serialization ---

def format_adjustment(record: Mapping[str, Any], fmt: str) -> str:
    return _tabular([record], tuple(record), fmt)


def _tabular(
    records: Sequence[Mapping[str, Any]], fields: Sequence[str], fmt: str
) -> str:
    """records in fmt, with None for each non-finite float."""
    records = [_finite(rec) for rec in records]
    if fmt == "json":
        return _dump_json({"rows": records})
    if fmt == "csv":
        return _dump_csv(fields, records)
    lines = [
        tuple(_cell_text(rec[f], human=True) for f in fields)
        for rec in records
    ]
    return _render_table(tuple(fields), lines)


def _finite(record: Mapping[str, Any]) -> dict[str, Any]:
    """record with each numpy scalar (a value with ndim 0, read by its
    item()) as the Python scalar it holds, and None for each float in it
    that is NaN or infinite."""
    plain = {key: v.item() if getattr(v, "ndim", None) == 0 else v
             for key, v in record.items()}
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in plain.items()}


def _cell_text(value: Any, human: bool = False) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}" if human else repr(value)
    return str(value)


def _dump_csv(fields: Sequence[str], records: list[dict[str, Any]]) -> str:
    rows = [fields, *([_cell_text(rec[f]) for f in fields] for rec in records)]
    return "".join(",".join(map(_quote, row)) + "\n" for row in rows)


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render_table(header: tuple[str, ...], lines: list[tuple[str, ...]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *lines)]
    rule = tuple("-" * w for w in widths)
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        + "\n" for line in (header, rule, *lines))


def _quote(text: str) -> str:
    """A CSV cell for text, quoted only when it holds a delimiter, quote or
    line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
