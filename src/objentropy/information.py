"""Entropy, AIC correction, Akaike weights, rankings, and predictive
adjustments.

Log-likelihoods in nats convert to conditional entropy in bits per
observation via -loglik / (n ln 2). Only differences between entropies are
meaningful; the data's own entropy is a constant that cancels when
comparing objectives against the same evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidCoverage,
    NegativeSigma,
    NonPositiveMedian,
    OrderingViolation,
    ZeroSampleCount,
)

if TYPE_CHECKING:
    from .likelihoods import FittedParams

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyEstimate:
    """One objective's entropy figures for ranking.

    An evaluation of an objective is its estimate; it carries the fitted
    parameters, which are None for estimates built from entropies alone.
    """

    name: str
    k: int
    h_bits: float
    h_adj_bits: float
    loglik_nats: float | None = None
    n_eval: int | None = None
    excluded: int = 0
    zero_likelihood: bool = False
    params: FittedParams | None = None


@dataclass(frozen=True, kw_only=True)
class ReportRow(EntropyEstimate):
    """An estimate as ranked: its figures plus description, Akaike weight,
    noise fraction and rank."""

    description: str
    weight: float
    noise_fraction: float | None
    rank: int


@dataclass(frozen=True)
class EntropyReport:
    """Ranked objectives, worst first, with Akaike weights attached.

    base ("bits" or "nats") labels the report; the weights are computed
    once, by base-2 exponentiation of the bit entropies, whichever it is.
    """

    rows: tuple[ReportRow, ...]
    base: str
    adjusted: bool


def conditional_entropy_bits(loglik_nats: float, n: int) -> float:
    """-loglik / (n ln 2): bits per observation. -inf maps to +inf."""
    if n < 1:
        raise ZeroSampleCount(f"n must be >= 1, got {n}")
    return -loglik_nats / (n * _LN2)


def aic_adjusted_entropy(loglik_nats: float, n: int, k: int) -> float:
    """(-loglik + k) / (n ln 2): entropy corrected for in-sample optimism.

    k counts only the parameters that differ between the candidates being
    compared; parameters shared by every candidate are a constant and may
    be omitted.
    """
    if n < 1:
        raise ZeroSampleCount(f"n must be >= 1, got {n}")
    if k < 0:
        raise OrderingViolation(f"k must be >= 0, got {k}")
    return (-loglik_nats + k) / (n * _LN2)


def akaike_weights(
    entropies: Sequence[float] | np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Normalized evidence weights base**(-H_i) / sum(base**(-H_j)).

    The minimum finite entropy is subtracted before exponentiation for
    numerical stability; non-finite entries (zero-likelihood sentinels)
    receive weight 0.
    """
    h = np.asarray(entropies, dtype=np.float64)
    if h.size == 0:
        raise EmptyInput("entropies are empty")
    finite = np.isfinite(h)
    if not finite.any():
        raise EmptyInput("no finite entropies to weight")
    h_min = h[finite].min()
    weights = np.zeros(h.size, dtype=np.float64)
    weights[finite] = np.power(float(base), -(h[finite] - h_min))
    return weights / weights.sum()


def noise_fraction(h_bits: float, h_best_bits: float) -> float:
    """(H_i - H_best) / H_i: the share of an objective's bits that are
    excess over the best candidate."""
    if not (h_bits >= h_best_bits > 0):
        raise OrderingViolation(
            f"need H_i >= H_best > 0, got H_i={h_bits}, H_best={h_best_bits}"
        )
    return (h_bits - h_best_bits) / h_bits


def rank_objectives(
    estimates: Iterable[EntropyEstimate],
    base: str = "bits",
    adjusted: bool = False,
    descriptions: Mapping[str, str] | None = None,
) -> EntropyReport:
    """Rank estimates ascending by entropy and attach Akaike weights.

    Rank 1 is the minimum entropy (adjusted when requested); ties break
    toward fewer parameters, then name. Rows are returned worst first.
    Zero-likelihood sentinel estimates rank last with weight 0.
    """
    items = list(estimates)
    if not items:
        raise EmptyInput("no estimates to rank")
    if base not in ("bits", "nats"):
        raise EmptyInput(f"base must be 'bits' or 'nats', got {base!r}")
    descriptions = descriptions or {}

    def h_used(e: EntropyEstimate) -> float:
        h = e.h_adj_bits if adjusted else e.h_bits
        return float("inf") if e.zero_likelihood or not math.isfinite(h) else h

    order = sorted(items, key=lambda e: (h_used(e), e.k, e.name))
    h_col = np.array([h_used(e) for e in order])
    weights = akaike_weights(h_col, base=2.0)

    finite = h_col[np.isfinite(h_col)]
    h_best = float(finite.min())
    rows = []
    for rank, (est, w) in enumerate(zip(order, weights), start=1):
        h = h_used(est)
        nf = None
        if math.isfinite(h) and h >= h_best > 0:
            nf = noise_fraction(h, h_best)
        rows.append(ReportRow(
            **{f.name: getattr(est, f.name) for f in fields(EntropyEstimate)},
            description=descriptions.get(est.name, ""),
            weight=float(w),
            noise_fraction=nf,
            rank=rank,
        ))
    return EntropyReport(rows=tuple(reversed(rows)), base=base, adjusted=adjusted)


def adjust_expectation_lognormal(median: float, sigma: float) -> float:
    """Convert a median prediction to an expectation: median * exp(sigma^2/2).

    sigma is the standard deviation of the natural-log-scale errors.
    """
    if not median > 0:
        raise NonPositiveMedian(f"median must be > 0, got {median}")
    if sigma < 0:
        raise NegativeSigma(f"sigma must be >= 0, got {sigma}")
    return median * math.exp(0.5 * sigma * sigma)


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
    quantile at (1 + coverage) / 2.
    """
    if sigma < 0:
        raise NegativeSigma(f"sigma must be >= 0, got {sigma}")
    if not (0.0 < coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {coverage}")
    if style not in ("multiplicative", "additive"):
        raise InvalidCoverage(f"unknown interval style {style!r}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + coverage))
    if style == "multiplicative":
        if not center > 0:
            raise NonPositiveMedian(
                f"multiplicative interval requires center > 0, got {center}"
            )
        factor = math.exp(sigma * z)
        return center / factor, center * factor
    return center - sigma * z, center + sigma * z
