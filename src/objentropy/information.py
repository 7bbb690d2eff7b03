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
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInput, OrderingViolation, ZeroSampleCount
# The closed-form adjustments need no numpy; they are these same objects.
from .plain import _exp, adjust_expectation_lognormal, prediction_interval

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
    """Ranked objectives, worst first, with Akaike weights attached."""

    rows: tuple[ReportRow, ...]
    adjusted: bool


def conditional_entropy_bits(loglik_nats: float, n: int) -> float:
    """-loglik / (n ln 2): bits per observation. -inf maps to +inf. Takes
    numbers or arrays alike."""
    if np.any(n < 1):
        raise ZeroSampleCount(f"n must be >= 1, got {np.min(n)}")
    return -loglik_nats / (n * _LN2)


def aic_adjusted_entropy(loglik_nats: float, n: int, k: int) -> float:
    """(-loglik + k) / (n ln 2): entropy corrected for in-sample optimism.

    k counts only the parameters that differ between the candidates being
    compared; parameters shared by every candidate are a constant and may
    be omitted. Takes numbers or arrays alike.
    """
    if np.any(n < 1):
        raise ZeroSampleCount(f"n must be >= 1, got {np.min(n)}")
    if k < 0:
        raise OrderingViolation(f"k must be >= 0, got {k}")
    return (-loglik_nats + k) / (n * _LN2)


def akaike_weights(entropies: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized evidence weights 2**(-H_i) / sum(2**(-H_j)) of entropies
    in bits.

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
    weights[finite] = np.power(2.0, -(h[finite] - h_min))
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
    adjusted: bool = False,
    descriptions: Mapping[str, str] | None = None,
) -> EntropyReport:
    """Rank estimates ascending by entropy and attach Akaike weights.

    Rank 1 is the minimum entropy (adjusted when requested); ties break
    toward fewer parameters, then name. Rows are returned worst first.
    Zero-likelihood sentinel estimates rank last with weight 0; when every
    estimate is one, no ranking exists, so it raises.
    """
    items = list(estimates)
    if not items:
        raise EmptyInput("no estimates to rank")
    descriptions = descriptions or {}

    def h_used(e: EntropyEstimate) -> float:
        h = e.h_adj_bits if adjusted else e.h_bits
        if e.zero_likelihood or not math.isfinite(h):
            return math.inf
        return float(h)  # ranks in float64 whatever h's type

    order = sorted(items, key=lambda e: (h_used(e), e.k, e.name))
    h_col = np.array([h_used(e) for e in order])
    if not np.isfinite(h_col).any():
        raise EmptyInput(
            "every objective has zero likelihood: "
            f"{', '.join(e.name for e in items)}; none can be ranked")
    weights = akaike_weights(h_col)

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
    return EntropyReport(rows=tuple(reversed(rows)), adjusted=adjusted)
