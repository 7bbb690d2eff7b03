"""The objective-function catalog: fitting and scoring as log-likelihoods.

Each objective is a (transform, base family, zero-inflation) triple. Its
scale parameter is fit by maximum likelihood on transformed training
residuals, and its total log-likelihood on evaluation data is the base
family's log-density of transformed residuals plus the transform's
log-Jacobian over observed values, plus a binomial term over zero-state
counts for zero-inflated objectives.

Transforms are linear or positive-domain. A linear objective's residual
is the exact difference o - p: identity leaves it as it is, and NSE's
per-location scale divides it by the location's sigma_o, the population
standard deviation of that location's observed values, with log-Jacobian
-sum(ln sigma_o) over its pairs. A positive-domain objective's residual is
v(o) - v(p) for a value map v of `transforms`.

Support rules:
  * linear objectives evaluate every pair;
  * positive-domain objectives (log, sqrt, reciprocal) without zero
    inflation exclude zero-state pairs and report the exclusion count;
  * zero-inflated objectives cover zero-state pairs through the binomial
    and the remaining pairs through the continuous part.
A pair is in the zero state when its observed value is at or below the
threshold: n1 such pairs are predicted at or below it too, n2 are not.
Positive pairs whose prediction is at or below the threshold are clamped
up to the threshold before a positive-domain transform is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateScale,
    DomainViolation,
    EmptyEvaluationSet,
    EmptyInput,
    InvalidModel,
    InvalidProbability,
    NonPositiveScale,
    NonPositiveThreshold,
    NoZeroState,
    ObjentropyError,
    UnknownObjective,
)
from .information import (
    EntropyEstimate,
    aic_adjusted_entropy,
    conditional_entropy_bits,
)
from .transforms import POSITIVE_DOMAIN_KINDS, apply, log_jacobian_terms
from .transforms import TRANSFORM_KINDS as _VALUE_KINDS

_LN_2PI = math.log(2.0 * math.pi)

# Default zero-state threshold in flow units (m^3/s); roughly 0.01 ft^3/s.
DEFAULT_ZERO_THRESHOLD = 0.0028


class _Family(NamedTuple):
    """A base family read through its sufficient statistic: the residuals
    enter its scale's MLE and its log-likelihood only through
    reduce(values(r)) and their count n. A segment's statistic is the
    reduction of its slice of values(r)."""

    values: Callable[[np.ndarray], np.ndarray]  # per residual
    reduce: Callable[[np.ndarray], float]
    fit: Callable[[float, int], float]  # (statistic, n) -> scale
    loglik: Callable[[float, int, float], float]  # (statistic, n, scale)
    scale_name: str


_FAMILIES: dict[str, _Family] = {
    # sigma = sqrt(sum r^2 / n);
    # loglik = -n ln sigma - (n/2) ln(2 pi) - sum r^2 / (2 sigma^2).
    "normal": _Family(
        lambda r: r * r, np.add.reduce, lambda s, n: math.sqrt(s / n),
        lambda s, n, sigma: (-n * math.log(sigma) - 0.5 * n * _LN_2PI
                             - s / (2.0 * sigma * sigma)), "sigma"),
    # b = sum |r| / n; loglik = -n ln(2b) - sum |r| / b.
    "laplace": _Family(
        np.abs, np.add.reduce, lambda s, n: s / n,
        lambda s, n, b: -n * math.log(2.0 * b) - s / b, "b"),
    # a = max |r|; the density is 1/(2a) on [-a, a], so loglik =
    # -n ln(2a) while every |r| <= a, else -inf (zero likelihood).
    # Densities above 1 make positive values legitimate.
    "uniform": _Family(
        np.abs, lambda v: np.maximum.reduce(v, initial=0.0), lambda s, n: s,
        lambda s, n, a: -n * math.log(2.0 * a) if s <= a else float("-inf"),
        "the bound"),
}


def _statistic(family: str, residuals: np.ndarray) -> float:
    fam = _FAMILIES[family]
    return float(fam.reduce(fam.values(residuals)))


BASE_FAMILIES = tuple(_FAMILIES)

# The value maps of `transforms`, then NSE's per-location scale, which is
# linear and divides each residual by its location's sigma_o.
TRANSFORM_KINDS = (*_VALUE_KINDS, "per-location-scale")


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective function viewed as a likelihood recipe."""

    name: str
    description: str
    transform_kind: str
    base_family: str
    zero_inflated: bool

    @property
    def k(self) -> int:
        """The objective's own parameter count: one scale, plus the
        zero-state rate when zero-inflated."""
        return 2 if self.zero_inflated else 1

    def __post_init__(self) -> None:
        if self.base_family not in BASE_FAMILIES:
            raise InvalidModel(f"unknown base family {self.base_family!r}")
        if self.transform_kind not in TRANSFORM_KINDS:
            raise InvalidModel(
                f"unknown transform {self.transform_kind!r}; expected one "
                f"of {TRANSFORM_KINDS}"
            )
        if self.zero_inflated and self.transform_kind not in POSITIVE_DOMAIN_KINDS:
            raise InvalidModel(
                f"{self.name}: zero inflation requires a positive-domain "
                "transform"
            )


@dataclass(frozen=True)
class FittedParams:
    """Maximum-likelihood parameters of one objective.

    scale is sigma (normal), b (laplace), or the bound a (uniform);
    rho is the zero-state success probability, None when the training data
    had no zero state.
    """

    scale: float
    rho: float | None = None


# Catalog in benchmark display order.
CATALOG: dict[str, ObjectiveSpec] = {
    spec.name: spec
    for spec in (
        ObjectiveSpec("MSPE", "mean squared percent error", "reciprocal", "normal", False),
        ObjectiveSpec("U", "uniformly distributed error", "identity", "uniform", False),
        ObjectiveSpec("MSE", "mean squared error", "identity", "normal", False),
        ObjectiveSpec("NSE", "normalized squared error", "per-location-scale", "normal", False),
        ObjectiveSpec("MAE", "mean absolute error", "identity", "laplace", False),
        ObjectiveSpec("MSLE", "mean squared log error", "natural-log", "normal", False),
        ObjectiveSpec("MARE", "mean absolute square root error", "square-root", "laplace", False),
        ObjectiveSpec("ZMSLE", "zero-inflated MSLE", "natural-log", "normal", True),
        ObjectiveSpec("MALE", "mean absolute log error", "natural-log", "laplace", False),
        ObjectiveSpec("ZMALE", "zero-inflated MALE", "natural-log", "laplace", True),
    )
}


def get_objective(name: str) -> ObjectiveSpec:
    """Look up a catalog objective by name."""
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownObjective(
            f"unknown objective {name!r}; valid names: {', '.join(CATALOG)}"
        ) from None


def resolve_objectives(selection: str | list[str]) -> list[ObjectiveSpec]:
    """Resolve "all" or a list/comma string of names to catalog specs; a
    name selected twice would count its evidence twice, so it raises."""
    if isinstance(selection, str):
        if selection.strip().lower() == "all":
            return list(CATALOG.values())
        names = [n.strip() for n in selection.split(",") if n.strip()]
    else:
        names = list(selection)
    if not names:
        raise EmptyInput("no objectives selected")
    specs = [get_objective(n) for n in names]
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise UnknownObjective(f"objective {repeated!r} is selected twice")
    return specs


def check_threshold(threshold: float) -> float:
    """threshold, once it is a zero-state threshold: > 0."""
    if not threshold > 0:
        raise NonPositiveThreshold(f"threshold must be > 0, got {threshold}")
    return threshold


# --- fits and log-likelihoods (nats) ---

def fit_scale(family: str, residuals: np.ndarray) -> float:
    """Maximum-likelihood scale of a base family on residuals: sigma =
    sqrt(mean r^2) (normal), b = mean |r| (laplace), or the bound
    a = max |r| (uniform)."""
    r = np.asarray(residuals, dtype=np.float64)
    return _fit(family, _statistic(family, r), r.size)


def loglik(family: str, residuals: np.ndarray, scale: float) -> float:
    """Log-likelihood of residuals under a base family at a scale; -inf
    when a residual lies beyond a uniform bound (zero likelihood)."""
    r = np.asarray(residuals, dtype=np.float64)
    return _loglik(family, _statistic(family, r), r.size, scale)


def _fit(family: str, statistic: float, n: int) -> float:
    if n == 0:
        raise EmptyInput("residuals are empty")
    fam = _FAMILIES[family]
    scale = fam.fit(statistic, n)
    if scale == 0.0:
        raise DegenerateScale(
            f"all residuals are zero; {fam.scale_name} is undefined"
        )
    return scale


def _loglik(family: str, statistic: float, n: int, scale: float) -> float:
    fam = _FAMILIES[family]
    if not scale > 0:
        raise NonPositiveScale(f"{fam.scale_name} must be > 0, got {scale}")
    return float(fam.loglik(statistic, n, scale))


def fit_binomial_rate(n1: int, n2: int) -> float:
    """Zero-state success probability rho = n1 / (n1 + n2)."""
    if n1 + n2 == 0:
        raise NoZeroState("no zero-state pairs; the mixture degenerates")
    return n1 / (n1 + n2)


def loglik_binomial(n1: int, n2: int, rho: float) -> float:
    """n1 ln(rho) + n2 ln(1 - rho), with the 0 ln 0 = 0 convention.

    Returns -inf when successes (or failures) occur at a fitted rate of
    exactly zero (or one), i.e. the zero-likelihood sentinel.
    """
    if not (0.0 <= rho <= 1.0):
        raise InvalidProbability(f"rho must lie in [0, 1], got {rho}")
    total = 0.0
    if n1:
        total += float("-inf") if rho == 0.0 else n1 * math.log(rho)
    if n2:
        total += float("-inf") if rho == 1.0 else n2 * math.log(1.0 - rho)
    return total


def _sigma_o(dataset: Dataset) -> np.ndarray:
    """NSE's sigma_o of each location of dataset, by location code: the
    population standard deviation of the location's observed values,
    exactly 0 where they are all equal (np.std can leave a few ULPs)."""
    observed = dataset.observed
    sigma = np.array([np.std(observed[rows]) for _, rows in dataset.rows()])
    starts = dataset.bounds[:-1]
    sigma[np.maximum.reduceat(observed, starts)
          == np.minimum.reduceat(observed, starts)] = 0.0
    return sigma


class _Frame(NamedTuple):
    """One dataset segment seen through one objective: the count of
    transformed residuals over the objective's support and their base
    family's statistic, the log-Jacobian summed over its observed values,
    and the zero-state counts n1 and n2 (both 0 where the transform's
    domain is not positive)."""

    n: int
    statistic: float
    log_jacobian: float
    n1: int
    n2: int


def _frames(
    spec: ObjectiveSpec,
    dataset: Dataset,
    threshold: float,
    bounds: Sequence[int],
) -> list[_Frame | ObjentropyError]:
    """The frame of each segment bounds[i]:bounds[i + 1] of dataset at a
    zero-state threshold, or the error that segment fails with: no pair
    above the threshold, or a location with sigma_o = 0. bounds run from 0
    to n along location boundaries.

    Each per-pair array is built once over the whole dataset, and each
    segment reduces its contiguous slice with the same numpy reduction a
    dataset of that segment alone would use, so a segment's frame is bit
    for bit the frame of that segment alone.
    """
    check_threshold(threshold)
    kind = spec.transform_kind
    obs, pred = dataset.observed, dataset.predicted
    bounds = [int(b) for b in bounds]
    segments = list(zip(bounds[:-1], bounds[1:]))
    failed: dict[int, ObjentropyError] = {}
    n1 = n2 = [0] * len(segments)
    # Each per-value array is reduced to per-segment sums and dropped
    # before the next one is formed, and obs is dropped once transformed,
    # so fewer n-value arrays are alive at once: this lowers peak memory.
    if kind in POSITIVE_DOMAIN_KINDS:
        positive = obs > threshold
        # Pairs outside n1: positive, or predicted above the threshold.
        outside_n1 = pred > threshold
        outside_n1 |= positive
        # Integer sums are exact in any order, so reduceat may count; no
        # segment is empty, as a Dataset has no empty location.
        n_pos, outside = (np.add.reduceat(mask, bounds[:-1], dtype=np.int64)
                          for mask in (positive, outside_n1))
        del outside_n1
        n1 = (np.diff(bounds) - outside).tolist()
        n2 = (outside - n_pos).tolist()
        for i in np.flatnonzero(n_pos == 0).tolist():
            failed[i] = EmptyEvaluationSet(
                "no pairs above the zero-state threshold")
        ends = [0, *np.cumsum(n_pos).tolist()]
        segments = list(zip(ends[:-1], ends[1:]))
        obs = obs[positive]
        pred = pred[positive]
        del positive
        np.maximum(pred, threshold, out=pred)
        log_jacobian = _segment_sums(log_jacobian_terms(kind, obs), segments)
        residuals = apply(kind, obs)
        del obs
        residuals -= apply(kind, pred)
        del pred
    elif kind == "per-location-scale":
        sigma = _sigma_o(dataset)
        zero = sigma == 0
        if zero.any():
            ids = dataset.location_ids
            edges = np.searchsorted(dataset.bounds, bounds).tolist()
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                bad = [ids[k] for k in range(lo, hi) if zero[k]]
                if bad:
                    failed[i] = DomainViolation(
                        f"sigma_o must be > 0 wherever used as a divisor; "
                        f"location {min(bad)!r} has sigma_o = 0.0"
                    )
            # Failed segments are not reduced; 1.0 keeps ln and division
            # finite and silent on their pairs.
            sigma[zero] = 1.0
        sigma = sigma[dataset.location_codes]
        terms = np.log(sigma)
        np.negative(terms, out=terms)
        log_jacobian = _segment_sums(terms, segments)
        del terms
        residuals = obs - pred
        residuals /= sigma
        del sigma
    else:  # identity
        log_jacobian = [0.0] * len(segments)
        residuals = obs - pred
    fam = _FAMILIES[spec.base_family]
    values = fam.values(residuals)
    del residuals
    return [
        failed[i] if i in failed else _Frame(
            b - a, float(fam.reduce(values[a:b])), log_jacobian[i],
            n1[i], n2[i])
        for i, (a, b) in enumerate(segments)
    ]


def _segment_sums(terms: np.ndarray, segments: list[tuple[int, int]]
                  ) -> list[float]:
    return [float(np.add.reduce(terms[a:b])) for a, b in segments]


def _fitted(spec: ObjectiveSpec, frame: _Frame) -> FittedParams:
    """Maximum-likelihood parameters of spec on frame."""
    scale = _fit(spec.base_family, frame.statistic, frame.n)
    rho = None
    if spec.zero_inflated and frame.n1 + frame.n2 > 0:
        rho = fit_binomial_rate(frame.n1, frame.n2)
    return FittedParams(scale=scale, rho=rho)


def evaluate_objective(
    spec: ObjectiveSpec,
    train: Dataset,
    test: Dataset,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> EntropyEstimate:
    """Fit the objective on train (NSE on train's sigma_o), then score it
    on test with `score_objective`; in sample (`test is train`) the fitted
    frame is scored as it is. The result carries the fitted parameters,
    and an error raised on either side names the objective.
    """
    try:
        (frame,) = _frames(spec, train, threshold, (0, train.n_total))
        if not isinstance(frame, _Frame):
            raise frame
        params = _fitted(spec, frame)
        if test is train:
            return _score(spec, params, frame)
        return score_objective(spec, params, test, threshold)
    except ObjentropyError as exc:
        raise type(exc)(f"objective {spec.name}: {exc}") from exc


def score_objective(
    spec: ObjectiveSpec,
    params: FittedParams,
    test: Dataset,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> EntropyEstimate:
    """Evaluate the objective on test with frozen parameters.

    test's pairs split into the zero state and positive pairs at the
    threshold the fit used. A per-location-scale transform (NSE) takes
    sigma_o from test's own observed values, as NSE is defined per
    evaluated series; where a location's sigma_o is 0, test gets the
    zero-likelihood sentinel, as an out-of-support uniform bound does.
    """
    (frame,) = _frames(spec, test, threshold, (0, test.n_total))
    if isinstance(frame, DomainViolation):
        frame = _Frame(test.n_total, 0.0, float("-inf"), 0, 0)
    elif not isinstance(frame, _Frame):
        raise frame
    return _score(spec, params, frame)


def _score(
    spec: ObjectiveSpec, params: FittedParams, frame: _Frame
) -> EntropyEstimate:
    total = _loglik(spec.base_family, frame.statistic, frame.n, params.scale)
    total += frame.log_jacobian
    n_eval = frame.n
    n_zero = frame.n1 + frame.n2
    if spec.zero_inflated:
        n_eval += n_zero
        if n_zero:
            if params.rho is None:
                # Zero state never seen in training: the fitted mixture
                # assigns it no probability.
                total = float("-inf")
            else:
                total += loglik_binomial(frame.n1, frame.n2, params.rho)
    return EntropyEstimate(
        name=spec.name,
        k=spec.k,
        h_bits=conditional_entropy_bits(total, n_eval),
        h_adj_bits=aic_adjusted_entropy(total, n_eval, spec.k),
        loglik_nats=total,
        n_eval=n_eval,
        excluded=0 if spec.zero_inflated else n_zero,
        zero_likelihood=not math.isfinite(total),
        params=params,
    )
