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

Fits and scores are numpy formulas over columns of dataset segments; one
segment is a column of one. Objectives that share a transform share one
pass over the pairs: one residual array per transform, reduced to each of
their families' statistics.
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

_LN_2PI = float(np.log(2.0 * np.pi))

# Default zero-state threshold in flow units (m^3/s); roughly 0.01 ft^3/s.
DEFAULT_ZERO_THRESHOLD = 0.0028


class _Family(NamedTuple):
    """A base family read through its sufficient statistic: the residuals
    r enter its scale's MLE and its log-likelihood only through
    statistic(r) and their count n. fit and loglik are numpy formulas that
    take one segment or a column of segments alike."""

    statistic: Callable[[np.ndarray], float]
    fit: Callable[..., np.ndarray]  # (statistic, n) -> scale
    loglik: Callable[..., np.ndarray]  # (statistic, n, scale)
    scale_name: str


_FAMILIES: dict[str, _Family] = {
    # sigma = sqrt(sum r^2 / n);
    # loglik = -n ln sigma - (n/2) ln(2 pi) - sum r^2 / (2 sigma^2).
    "normal": _Family(
        lambda r: np.add.reduce(r * r), lambda s, n: np.sqrt(s / n),
        lambda s, n, sigma: (-n * np.log(sigma) - 0.5 * n * _LN_2PI
                             - s / (2.0 * sigma * sigma)), "sigma"),
    # b = sum |r| / n; loglik = -n ln(2b) - sum |r| / b.
    "laplace": _Family(
        lambda r: np.add.reduce(np.abs(r)), lambda s, n: s / n,
        lambda s, n, b: -n * np.log(2.0 * b) - s / b, "b"),
    # a = max |r|; the density is 1/(2a) on [-a, a], so loglik =
    # -n ln(2a) while every |r| <= a, else -inf (zero likelihood).
    # Densities above 1 make positive values legitimate.
    "uniform": _Family(
        lambda r: np.maximum.reduce(np.abs(r), initial=0.0), lambda s, n: s,
        lambda s, n, a: np.where(s <= a, -n * np.log(2.0 * a), -np.inf),
        "the bound"),
}


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
    """threshold, once it is a zero-state threshold: finite and > 0."""
    if not 0 < threshold < math.inf:
        raise NonPositiveThreshold(
            f"threshold must be finite and > 0, got {threshold}")
    return threshold


# --- fits and log-likelihoods (nats) ---

def _degenerate(family: str) -> DegenerateScale:
    return DegenerateScale(f"all residuals are zero; "
                           f"{_FAMILIES[family].scale_name} is undefined")


def _check_scale(family: str, scale: float) -> None:
    if not scale > 0:
        raise NonPositiveScale(
            f"{_FAMILIES[family].scale_name} must be > 0, got {scale}")


def _check_rate(rho: float) -> None:
    if not (0.0 <= rho <= 1.0):
        raise InvalidProbability(f"rho must lie in [0, 1], got {rho}")


def _binomial(n1, n2, rho):
    """n1 ln(rho) + n2 ln(1 - rho) of each segment: a count of 0 adds 0,
    whatever rho is."""
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0, 0 ln 0
        return (np.where(n1 > 0, n1 * np.log(rho), 0.0)
                + np.where(n2 > 0, n2 * np.log(1.0 - rho), 0.0))


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


class _Frames(NamedTuple):
    """Dataset segments seen through one transform, as columns: the count n
    of transformed residuals over the transform's support, each requested
    base family's statistic of them by family name, the log-Jacobian summed
    over their observed values, and the zero-state counts n1 and n2 (0
    where the transform's domain is not positive). errors maps each failed
    segment to its error."""

    n: np.ndarray
    statistic: dict[str, np.ndarray]
    log_jacobian: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    errors: dict[int, ObjentropyError]


def _frames(
    specs: Sequence[ObjectiveSpec],
    dataset: Dataset,
    threshold: float,
    bounds: Sequence[int],
) -> _Frames:
    """The frames of the segments bounds[i]:bounds[i + 1] of dataset at a
    zero-state threshold, for objectives that share one transform. A
    segment fails with no pair above the threshold, or with a location
    whose sigma_o = 0; such an NSE segment also carries log-Jacobian -inf,
    the zero-likelihood sentinel. bounds run from 0 to n along location
    boundaries.

    Each per-pair array is built once over the whole dataset, and each
    segment reduces its contiguous slice with the same numpy reduction a
    dataset of that segment alone would use, so a segment's frame is bit
    for bit the frame of that segment alone. The one residual array is
    reduced to each family's statistic in turn.
    """
    check_threshold(threshold)
    (kind,) = {spec.transform_kind for spec in specs}
    obs, pred = dataset.observed, dataset.predicted
    n = np.diff(bounds)
    n1 = n2 = np.zeros_like(n)
    errors: dict[int, ObjentropyError] = {}
    # At most two per-pair float arrays are alive at once beside the
    # dataset's: each per-pair array is reduced to per-segment sums and
    # dropped before the next one is formed, and the positive pairs'
    # values are transformed in place, the residuals in obs's buffer.
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
        n1, n2, n = n - outside, outside - n_pos, n_pos
        for i in np.flatnonzero(n == 0).tolist():
            errors[i] = EmptyEvaluationSet(
                "no pairs above the zero-state threshold")
        obs = obs[positive]
        log_jacobian = _per_segment(np.add.reduce,
                                    log_jacobian_terms(kind, obs), n)
        pred = pred[positive]
        del positive
        np.maximum(pred, threshold, out=pred)
        residuals = apply(kind, obs, out=obs)
        residuals -= apply(kind, pred, out=pred)
        del obs, pred
    elif kind == "per-location-scale":
        sigma = _sigma_o(dataset)
        zero = sigma == 0
        ids = dataset.location_ids
        segment = np.searchsorted(bounds, dataset.bounds[:-1], "right") - 1
        # By id: a segment's error names its least location.
        for k in sorted(np.flatnonzero(zero).tolist(), key=ids.__getitem__):
            errors.setdefault(int(segment[k]), DomainViolation(
                f"sigma_o must be > 0 wherever used as a divisor; "
                f"location {ids[k]!r} has sigma_o = 0.0"))
        # 1.0 keeps ln and division finite and silent on failed segments.
        sigma[zero] = 1.0
        # ln sigma_o is summed over pairs, as the pairwise sum's bits need,
        # but each location divides its own slice: no per-pair sigma_o.
        log_jacobian = -_per_segment(
            np.add.reduce, np.repeat(np.log(sigma), np.diff(dataset.bounds)), n)
        log_jacobian[list(errors)] = -np.inf
        residuals = obs - pred
        for s, (_, rows) in zip(sigma.tolist(), dataset.rows()):
            residuals[rows] /= s
    else:  # identity
        log_jacobian = np.zeros(n.size)
        residuals = obs - pred
    statistic = {family: _per_segment(_FAMILIES[family].statistic,
                                      residuals, n)
                 for family in dict.fromkeys(s.base_family for s in specs)}
    return _Frames(n, statistic, log_jacobian, n1, n2, errors)


def _per_segment(reduce: Callable[[np.ndarray], float], values: np.ndarray,
                 n: np.ndarray) -> np.ndarray:
    """reduce of each consecutive slice of values, of lengths n."""
    ends = [0, *np.cumsum(n).tolist()]
    return np.array([reduce(values[a:b]) for a, b in zip(ends, ends[1:])],
                    dtype=np.float64)


def _fit(spec: ObjectiveSpec, frames: _Frames
         ) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood scale and zero-state rate rho of spec on each
    segment of frames: scale is 0 where every residual is zero, and rho is
    NaN where the segment has no zero state."""
    family = spec.base_family
    with np.errstate(invalid="ignore"):  # 0/0: no pairs, or no zero state
        return (_FAMILIES[family].fit(frames.statistic[family], frames.n),
                frames.n1 / (frames.n1 + frames.n2))


def _loglik(spec: ObjectiveSpec, frames: _Frames, scale, rho
            ) -> tuple[np.ndarray, np.ndarray]:
    """spec's total log-likelihood at scale and rho on each segment of
    frames, and the count of pairs each total covers."""
    family = spec.base_family
    with np.errstate(divide="ignore", invalid="ignore"):  # at scale 0
        total = _FAMILIES[family].loglik(
            frames.statistic[family], frames.n, scale) + frames.log_jacobian
    if not spec.zero_inflated:
        return total, frames.n
    binomial = _binomial(frames.n1, frames.n2, rho)
    # NaN where a zero state meets rho = NaN: training never saw one, so
    # the fitted mixture assigns it no probability.
    return (np.where(np.isnan(binomial), -np.inf, total + binomial),
            frames.n + frames.n1 + frames.n2)


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
        frames = _frames((spec,), train, threshold, (0, train.n_total))
        for error in frames.errors.values():
            raise error
        (scale,), (rho,) = _fit(spec, frames)
        if scale == 0:
            raise _degenerate(spec.base_family)
        params = FittedParams(float(scale), float(rho) if spec.zero_inflated
                              and not math.isnan(rho) else None)
        if test is train:
            return _estimate(spec, params, frames)
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
    frames = _frames((spec,), test, threshold, (0, test.n_total))
    for error in frames.errors.values():
        if not isinstance(error, DomainViolation):
            raise error
    _check_scale(spec.base_family, params.scale)
    if spec.zero_inflated and params.rho is not None:
        _check_rate(params.rho)
    return _estimate(spec, params, frames)


def _estimate(
    spec: ObjectiveSpec, params: FittedParams, frames: _Frames
) -> EntropyEstimate:
    """spec's estimate at params on the one segment of frames."""
    rho = math.nan if params.rho is None else params.rho
    (total,), (n_eval,) = _loglik(spec, frames, params.scale, rho)
    total, n_eval = float(total), int(n_eval)
    return EntropyEstimate(
        spec.name, spec.k, conditional_entropy_bits(total, n_eval),
        aic_adjusted_entropy(total, n_eval, spec.k), total, n_eval,
        excluded=int(frames.n[0] + frames.n1[0] + frames.n2[0]) - n_eval,
        zero_likelihood=not math.isfinite(total), params=params)
