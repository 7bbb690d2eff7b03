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

Every float total follows one rule: reduce each location's slice with
numpy, then take the `math.fsum` of the locations' partials (U's maximum
of them; counts are integer sums). The fsum is exactly rounded, so a total
does not depend on the order of the locations, nor on how they are
grouped: blocks of whole locations reduced apart (see `location_frames`)
give a whole dataset's bits, and a one-location segment keeps its
partial's bits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
from .plain import DEFAULT_ZERO_THRESHOLD
from .transforms import POSITIVE_DOMAIN_KINDS, apply, log_jacobian_terms
from .transforms import TRANSFORM_KINDS as _VALUE_KINDS

_LN_2PI = float(np.log(2.0 * np.pi))


def _fsum(partials: Iterable[float]) -> float:
    """The exactly rounded sum of partials; inf where it overflows, which
    only a statistic's non-negative partials can do."""
    try:
        return math.fsum(partials)
    except OverflowError:
        return math.inf


class _Family(NamedTuple):
    """A base family read through its sufficient statistic: the residuals
    r enter its scale's MLE and its log-likelihood only through
    statistic(r) and their count n. statistic reduces r's last axis, total
    combines the statistics of locations into a segment's, and fit and
    loglik are numpy formulas that take one segment or a column of segments
    alike."""

    statistic: Callable[[np.ndarray], np.ndarray]
    total: Callable[[list[float]], float]
    fit: Callable[..., np.ndarray]  # (statistic, n) -> scale
    loglik: Callable[..., np.ndarray]  # (statistic, n, scale)
    scale_name: str


_FAMILIES: dict[str, _Family] = {
    # sigma = sqrt(sum r^2 / n);
    # loglik = -n ln sigma - (n/2) ln(2 pi) - sum r^2 / (2 sigma^2).
    "normal": _Family(
        lambda r: np.add.reduce(r * r, axis=-1), _fsum,
        lambda s, n: np.sqrt(s / n),
        lambda s, n, sigma: (-n * np.log(sigma) - 0.5 * n * _LN_2PI
                             - s / (2.0 * sigma * sigma)), "sigma"),
    # b = sum |r| / n; loglik = -n ln(2b) - sum |r| / b.
    "laplace": _Family(
        lambda r: np.add.reduce(np.abs(r), axis=-1), _fsum,
        lambda s, n: s / n,
        lambda s, n, b: -n * np.log(2.0 * b) - s / b, "b"),
    # a = max |r|; the density is 1/(2a) on [-a, a], so loglik =
    # -n ln(2a) while every |r| <= a, else -inf (zero likelihood).
    # Densities above 1 make positive values legitimate.
    "uniform": _Family(
        lambda r: np.maximum.reduce(np.abs(r), axis=-1, initial=0.0), max,
        lambda s, n: s,
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
    sigma = _per_location(lambda block: np.std(block, axis=-1), observed,
                          np.diff(dataset.bounds))
    starts = dataset.bounds[:-1]
    sigma[np.maximum.reduceat(observed, starts)
          == np.minimum.reduceat(observed, starts)] = 0.0
    return sigma


class _Frames(NamedTuple):
    """Dataset locations, or a segment of them, seen through one transform,
    as columns: the count n of transformed residuals over the transform's
    support, each requested base family's statistic of them by family
    name, the log-Jacobian summed over their observed values, and the
    zero-state counts n1 and n2 (0 where the transform's domain is not
    positive). errors maps each failed location or segment to its error."""

    n: np.ndarray
    statistic: dict[str, np.ndarray]
    log_jacobian: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    errors: dict[int, ObjentropyError]


def _frames(
    specs: Sequence[ObjectiveSpec], dataset: Dataset, threshold: float,
) -> _Frames:
    """The frame of each location of dataset at a zero-state threshold,
    for objectives that share one transform. A location fails where NSE's
    sigma_o = 0, and then carries log-Jacobian -inf, the zero-likelihood
    sentinel. A location with no pair above the threshold has n = 0; only
    a segment with none fails for it (see _total).

    Each per-pair array is built once over the whole dataset, and each
    location reduces its contiguous slice with the same numpy reduction a
    dataset of that location alone would use (see _per_location), so a
    location's frame is bit for bit the frame of that location alone. The
    one residual array is reduced to each family's statistic in turn. A
    segment of locations is never reduced as one slice: its float totals
    are the fsum of its locations' partials (see _total).
    """
    check_threshold(threshold)
    (kind,) = {spec.transform_kind for spec in specs}
    obs, pred = dataset.observed, dataset.predicted
    n = np.diff(dataset.bounds)
    n1 = n2 = np.zeros_like(n)
    errors: dict[int, ObjentropyError] = {}
    # At most two per-pair float arrays are alive at once beside the
    # dataset's: each per-pair array is reduced to per-location sums and
    # dropped before the next one is formed, and the positive pairs'
    # values are transformed in place, the residuals in obs's buffer.
    if kind in POSITIVE_DOMAIN_KINDS:
        positive = obs > threshold
        # Pairs outside n1: positive, or predicted above the threshold.
        outside_n1 = pred > threshold
        outside_n1 |= positive
        # Integer sums are exact in any order, so reduceat may count; no
        # location is empty.
        n_pos, outside = (np.add.reduceat(mask, dataset.bounds[:-1],
                                          dtype=np.int64)
                          for mask in (positive, outside_n1))
        del outside_n1
        n1, n2, n = n - outside, outside - n_pos, n_pos
        obs = obs[positive]
        log_jacobian = _per_location(_sum, log_jacobian_terms(kind, obs), n)
        pred = pred[positive]
        del positive
        np.maximum(pred, threshold, out=pred)
        residuals = apply(kind, obs, out=obs)
        residuals -= apply(kind, pred, out=pred)
        del obs, pred
    elif kind == "per-location-scale":
        sigma = _sigma_o(dataset)
        zero = sigma == 0
        for k in np.flatnonzero(zero).tolist():
            errors[k] = DomainViolation(
                f"sigma_o must be > 0 wherever used as a divisor; "
                f"location {dataset.location_ids[k]!r} has sigma_o = 0.0")
        # 1.0 keeps ln and division finite and silent on failed locations.
        sigma[zero] = 1.0
        # ln sigma_o is summed over pairs, as the pairwise sum's bits need,
        # but each location divides its own slice: no per-pair sigma_o.
        log_jacobian = -_per_location(_sum, np.repeat(np.log(sigma), n), n)
        log_jacobian[zero] = -np.inf
        residuals = obs - pred
        for s, (_, rows) in zip(sigma.tolist(), dataset.rows()):
            residuals[rows] /= s
    else:  # identity
        log_jacobian = np.zeros(n.size)
        residuals = obs - pred
    statistic = {family: _per_location(_FAMILIES[family].statistic,
                                       residuals, n)
                 for family in dict.fromkeys(s.base_family for s in specs)}
    return _Frames(n, statistic, log_jacobian, n1, n2, errors)


def _sum(values: np.ndarray) -> np.ndarray:
    return np.add.reduce(values, axis=-1)


# Values gathered into one array by _per_location: its working memory does
# not grow with the pairs.
_GATHER = 1 << 12


def _per_location(reduce: Callable[[np.ndarray], np.ndarray],
                  values: np.ndarray, n: np.ndarray) -> np.ndarray:
    """reduce of each consecutive slice of values, of lengths n, where
    reduce reduces the last axis of a 2-D array.

    numpy reduces each row of a C-contiguous 2-D array as it reduces that
    row alone, so the slices of one length are gathered as the rows of one
    array, at most _GATHER values at a time: one call per length, not per
    slice, and each result has the bits of its slice reduced alone.
    """
    starts = np.cumsum(n) - n
    out = np.empty(n.size)
    # The slices by length: those of one length are adjacent in order.
    order = np.argsort(n, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(n[order])) + 1).tolist(), n.size]
    for first, end in zip(edges, edges[1:]):
        length = int(n[order[first]])
        step = max(1, _GATHER // max(length, 1))
        for i in range(first, end, step):
            rows = order[i:min(i + step, end)]
            if rows.size == 1:  # a view, however long the slice
                start = int(starts[rows[0]])
                block = values[np.newaxis, start:start + length]
            else:
                block = values[starts[rows, np.newaxis] + np.arange(length)]
            out[rows] = reduce(block)
    return out


def _total(parts: Sequence[_Frames], location_ids: Sequence[str]) -> _Frames:
    """The frame of one segment from its locations' frames, which parts
    hold in order and location_ids names. Each float total is the fsum of
    the locations' partials (U's statistic is their maximum) and each count
    their integer sum, so the total does not depend on their order or on
    how parts groups them. The segment fails with no pair over the
    transform's support, or with the error of its least failed location
    id."""

    def total(combine: Callable[[list[float]], float],
              columns: Iterable[np.ndarray]) -> np.ndarray:
        return np.array([combine(np.concatenate(list(columns)).tolist())])

    failed: dict[str, ObjentropyError] = {}
    offset = 0
    for part in parts:
        failed.update((location_ids[offset + i], error)
                      for i, error in part.errors.items())
        offset += part.n.size
    n = sum(int(part.n.sum()) for part in parts)
    errors: dict[int, ObjentropyError] = {}
    if failed:
        errors[0] = failed[min(failed)]
    elif n == 0:
        errors[0] = EmptyEvaluationSet(
            "no pairs above the zero-state threshold")
    return _Frames(
        np.array([n]),
        {family: total(_FAMILIES[family].total,
                       (part.statistic[family] for part in parts))
         for family in parts[0].statistic},
        total(_fsum, (part.log_jacobian for part in parts)),
        np.array([sum(int(part.n1.sum()) for part in parts)]),
        np.array([sum(int(part.n2.sum()) for part in parts)]),
        errors)


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


def _fitted(spec: ObjectiveSpec, frames: _Frames) -> FittedParams:
    """spec's fitted parameters on the one segment of frames. Raises the
    segment's error, or DegenerateScale where every residual is zero."""
    for error in frames.errors.values():
        raise error
    (scale,), (rho,) = _fit(spec, frames)
    if scale == 0:
        raise _degenerate(spec.base_family)
    return FittedParams(float(scale), float(rho) if spec.zero_inflated
                        and not math.isnan(rho) else None)


@contextmanager
def _named(spec: ObjectiveSpec) -> Iterator[None]:
    """The block, with each error it raises naming spec's objective."""
    try:
        yield
    except ObjentropyError as exc:
        raise type(exc)(f"objective {spec.name}: {exc}") from exc


# The location frames of blocks of whole locations (see location_frames).
_Blocks = Sequence[tuple[tuple[str, ...], dict[str, _Frames]]]


def evaluate_objective(
    spec: ObjectiveSpec,
    train: Dataset | _Blocks,
    test: Dataset | _Blocks,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> EntropyEstimate:
    """Fit the objective on train (NSE on train's sigma_o), then score it
    on test as `score_objective` does; in sample (`test is train`) the
    fitted frame is scored as it is. The result carries the fitted
    parameters, and an error raised on either side names the objective.

    Each side is a dataset, or the `location_frames` of blocks of whole
    locations at threshold: either gives the same bits, or raises the
    same error, however the locations are blocked or ordered.
    """
    with _named(spec):
        check_threshold(threshold)
        frames = _segment(spec, train, threshold)
        params = _fitted(spec, frames)
        if test is train:
            return _estimate(spec, params, frames)
        return _scored(spec, params, _segment(spec, test, threshold))


def location_frames(
    specs: Sequence[ObjectiveSpec],
    dataset: Dataset,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> tuple[tuple[str, ...], dict[str, _Frames]]:
    """dataset's location ids, and its locations' frames for each transform
    of specs: what `evaluate_objective` needs of a block of whole
    locations. It grows with the locations, not with the pairs."""
    kinds = dict.fromkeys(spec.transform_kind for spec in specs)
    return dataset.location_ids, {
        kind: _frames([s for s in specs if s.transform_kind == kind],
                      dataset, threshold)
        for kind in kinds}


def _segment(spec: ObjectiveSpec, side: Dataset | _Blocks, threshold: float
             ) -> _Frames:
    """The frame of spec's transform on every location of side, a dataset
    or the location frames of blocks, as one segment."""
    if isinstance(side, Dataset):
        side = [location_frames((spec,), side, threshold)]
    return _total([kinds[spec.transform_kind] for _, kinds in side],
                  [i for block_ids, _ in side for i in block_ids])


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
    return _scored(spec, params, _segment(spec, test, threshold))


def _scored(spec: ObjectiveSpec, params: FittedParams, frames: _Frames
            ) -> EntropyEstimate:
    """spec's estimate at frozen params on the one segment of frames.
    Raises the segment's error but a failed sigma_o, which scores as the
    zero-likelihood sentinel, and for params out of their range."""
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
