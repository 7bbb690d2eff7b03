"""The objective-function catalog: fitting and scoring as log-likelihoods.

Each objective is a (transform, base family, zero-inflation) triple. Its
scale parameter is fit by maximum likelihood on transformed training
residuals, and its total log-likelihood on evaluation data is the base
family's log-density of transformed residuals plus the transform's
log-Jacobian over observed values, plus a binomial term over zero-state
counts for zero-inflated objectives.

Support rules:
  * identity and per-location-scale objectives evaluate every pair;
  * positive-domain objectives (log, sqrt, reciprocal) without zero
    inflation exclude zero-state pairs and report the exclusion count;
  * zero-inflated objectives cover zero-state pairs through the binomial
    and the remaining pairs through the continuous part.
Positive pairs whose prediction is at or below the threshold are clamped
up to the threshold before a positive-domain transform is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, ZeroPartition, partition_zero_state
from .errors import (
    DegenerateScale,
    DomainViolation,
    EmptyEvaluationSet,
    EmptyInput,
    InvalidModel,
    InvalidProbability,
    NonPositiveScale,
    NoZeroState,
    UnknownObjective,
)
from .information import (
    EntropyEstimate,
    aic_adjusted_entropy,
    conditional_entropy_bits,
)
from .transforms import (
    POSITIVE_DOMAIN_KINDS,
    TRANSFORM_KINDS,
    apply,
    log_jacobian_sum,
)

_LN_2PI = math.log(2.0 * math.pi)


class _Family(NamedTuple):
    """A base family read through its sufficient statistic: the residuals
    enter its scale's MLE and its log-likelihood only through statistic(r)
    and their count n."""

    statistic: Callable[[np.ndarray], float]
    fit: Callable[[float, int], float]  # (statistic, n) -> scale
    loglik: Callable[[float, int, float], float]  # (statistic, n, scale)
    scale_name: str


_FAMILIES: dict[str, _Family] = {
    # sigma = sqrt(sum r^2 / n);
    # loglik = -n ln sigma - (n/2) ln(2 pi) - sum r^2 / (2 sigma^2).
    "normal": _Family(
        lambda r: float(np.sum(r * r)), lambda s, n: math.sqrt(s / n),
        lambda s, n, sigma: (-n * math.log(sigma) - 0.5 * n * _LN_2PI
                             - s / (2.0 * sigma * sigma)), "sigma"),
    # b = sum |r| / n; loglik = -n ln(2b) - sum |r| / b.
    "laplace": _Family(
        lambda r: float(np.sum(np.abs(r))), lambda s, n: s / n,
        lambda s, n, b: -n * math.log(2.0 * b) - s / b, "b"),
    # a = max |r|; loglik = -n ln a while every |r| <= a, else -inf (zero
    # likelihood). Densities above 1 make positive values legitimate.
    "uniform": _Family(
        lambda r: float(np.max(np.abs(r), initial=0.0)), lambda s, n: s,
        lambda s, n, a: -n * math.log(a) if s <= a else float("-inf"),
        "the bound"),
}

BASE_FAMILIES = tuple(_FAMILIES)


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
    """Resolve "all" or a list/comma string of names to catalog specs."""
    if isinstance(selection, str):
        if selection.strip().lower() == "all":
            return list(CATALOG.values())
        names = [n.strip() for n in selection.split(",") if n.strip()]
    else:
        names = list(selection)
    if not names:
        raise EmptyInput("no objectives selected")
    return [get_objective(n) for n in names]


# --- fits and log-likelihoods (nats) ---

def fit_scale(family: str, residuals: np.ndarray) -> float:
    """Maximum-likelihood scale of a base family on residuals: sigma =
    sqrt(mean r^2) (normal), b = mean |r| (laplace), or the bound
    a = max |r| (uniform)."""
    r = np.asarray(residuals, dtype=np.float64)
    return _fit(family, _FAMILIES[family].statistic(r), r.size)


def loglik(family: str, residuals: np.ndarray, scale: float) -> float:
    """Log-likelihood of residuals under a base family at a scale; -inf
    when a residual lies beyond a uniform bound (zero likelihood)."""
    r = np.asarray(residuals, dtype=np.float64)
    return _loglik(family, _FAMILIES[family].statistic(r), r.size, scale)


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


def fit_binomial_rate(partition: ZeroPartition) -> float:
    """Zero-state success probability rho = n1 / (n1 + n2)."""
    total = partition.n1 + partition.n2
    if total == 0:
        raise NoZeroState("no zero-state pairs; the mixture degenerates")
    return partition.n1 / total


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
    population standard deviation of the location's observed values."""
    observed = dataset.observed
    sigma = np.array([np.std(observed[rows]) for _, rows in dataset.rows()])
    if not sigma.all():
        bad = min(loc for loc, s in zip(dataset.location_ids, sigma) if s == 0)
        raise DomainViolation(
            f"sigma_o must be > 0 wherever used as a divisor; location "
            f"{bad!r} has sigma_o = 0.0"
        )
    return sigma


class _Frame(NamedTuple):
    """One dataset seen through one objective: the count of transformed
    residuals over the objective's support and their base family's
    statistic, the log-Jacobian summed over its observed values (None on a
    fit-only frame), and the count of pairs left out."""

    n: int
    statistic: float
    log_jacobian: float | None
    excluded: int


def _evaluation_frame(
    spec: ObjectiveSpec,
    dataset: Dataset,
    partition: ZeroPartition,
    fitted: bool = True,
    scored: bool = True,
) -> _Frame:
    """The frame of dataset. A fitted frame raises where sigma_o = 0; a
    frame only scored gets the zero-likelihood sentinel there, as an
    out-of-support uniform bound does."""
    positive = spec.transform_kind in POSITIVE_DOMAIN_KINDS
    if positive or spec.zero_inflated:
        idx = partition.positive_idx
        if idx.size == 0:
            raise EmptyEvaluationSet(
                f"{spec.name}: no pairs above the zero-state threshold"
            )
        obs = dataset.observed[idx]
        pred = np.maximum(dataset.predicted[idx], partition.threshold)
        excluded = 0 if spec.zero_inflated else partition.n1 + partition.n2
    else:
        idx = slice(None)
        obs = dataset.observed
        pred = dataset.predicted
        excluded = 0
    kind = spec.transform_kind
    sigma = None
    if kind == "per-location-scale":
        try:
            sigma = _sigma_o(dataset)[dataset.location_codes[idx]]
        except DomainViolation:
            if fitted:
                raise
            return _Frame(obs.size, 0.0, float("-inf"), excluded)
    # The log-Jacobian is summed first and obs is dropped once transformed,
    # so fewer n-value arrays are alive at once: this lowers peak memory.
    log_jacobian = log_jacobian_sum(kind, obs, sigma) if scored else None
    residuals = apply(kind, obs, sigma)
    del obs
    residuals -= apply(kind, pred, sigma)
    statistic = _FAMILIES[spec.base_family].statistic(residuals)
    return _Frame(residuals.size, statistic, log_jacobian, excluded)


def evaluate_objective(
    spec: ObjectiveSpec,
    train: Dataset,
    test: Dataset,
    partition: ZeroPartition,
) -> EntropyEstimate:
    """Fit the objective on train and evaluate it on test.

    `partition` is the train dataset's zero-state partition; when test is a
    different dataset its partition is derived at the same threshold. A
    per-location-scale transform (NSE) takes sigma_o from the dataset it
    is applied to: the fit uses train's, the score test's. The result
    carries the fitted parameters.
    """
    frame = _evaluation_frame(spec, train, partition, scored=test is train)
    scale = _fit(spec.base_family, frame.statistic, frame.n)
    rho = None
    if spec.zero_inflated and (partition.n1 + partition.n2) > 0:
        rho = fit_binomial_rate(partition)
    params = FittedParams(scale=scale, rho=rho)
    if test is not train:
        partition = partition_zero_state(test, partition.threshold)
        frame = _evaluation_frame(spec, test, partition, fitted=False)
    return _score(spec, params, frame, partition)


def score_objective(
    spec: ObjectiveSpec,
    params: FittedParams,
    test: Dataset,
    partition: ZeroPartition,
) -> EntropyEstimate:
    """Evaluate the objective on test with frozen parameters.

    A per-location-scale transform (NSE) takes sigma_o from test's own
    observed values, as NSE is defined per evaluated series.
    """
    frame = _evaluation_frame(spec, test, partition, fitted=False)
    return _score(spec, params, frame, partition)


def _score(
    spec: ObjectiveSpec,
    params: FittedParams,
    frame: _Frame,
    partition: ZeroPartition,
) -> EntropyEstimate:
    total = _loglik(spec.base_family, frame.statistic, frame.n, params.scale)
    total += frame.log_jacobian
    n_eval = frame.n
    if spec.zero_inflated:
        n_zero = partition.n1 + partition.n2
        n_eval += n_zero
        if n_zero:
            if params.rho is None:
                # Zero state never seen in training: the fitted mixture
                # assigns it no probability.
                total = float("-inf")
            else:
                total += loglik_binomial(partition.n1, partition.n2, params.rho)
    return EntropyEstimate(
        name=spec.name,
        k=spec.k,
        h_bits=conditional_entropy_bits(total, n_eval),
        h_adj_bits=aic_adjusted_entropy(total, n_eval, spec.k),
        loglik_nats=total,
        n_eval=n_eval,
        excluded=frame.excluded,
        zero_likelihood=not math.isfinite(total),
        params=params,
    )
