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

import numpy as np

from .data import Dataset, LocationStats, ZeroPartition, location_stats, partition_zero_state
from .errors import (
    DegenerateScale,
    EmptyEvaluationSet,
    EmptyInput,
    InvalidModel,
    InvalidProbability,
    NonPositiveScale,
    NoZeroState,
    UnknownObjective,
)
from .transforms import (
    POSITIVE_DOMAIN_KINDS,
    LocationCodes,
    Transform,
    apply,
    log_jacobian_sum,
)

_LN_2PI = math.log(2.0 * math.pi)

BASE_FAMILIES = ("normal", "laplace", "uniform")


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective function viewed as a likelihood recipe."""

    name: str
    description: str
    transform_kind: str
    base_family: str
    zero_inflated: bool
    k: int

    def __post_init__(self) -> None:
        if self.base_family not in BASE_FAMILIES:
            raise InvalidModel(
                f"unknown base family {self.base_family!r}"
            )
        expected_k = 2 if self.zero_inflated else 1
        if self.k != expected_k:
            raise InvalidModel(
                f"{self.name}: k must be {expected_k}, got {self.k}"
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


@dataclass(frozen=True)
class FittedObjective:
    """An objective's fitted parameters and total log-likelihood."""

    spec: ObjectiveSpec
    params: FittedParams
    loglik_nats: float
    n_eval: int
    in_sample: bool
    excluded: int = 0
    zero_likelihood: bool = False


# Catalog in benchmark display order. k counts only the objective's own
# parameters: one scale, plus the zero-state rate when zero-inflated.
CATALOG: dict[str, ObjectiveSpec] = {
    spec.name: spec
    for spec in (
        ObjectiveSpec("MSPE", "mean squared percent error", "reciprocal", "normal", False, 1),
        ObjectiveSpec("U", "uniformly distributed error", "identity", "uniform", False, 1),
        ObjectiveSpec("MSE", "mean squared error", "identity", "normal", False, 1),
        ObjectiveSpec("NSE", "normalized squared error", "per-location-scale", "normal", False, 1),
        ObjectiveSpec("MAE", "mean absolute error", "identity", "laplace", False, 1),
        ObjectiveSpec("MSLE", "mean squared log error", "natural-log", "normal", False, 1),
        ObjectiveSpec("MARE", "mean absolute square root error", "square-root", "laplace", False, 1),
        ObjectiveSpec("ZMSLE", "zero-inflated MSLE", "natural-log", "normal", True, 2),
        ObjectiveSpec("MALE", "mean absolute log error", "natural-log", "laplace", False, 1),
        ObjectiveSpec("ZMALE", "zero-inflated MALE", "natural-log", "laplace", True, 2),
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


# --- parameter fits ---

def fit_scale_normal(residuals: np.ndarray) -> float:
    """MLE of the normal scale: sqrt of the mean squared residual."""
    r = _as_residuals(residuals)
    sigma = float(np.sqrt(np.mean(r * r)))
    if sigma == 0.0:
        raise DegenerateScale("all residuals are zero; sigma is undefined")
    return sigma


def fit_scale_laplace(residuals: np.ndarray) -> float:
    """MLE of the Laplace scale: mean absolute residual."""
    r = _as_residuals(residuals)
    b = float(np.mean(np.abs(r)))
    if b == 0.0:
        raise DegenerateScale("all residuals are zero; b is undefined")
    return b


def fit_uniform_bound(residuals: np.ndarray) -> float:
    """Bound of the uniform error model: maximum absolute residual."""
    r = _as_residuals(residuals)
    a = float(np.max(np.abs(r)))
    if a == 0.0:
        raise DegenerateScale("all residuals are zero; the bound is undefined")
    return a


def fit_binomial_rate(partition: ZeroPartition) -> float:
    """Zero-state success probability rho = n1 / (n1 + n2)."""
    total = partition.n1 + partition.n2
    if total == 0:
        raise NoZeroState("no zero-state pairs; the mixture degenerates")
    return partition.n1 / total


def _as_residuals(residuals: np.ndarray) -> np.ndarray:
    r = np.asarray(residuals, dtype=np.float64)
    if r.size == 0:
        raise EmptyInput("residuals are empty")
    return r


# --- log-likelihood kernels (nats) ---

def loglik_normal(residuals: np.ndarray, sigma: float) -> float:
    """-n ln sigma - (n/2) ln(2 pi) - sum(r^2) / (2 sigma^2)."""
    if not sigma > 0:
        raise NonPositiveScale(f"sigma must be > 0, got {sigma}")
    r = np.asarray(residuals, dtype=np.float64)
    n = r.size
    return float(
        -n * math.log(sigma)
        - 0.5 * n * _LN_2PI
        - np.sum(r * r) / (2.0 * sigma * sigma)
    )


def loglik_laplace(residuals: np.ndarray, b: float) -> float:
    """-n ln(2b) - sum(|r|) / b."""
    if not b > 0:
        raise NonPositiveScale(f"b must be > 0, got {b}")
    r = np.asarray(residuals, dtype=np.float64)
    return float(-r.size * math.log(2.0 * b) - np.sum(np.abs(r)) / b)


def loglik_uniform(residuals: np.ndarray, a: float) -> float:
    """-n ln(a) while every |r| <= a, else -inf (zero likelihood).

    The bound is implemented verbatim as -n ln(a); densities above 1 make
    positive values legitimate.
    """
    if not a > 0:
        raise NonPositiveScale(f"bound must be > 0, got {a}")
    r = np.asarray(residuals, dtype=np.float64)
    if r.size and float(np.max(np.abs(r))) > a:
        return float("-inf")
    return float(-r.size * math.log(a))


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


_FIT = {
    "normal": fit_scale_normal,
    "laplace": fit_scale_laplace,
    "uniform": fit_uniform_bound,
}
_LOGLIK = {
    "normal": loglik_normal,
    "laplace": loglik_laplace,
    "uniform": loglik_uniform,
}


def make_transform(spec: ObjectiveSpec, stats: LocationStats | None) -> Transform:
    """Materialize the spec's transform, attaching sigma_o where needed."""
    if spec.transform_kind == "per-location-scale":
        if stats is None:
            raise EmptyInput(
                f"{spec.name} requires location statistics for its transform"
            )
        return Transform(spec.transform_kind, sigma_o=stats.sigma_o)
    return Transform(spec.transform_kind)


def _evaluation_frame(
    spec: ObjectiveSpec,
    dataset: Dataset,
    partition: ZeroPartition,
    transform: Transform,
) -> tuple[np.ndarray, np.ndarray, LocationCodes | None, int]:
    """Transformed residuals, observed values, and location keys (for
    per-location-scale only) over the objective's support, plus the
    excluded-pair count."""
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
    locs = None
    if transform.kind == "per-location-scale":
        locs = LocationCodes(dataset.location_ids, dataset.location_codes[idx])
    residuals = apply(transform, obs, locs) - apply(transform, pred, locs)
    return residuals, obs, locs, excluded


def evaluate_objective(
    spec: ObjectiveSpec,
    train: Dataset,
    test: Dataset,
    partition: ZeroPartition,
    stats: LocationStats | None = None,
) -> FittedObjective:
    """Fit the objective on train and evaluate its total log-likelihood on
    test.

    `partition` is the train dataset's zero-state partition; when test is a
    different dataset its partition is derived at the same threshold. For
    per-location-scale transforms, `stats` defaults to statistics of the
    training observations.
    """
    if stats is None and spec.transform_kind == "per-location-scale":
        stats = location_stats(train)
    transform = make_transform(spec, stats)
    residuals, _, _, _ = _evaluation_frame(spec, train, partition, transform)
    scale = _FIT[spec.base_family](residuals)
    rho = None
    if spec.zero_inflated and (partition.n1 + partition.n2) > 0:
        rho = fit_binomial_rate(partition)
    params = FittedParams(scale=scale, rho=rho)
    in_sample = test is train
    test_partition = (
        partition if in_sample
        else partition_zero_state(test, partition.threshold)
    )
    return _score(spec, params, test, test_partition, transform, in_sample)


def score_objective(
    spec: ObjectiveSpec,
    params: FittedParams,
    test: Dataset,
    partition: ZeroPartition,
    stats: LocationStats | None = None,
) -> FittedObjective:
    """Evaluate the objective on test with frozen parameters.

    Callers who fit on a different dataset should pass the location
    statistics used at fit time so the transform is unchanged; otherwise
    they are computed from the test data.
    """
    if stats is None and spec.transform_kind == "per-location-scale":
        stats = location_stats(test)
    transform = make_transform(spec, stats)
    return _score(spec, params, test, partition, transform, in_sample=False)


def _score(
    spec: ObjectiveSpec,
    params: FittedParams,
    dataset: Dataset,
    partition: ZeroPartition,
    transform: Transform,
    in_sample: bool,
) -> FittedObjective:
    residuals, obs, locs, excluded = _evaluation_frame(
        spec, dataset, partition, transform
    )
    total = _LOGLIK[spec.base_family](residuals, params.scale)
    total += log_jacobian_sum(transform, obs, locs)
    n_eval = int(residuals.size)
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
    return FittedObjective(
        spec=spec,
        params=params,
        loglik_nats=float(total),
        n_eval=n_eval,
        in_sample=in_sample,
        excluded=excluded,
        zero_likelihood=not math.isfinite(total),
    )
