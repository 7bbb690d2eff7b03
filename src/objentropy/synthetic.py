"""Synthetic observed/predicted datasets with known error families.

The generator draws positive base flows from a lognormal, uses them as the
predictions, and perturbs them into observations with a chosen error
family. Because the error distribution is known, the objective that should
win the entropy ranking is known too, giving a ground-truth oracle for the
selection pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, Layout
from .errors import InvalidModel, NonPositiveScale, as_int, check_seed
from .likelihoods import BASE_FAMILIES, CATALOG

# Each error family as the (transform kind, base family) of the catalog
# objective that matches it: errors are drawn from the base family (a
# numpy Generator method of that name) and act through the kind, added to
# the prediction (identity) or added to its log (natural-log).
_ERRORS = {
    "additive-normal": ("identity", "normal"),
    "additive-laplace": ("identity", "laplace"),
    "multiplicative-lognormal": ("natural-log", "normal"),
    "multiplicative-log-laplace": ("natural-log", "laplace"),
}
FAMILIES = tuple(_ERRORS)
# Values of one kind drawn at a time into a location's columns.
_DRAW = 1 << 16


@dataclass(frozen=True)
class SyntheticModel:
    """A generative error model.

    base_median may be a single value or one value per location, which
    makes locations heteroscedastic. Zero inflation forces observed and
    predicted values to zero independently, each with probability
    zero_inflation_rate, so every zero-state combination occurs.
    """

    family: str
    scale: float
    zero_inflation_rate: float = 0.0
    base_median: float | Sequence[float] = 1.0
    base_log_sigma: float = 1.0
    n_per_location: int = 1000
    n_locations: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidModel(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not 0 < self.scale < math.inf:
            raise InvalidModel(
                f"scale must be finite and > 0, got {self.scale}")
        if not (0.0 <= self.zero_inflation_rate < 1.0):
            raise InvalidModel(
                f"zero_inflation_rate must lie in [0, 1), got "
                f"{self.zero_inflation_rate}"
            )
        if (as_int(self.n_per_location, InvalidModel, "n_per_location") < 1
                or as_int(self.n_locations, InvalidModel, "n_locations") < 1):
            raise InvalidModel("counts must be >= 1")
        if not 0 <= self.base_log_sigma < math.inf:
            raise InvalidModel("base_log_sigma must be finite and >= 0")
        check_seed(self.seed, InvalidModel)
        medians = self.medians()
        if len(medians) != self.n_locations:
            raise InvalidModel(
                f"{len(medians)} base medians for {self.n_locations} locations"
            )
        if not all(0 < m < math.inf for m in medians):
            raise InvalidModel("base medians must be finite and > 0")

    def medians(self) -> tuple[float, ...]:
        """One base median per location. A 0-d value, a numpy scalar
        included, is every location's; anything but a number or a flat
        sequence of numbers raises InvalidModel."""
        try:
            values = np.asarray(self.base_median)
        except ValueError:  # a ragged sequence
            values = None
        if values is None or values.dtype.kind not in "iuf" or values.ndim > 1:
            raise InvalidModel(
                "base_median must be a number or a sequence of numbers, got "
                f"{self.base_median!r}"
            )
        if values.ndim == 0:
            return (float(values),) * self.n_locations
        return tuple(map(float, values.tolist()))


@dataclass(frozen=True)
class SyntheticTruth:
    """What the generator knows about its own data."""

    family: str
    optimal_objective: str | None
    error_entropy_bits: float


def analytic_entropy(family: str, scale: float) -> float:
    """Differential entropy in bits of a standard error density.

    normal -> 0.5 log2(2 pi e sigma^2); laplace -> log2(2 e b);
    uniform on [-a, a] -> log2(2 a).
    """
    if not scale > 0:
        raise NonPositiveScale(f"scale must be > 0, got {scale}")
    if family == "normal":
        return 0.5 * math.log2(2.0 * math.pi * math.e * scale * scale)
    if family == "laplace":
        return math.log2(2.0 * math.e * scale)
    if family == "uniform":
        return math.log2(2.0 * scale)
    raise InvalidModel(
        f"unknown family {family!r}; expected one of {BASE_FAMILIES}"
    )


def optimal_objective(model: SyntheticModel) -> str | None:
    """The catalog objective matching the generator's error model: its
    (transform, base family) row, zero-inflated when zeros are drawn; None
    when the catalog has no such row, as for additive errors with zeros."""
    row = (*_ERRORS[model.family], model.zero_inflation_rate > 0)
    return next((
        spec.name for spec in CATALOG.values()
        if (spec.transform_kind, spec.base_family, spec.zero_inflated) == row
    ), None)


def generate(model: SyntheticModel) -> tuple[Dataset, SyntheticTruth]:
    """Draw a dataset from the model; bit-identical for identical models.

    It is layout(model)'s dataset: each location is drawn straight into
    its columns of the dataset's pairs, a piece at a time (see _draw), so
    beside them only a piece of draws is held.
    """
    laid = layout(model)
    return (Dataset(laid.location_ids, laid.bounds,
                    laid.read(0, laid.n_total)), truth(model))


def truth(model: SyntheticModel) -> SyntheticTruth:
    """What the generator knows of the data it draws from model."""
    family = _ERRORS[model.family][1]
    return SyntheticTruth(model.family, optimal_objective(model),
                          analytic_entropy(family, model.scale))


def layout(model: SyntheticModel) -> Layout:
    """The dataset generate draws from model, as a layout whose read draws
    each location that the columns it reads touch, whole, one at a time
    (see _draw), and returns those columns of them.

    Location i is "loc" and i + 1 in three or more digits. Per location,
    in a fixed draw order: base flows (the predictions), then errors, then
    independent zero-forcing masks for observed and predicted. Location i
    draws from child i of the model seed's SeedSequence, so locations are
    independent streams, and a location reads the same whichever columns
    are read around it.
    """
    n = model.n_per_location
    medians = model.medians()

    def read(lo: int, hi: int) -> np.ndarray:
        first, last = lo // n, -(-hi // n)
        pairs = np.empty((2, (last - first) * n))
        for i in range(first, last):
            _draw(model, i, medians[i],
                  pairs[:, (i - first) * n:(i - first + 1) * n])
        return pairs[:, lo - first * n:hi - first * n]

    ids = tuple(f"loc{i + 1:03d}" for i in range(model.n_locations))
    return Layout(ids, np.arange(0, n * model.n_locations + 1, n), read)


def _draw(model: SyntheticModel, i: int, median: float, out: np.ndarray
          ) -> None:
    """Draw location i of model, of base median median, into out, its
    (2, n_per_location) observed and predicted values, _DRAW values of a
    kind at a time: a numpy Generator draws the same values in pieces as
    in one call."""
    rng = np.random.default_rng(
        np.random.SeedSequence(model.seed, spawn_key=(i,)))
    kind, family = _ERRORS[model.family]
    n = model.n_per_location
    pieces = [(a, min(a + _DRAW, n)) for a in range(0, n, _DRAW)]
    obs, pred = out
    for a, b in pieces:
        pred[a:b] = rng.lognormal(mean=math.log(median),
                                  sigma=model.base_log_sigma, size=b - a)
    for a, b in pieces:
        eps = getattr(rng, family)(0.0, model.scale, size=b - a)
        if kind == "identity":
            np.add(pred[a:b], eps, out=obs[a:b])
        else:
            np.multiply(pred[a:b], np.exp(eps, out=eps), out=obs[a:b])
    p = model.zero_inflation_rate
    if p > 0:
        for values in (obs, pred):
            for a, b in pieces:
                values[a:b][rng.random(b - a) < p] = 0.0
