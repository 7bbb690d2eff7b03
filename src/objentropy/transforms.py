"""Value transforms and their change-of-variables corrections.

A transform v maps values elementwise; its derivative v' supplies the
log-Jacobian term sum(ln|v'(y_i)|) that converts a log-likelihood evaluated
on transformed residuals into a log-likelihood on the original data. The
Jacobian is always evaluated on observed values only.

Sums use numpy's pairwise reduction over arrays in flattened dataset order,
so results are bit-reproducible for a given input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainViolation

_Elementwise = Callable[[np.ndarray], np.ndarray]

# Kinds whose domain is restricted to strictly positive inputs, each as
# (v, ln|v'|). Negative signs in derivatives are absorbed by the absolute
# value.
_POSITIVE: dict[str, tuple[_Elementwise, _Elementwise]] = {
    "natural-log": (np.log, lambda y: -np.log(y)),
    "square-root": (np.sqrt, lambda y: -np.log(2.0 * np.sqrt(y))),
    "reciprocal": (lambda y: 1.0 / y, lambda y: -2.0 * np.log(y)),
}

TRANSFORM_KINDS = ("identity", *_POSITIVE, "per-location-scale")
POSITIVE_DOMAIN_KINDS = frozenset(_POSITIVE)


@dataclass(frozen=True)
class Transform:
    """A transform kind plus, for per-location-scale, the sigma_o map."""

    kind: str
    sigma_o: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise DomainViolation(
                f"unknown transform {self.kind!r}; expected one of "
                f"{TRANSFORM_KINDS}"
            )
        if self.kind == "per-location-scale" and self.sigma_o is None:
            raise DomainViolation(
                "per-location-scale requires per-location sigma_o values"
            )


def _require_positive(values: np.ndarray, kind: str) -> None:
    if values.size and values.min() <= 0:
        raise DomainViolation(
            f"{kind} transform requires strictly positive inputs; "
            f"minimum was {values.min()}"
        )


class LocationCodes(NamedTuple):
    """Location keys of a value array as integer codes into a table of ids.

    Passing keys this way spares apply and log_jacobian_sum the string
    lookup of every value: sigma_o is resolved once per id.
    """

    ids: Sequence[str]
    codes: np.ndarray


def _location_sigma(transform: Transform, ids: Sequence[str]) -> np.ndarray:
    """sigma_o of each id, checked as a divisor.

    When several ids fail, the error names the smallest, as a lookup over
    sorted ids would.
    """
    sigma = np.empty(len(ids), dtype=np.float64)
    missing = []
    for i, loc in enumerate(ids):
        try:
            sigma[i] = transform.sigma_o[loc]
        except KeyError:
            missing.append(loc)
    if missing:
        raise DomainViolation(f"no sigma_o for location {min(missing)!r}")
    if sigma.size and sigma.min() <= 0:
        low = sigma.min()
        bad = min(loc for loc, s in zip(ids, sigma) if s == low)
        raise DomainViolation(
            f"sigma_o must be > 0 wherever used as a divisor; location "
            f"{bad!r} has sigma_o = {low}"
        )
    return sigma


def _sigma_per_value(
    transform: Transform,
    locations: np.ndarray | LocationCodes | None,
    size: int,
) -> np.ndarray:
    if locations is None:
        raise DomainViolation(
            "per-location-scale requires the location key of every value"
        )
    if isinstance(locations, LocationCodes):
        ids, codes = locations
    else:
        ids, codes = np.unique(
            np.asarray(locations, dtype=object), return_inverse=True
        )
    if codes.size != size:
        raise DomainViolation(
            f"{codes.size} location keys for {size} values"
        )
    return _location_sigma(transform, ids)[codes]


def apply(
    transform: Transform,
    values: np.ndarray,
    locations: np.ndarray | LocationCodes | None = None,
) -> np.ndarray:
    """Elementwise v(y) for the transform's kind.

    `locations`, needed by per-location-scale only, keys every value by
    location id, either as an array of ids or as LocationCodes.

    identity -> y; natural-log -> ln y; square-root -> sqrt(y);
    reciprocal -> 1/y; per-location-scale -> y / sigma_o(location).
    """
    v = np.asarray(values, dtype=np.float64)
    kind = transform.kind
    if kind == "identity":
        return v.copy()
    if kind == "per-location-scale":
        return v / _sigma_per_value(transform, locations, v.size)
    _require_positive(v, kind)
    return _POSITIVE[kind][0](v)


def log_jacobian_sum(
    transform: Transform,
    observed: np.ndarray,
    locations: np.ndarray | LocationCodes | None = None,
) -> float:
    """Sum over observations of ln|v'(y_i)|, in nats.

    identity -> 0; natural-log -> sum ln(1/y); square-root ->
    sum ln(1/(2 sqrt(y))); reciprocal -> sum ln(1/y^2);
    per-location-scale -> sum ln(1/sigma_o).
    """
    y = np.asarray(observed, dtype=np.float64)
    kind = transform.kind
    if kind == "identity":
        return 0.0
    if kind == "per-location-scale":
        sigma = _sigma_per_value(transform, locations, y.size)
        return float(-np.sum(np.log(sigma)))
    _require_positive(y, kind)
    return float(np.sum(_POSITIVE[kind][1](y)))
