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
from typing import Callable

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


@dataclass(frozen=True, eq=False)
class Transform:
    """A transform kind plus, for per-location-scale, sigma_o: a read-only
    float64 array, every entry > 0, indexed by location code. A transform
    equals only itself."""

    kind: str
    sigma_o: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise DomainViolation(
                f"unknown transform {self.kind!r}; expected one of "
                f"{TRANSFORM_KINDS}"
            )
        if self.kind != "per-location-scale":
            return
        if self.sigma_o is None:
            raise DomainViolation(
                "per-location-scale requires per-location sigma_o values"
            )
        sigma = np.array(self.sigma_o, dtype=np.float64)
        if not (sigma > 0).all():
            raise DomainViolation(
                "sigma_o must be > 0 wherever used as a divisor; minimum "
                f"was {sigma.min()}"
            )
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma_o", sigma)


def _require_positive(values: np.ndarray, kind: str) -> None:
    if values.size and values.min() <= 0:
        raise DomainViolation(
            f"{kind} transform requires strictly positive inputs; "
            f"minimum was {values.min()}"
        )


def _sigma_per_value(
    transform: Transform, codes: np.ndarray | None, size: int
) -> np.ndarray:
    if codes is None:
        raise DomainViolation(
            "per-location-scale requires the location code of every value"
        )
    codes = np.asarray(codes)
    if codes.size != size:
        raise DomainViolation(f"{codes.size} location codes for {size} values")
    return transform.sigma_o[codes]


def apply(
    transform: Transform,
    values: np.ndarray,
    codes: np.ndarray | None = None,
) -> np.ndarray:
    """Elementwise v(y) for the transform's kind, as a new array.

    `codes`, needed by per-location-scale only, gives the location code of
    every value, an index into the transform's sigma_o.

    identity -> y; natural-log -> ln y; square-root -> sqrt(y);
    reciprocal -> 1/y; per-location-scale -> y / sigma_o[code].
    """
    v = np.asarray(values, dtype=np.float64)
    kind = transform.kind
    if kind == "identity":
        return v.copy()
    if kind == "per-location-scale":
        return v / _sigma_per_value(transform, codes, v.size)
    _require_positive(v, kind)
    return _POSITIVE[kind][0](v)


def log_jacobian_sum(
    transform: Transform,
    observed: np.ndarray,
    codes: np.ndarray | None = None,
) -> float:
    """Sum over observations of ln|v'(y_i)|, in nats.

    identity -> 0; natural-log -> sum ln(1/y); square-root ->
    sum ln(1/(2 sqrt(y))); reciprocal -> sum ln(1/y^2);
    per-location-scale -> sum ln(1/sigma_o[code]).
    """
    y = np.asarray(observed, dtype=np.float64)
    kind = transform.kind
    if kind == "identity":
        return 0.0
    if kind == "per-location-scale":
        sigma = _sigma_per_value(transform, codes, y.size)
        return float(-np.sum(np.log(sigma)))
    _require_positive(y, kind)
    return float(np.sum(_POSITIVE[kind][1](y)))
