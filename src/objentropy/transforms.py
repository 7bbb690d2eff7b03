"""Value transforms and their change-of-variables corrections.

A transform v maps values elementwise; its derivative v' supplies the
log-Jacobian term sum(ln|v'(y_i)|) that converts a log-likelihood evaluated
on transformed residuals into a log-likelihood on the original data. The
Jacobian is always evaluated on observed values only.

Sums use numpy's pairwise reduction over arrays in flattened dataset order,
so results are bit-reproducible for a given input ordering.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainViolation


def _sqrt_log_jacobian(y: np.ndarray) -> float:
    # -sum(ln(2 sqrt(y))), built in one temporary.
    t = np.sqrt(y)
    t *= 2.0
    np.log(t, out=t)
    return -np.sum(t)


# Kinds whose domain is restricted to strictly positive inputs, each as
# (v, sum of ln|v'| over the values). Negative signs in derivatives are
# absorbed by the absolute value; each sum scales the sum of logs, so it
# allocates no n-value temporary beyond the logs themselves.
_POSITIVE: dict[str, tuple[Callable[[np.ndarray], np.ndarray],
                           Callable[[np.ndarray], float]]] = {
    "natural-log": (np.log, lambda y: -np.sum(np.log(y))),
    "square-root": (np.sqrt, _sqrt_log_jacobian),
    "reciprocal": (lambda y: 1.0 / y, lambda y: -2.0 * np.sum(np.log(y))),
}

TRANSFORM_KINDS = ("identity", *_POSITIVE, "per-location-scale")
POSITIVE_DOMAIN_KINDS = frozenset(_POSITIVE)


def _positive(kind: str, values: np.ndarray) -> tuple[Callable, Callable]:
    """The (v, log-Jacobian sum) of a positive-domain kind, once values lie
    in its domain."""
    if kind not in _POSITIVE:
        raise DomainViolation(
            f"unknown transform {kind!r}; expected one of {TRANSFORM_KINDS}"
        )
    if values.size and values.min() <= 0:
        raise DomainViolation(
            f"{kind} transform requires strictly positive inputs; "
            f"minimum was {values.min()}"
        )
    return _POSITIVE[kind]


def _per_value_sigma(sigma: np.ndarray | None, size: int) -> np.ndarray:
    sigma = np.asarray(() if sigma is None else sigma, dtype=np.float64)
    if sigma.shape != (size,):
        raise DomainViolation(
            f"per-location-scale needs the sigma_o of each of {size} values; "
            f"got {sigma.size}"
        )
    if size and not sigma.min() > 0:
        raise DomainViolation(
            "sigma_o must be > 0 wherever used as a divisor; minimum was "
            f"{sigma.min()}"
        )
    return sigma


def apply(
    kind: str,
    values: np.ndarray,
    sigma: np.ndarray | None = None,
) -> np.ndarray:
    """Elementwise v(y) for a transform kind, as a new array.

    `sigma`, read by per-location-scale only, is the sigma_o of every
    value: its location's sigma_o, each > 0.

    identity -> y; natural-log -> ln y; square-root -> sqrt(y);
    reciprocal -> 1/y; per-location-scale -> y / sigma.
    """
    v = np.asarray(values, dtype=np.float64)
    if kind == "identity":
        return v.copy()
    if kind == "per-location-scale":
        return v / _per_value_sigma(sigma, v.size)
    return _positive(kind, v)[0](v)


def log_jacobian_sum(
    kind: str,
    observed: np.ndarray,
    sigma: np.ndarray | None = None,
) -> float:
    """Sum over observations of ln|v'(y_i)|, in nats.

    identity -> 0; natural-log -> sum ln(1/y); square-root ->
    sum ln(1/(2 sqrt(y))); reciprocal -> sum ln(1/y^2);
    per-location-scale -> sum ln(1/sigma), sigma as in `apply`.
    """
    y = np.asarray(observed, dtype=np.float64)
    if kind == "identity":
        return 0.0
    if kind == "per-location-scale":
        return float(-np.sum(np.log(_per_value_sigma(sigma, y.size))))
    return float(_positive(kind, y)[1](y))
