"""Value transforms and their change-of-variables corrections.

A transform v maps values elementwise; its derivative v' supplies the
log-Jacobian term sum(ln|v'(y_i)|) that converts a log-likelihood evaluated
on transformed residuals into a log-likelihood on the original data. The
Jacobian is always evaluated on observed values only. The kinds are the
identity and three positive-domain maps; a transform that acts on
residuals rather than on values lives in `likelihoods`.

Sums use numpy's pairwise reduction over arrays in flattened dataset order,
so results are bit-reproducible for a given input ordering.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainViolation


def _scaled_log(y: np.ndarray, c: float) -> np.ndarray:
    # c ln y, built in one temporary.
    t = np.log(y)
    t *= c
    return t


def _sqrt_log_jacobian(y: np.ndarray) -> np.ndarray:
    # -ln(2 sqrt(y)), built in one temporary.
    t = np.sqrt(y)
    t *= 2.0
    np.log(t, out=t)
    t *= -1.0
    return t


# Kinds whose domain is restricted to strictly positive inputs, each as
# (v, per-value ln|v'|). Negative signs in derivatives are absorbed by the
# absolute value. Scaling a term by -1 or -2 is exact, so the sum of the
# terms equals -sum(ln y), -sum(ln(2 sqrt y)) or -2 sum(ln y) bit for bit.
_POSITIVE: dict[str, tuple[Callable[[np.ndarray], np.ndarray],
                           Callable[[np.ndarray], np.ndarray]]] = {
    "natural-log": (np.log, lambda y: _scaled_log(y, -1.0)),
    "square-root": (np.sqrt, _sqrt_log_jacobian),
    "reciprocal": (lambda y: 1.0 / y, lambda y: _scaled_log(y, -2.0)),
}

TRANSFORM_KINDS = ("identity", *_POSITIVE)
POSITIVE_DOMAIN_KINDS = frozenset(_POSITIVE)


def _positive(kind: str, values: np.ndarray) -> tuple[Callable, Callable]:
    """The (v, per-value log-Jacobian) of a positive-domain kind, once
    values lie in its domain."""
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


def apply(kind: str, values: np.ndarray) -> np.ndarray:
    """Elementwise v(y) for a transform kind, as a new array.

    identity -> y; natural-log -> ln y; square-root -> sqrt(y);
    reciprocal -> 1/y.
    """
    v = np.asarray(values, dtype=np.float64)
    if kind == "identity":
        return v.copy()
    return _positive(kind, v)[0](v)


def log_jacobian_terms(kind: str, observed: np.ndarray) -> np.ndarray:
    """Elementwise ln|v'(y_i)|, in nats, as a new array.

    identity -> 0; natural-log -> ln(1/y); square-root ->
    ln(1/(2 sqrt(y))); reciprocal -> ln(1/y^2).
    """
    y = np.asarray(observed, dtype=np.float64)
    if kind == "identity":
        return np.zeros_like(y)
    return _positive(kind, y)[1](y)


def log_jacobian_sum(kind: str, observed: np.ndarray) -> float:
    """Sum over observations of ln|v'(y_i)|, in nats: the np.sum of
    `log_jacobian_terms`."""
    return float(np.sum(log_jacobian_terms(kind, observed)))
