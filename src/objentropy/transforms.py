"""Value transforms and their change-of-variables corrections.

A transform v maps values elementwise; its derivative v' supplies the
log-Jacobian term sum(ln|v'(y_i)|) that converts a log-likelihood evaluated
on transformed residuals into a log-likelihood on the original data. The
Jacobian is always evaluated on observed values only. A transform that acts
on residuals rather than on values lives in `likelihoods`.

Each kind is a Box–Cox power λ (G. E. P. Box and D. R. Cox, "An analysis
of transformations", J. R. Stat. Soc. B 26(2), 1964) under one rule:
v(y) = y^λ, or ln y at λ = 0, so ln|v'(y)| = ln|λ| + (λ − 1) ln y, without
ln|λ| at λ = 0; every λ but 1 needs y > 0. Box–Cox's affine terms change
no entropy and are left out.

Sums use numpy's pairwise reduction over arrays in flattened dataset order,
so results are bit-reproducible for a given input ordering.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainViolation

# Each kind's power λ.
_POWERS = {"identity": 1.0, "natural-log": 0.0, "square-root": 0.5,
           "reciprocal": -1.0}

TRANSFORM_KINDS = tuple(_POWERS)
POSITIVE_DOMAIN_KINDS = frozenset(k for k, lam in _POWERS.items() if lam != 1)
# The ufunc of each power: bit for bit what ndarray's `**` gives at that λ
# (a copy, np.sqrt and 1.0 / y), and ln y at λ = 0.
_MAPS = {1.0: np.positive, 0.0: np.log, 0.5: np.sqrt, -1.0: np.reciprocal}


def _power(kind: str, values: np.ndarray) -> float:
    """The λ of a kind, once values lie in its domain."""
    if kind not in _POWERS:
        raise DomainViolation(
            f"unknown transform {kind!r}; expected one of {TRANSFORM_KINDS}"
        )
    lam = _POWERS[kind]
    if lam != 1 and values.size and values.min() <= 0:
        raise DomainViolation(
            f"{kind} transform requires strictly positive inputs; "
            f"minimum was {values.min()}"
        )
    return lam


def _log_jacobian(y: np.ndarray, lam: float) -> np.ndarray:
    """ln|v'(y)| = ln|λ| + (λ − 1) ln y in one new array, forming no zero
    term: identity takes no log, and λ = 0 and −1 scale ln y exactly."""
    if lam == 1:
        return np.zeros_like(y)
    t = np.log(y)
    t *= lam - 1.0
    if lam not in (0, -1):
        t += math.log(abs(lam))
    return t


def apply(kind: str, values: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise v(y) = y^λ, or ln y at λ = 0, by its ufunc in _MAPS.
    As numpy's ufuncs do, it writes into out and returns it when out is
    given (values itself transforms in place), else returns a new array."""
    v = np.asarray(values, dtype=np.float64)
    return _MAPS[_power(kind, v)](v, out=out)


def log_jacobian_terms(kind: str, observed: np.ndarray) -> np.ndarray:
    """Elementwise ln|v'(y_i)|, in nats, as a new array."""
    y = np.asarray(observed, dtype=np.float64)
    return _log_jacobian(y, _power(kind, y))


def log_jacobian_sum(kind: str, observed: np.ndarray) -> float:
    """Sum over observations of ln|v'(y_i)|, in nats: np.sum of the terms."""
    return float(np.sum(log_jacobian_terms(kind, observed)))
