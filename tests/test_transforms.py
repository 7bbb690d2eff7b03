"""Tests for transforms and log-Jacobian sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy.errors import DomainViolation
from objentropy.likelihoods import loglik
from objentropy.transforms import (
    POSITIVE_DOMAIN_KINDS,
    TRANSFORM_KINDS,
    apply,
    log_jacobian_sum,
)

E = math.e


class TestApply:
    def test_natural_log(self):
        np.testing.assert_allclose(apply("natural-log", [1, E, E**2]),
                                   [0, 1, 2], atol=1e-12)

    def test_square_root(self):
        np.testing.assert_allclose(apply("square-root", [4]), [2.0])

    def test_reciprocal(self):
        np.testing.assert_allclose(apply("reciprocal", [2, 4]), [0.5, 0.25])

    def test_identity(self):
        np.testing.assert_array_equal(apply("identity", [-1, 0, 3]),
                                      [-1.0, 0.0, 3.0])

    def test_domain_violations(self):
        for kind in POSITIVE_DOMAIN_KINDS:
            for run in (apply, log_jacobian_sum):
                with pytest.raises(DomainViolation, match="minimum was 0.0"):
                    run(kind, [1.0, 0.0])
        for run in (apply, log_jacobian_sum):
            with pytest.raises(DomainViolation, match="unknown transform"):
                run("cube-root", [1.0])
            with pytest.raises(DomainViolation, match="unknown transform"):
                run("per-location-scale", [1.0])


class TestLogJacobianSum:
    def test_natural_log(self):
        assert log_jacobian_sum("natural-log", [1, E, E**2]) == (
            pytest.approx(-3.0, abs=1e-12)
        )

    def test_square_root(self):
        assert log_jacobian_sum("square-root", [4]) == (
            pytest.approx(math.log(0.25), abs=1e-12)
        )

    def test_identity_is_zero(self):
        assert log_jacobian_sum("identity", [5, -2, 0.1]) == 0.0

    def test_reciprocal(self):
        # |d(1/y)/dy| = 1/y^2
        assert log_jacobian_sum("reciprocal", [2.0]) == (
            pytest.approx(-2 * math.log(2.0), abs=1e-12)
        )

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(8)
        a = rng.lognormal(0, 1, 300)
        b = rng.lognormal(1, 0.5, 200)
        whole = log_jacobian_sum("natural-log", np.concatenate([a, b]))
        parts = (log_jacobian_sum("natural-log", a)
                 + log_jacobian_sum("natural-log", b))
        assert whole == pytest.approx(parts, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(POSITIVE_DOMAIN_KINDS)),
           st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=50)
           | st.builds(lambda seed, size, spread: np.random.default_rng(
               seed).lognormal(0.0, spread, size),
               st.integers(0, 2 ** 32), st.integers(1, 200_000),
               st.floats(0.01, 20.0)))
    def test_positive_sums_equal_termwise_formulas(self, kind, values):
        """Each positive-domain sum equals the sum of its termwise
        ln|v'(y)| exactly."""
        y = np.asarray(values, dtype=np.float64)
        termwise = {
            "natural-log": lambda: -np.log(y),
            "square-root": lambda: -np.log(2.0 * np.sqrt(y)),
            "reciprocal": lambda: -2.0 * np.log(y),
        }[kind]
        assert log_jacobian_sum(kind, y) == float(np.sum(termwise()))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TRANSFORM_KINDS),
           st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
           st.integers(0, 40))
    def test_additive_over_concatenation_property(self, kind, values, cut):
        """The sum over a concatenation equals the sum of the parts' sums,
        within 1e-12 of the sum of the terms' magnitudes."""
        y = np.array(values)

        def jacobian(part):
            return log_jacobian_sum(kind, y[part])

        cut = min(cut, y.size)
        whole = jacobian(slice(None))
        parts = jacobian(slice(None, cut)) + jacobian(slice(cut, None))
        magnitude = math.fsum(abs(jacobian(slice(i, i + 1)))
                              for i in range(y.size))
        assert abs(whole - parts) <= 1e-12 * magnitude


class TestChangeOfVariables:
    def test_lognormal_density_oracle(self):
        """Base normal loglik on ln-data plus the Jacobian must equal the
        lognormal log-density summed directly."""
        rng = np.random.default_rng(21)
        median, sigma = 3.0, 0.7
        y = rng.lognormal(math.log(median), sigma, 2000)
        residuals = apply("natural-log", y) - math.log(median)
        via_transform = (loglik("normal", residuals, sigma)
                         + log_jacobian_sum("natural-log", y))

        # Independent oracle: lognormal log-density written out termwise.
        direct = sum(
            -math.log(v) - math.log(sigma) - 0.5 * math.log(2 * math.pi)
            - (math.log(v) - math.log(median)) ** 2 / (2 * sigma**2)
            for v in y
        )
        assert via_transform == pytest.approx(direct, rel=1e-9)

    def test_inverse_recovers_inputs(self):
        rng = np.random.default_rng(4)
        y = rng.lognormal(0, 1, 500)
        inverses = {
            "identity": lambda v: v,
            "natural-log": np.exp,
            "square-root": lambda v: v**2,
            "reciprocal": lambda v: 1.0 / v,
        }
        assert tuple(inverses) == TRANSFORM_KINDS
        for kind, inverse in inverses.items():
            back = inverse(apply(kind, y))
            np.testing.assert_allclose(back, y, rtol=1e-12)
