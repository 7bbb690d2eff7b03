"""Tests for transforms and log-Jacobian sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy.errors import DomainViolation
from objentropy.likelihoods import loglik_normal
from objentropy.transforms import (
    TRANSFORM_KINDS,
    Transform,
    apply,
    log_jacobian_sum,
)

E = math.e


class TestApply:
    def test_natural_log(self):
        t = Transform("natural-log")
        np.testing.assert_allclose(apply(t, [1, E, E**2]), [0, 1, 2], atol=1e-12)

    def test_square_root(self):
        np.testing.assert_allclose(apply(Transform("square-root"), [4]), [2.0])

    def test_reciprocal(self):
        np.testing.assert_allclose(
            apply(Transform("reciprocal"), [2, 4]), [0.5, 0.25]
        )

    def test_per_location_scale(self):
        t = Transform("per-location-scale", sigma_o=[2.0, 4.0])
        out = apply(t, [2, 4, 8], codes=np.array([0, 0, 1]))
        np.testing.assert_allclose(out, [1.0, 2.0, 2.0])

    def test_identity(self):
        np.testing.assert_array_equal(apply(Transform("identity"), [-1, 0, 3]),
                                      [-1.0, 0.0, 3.0])

    def test_domain_violations(self):
        for kind in ("natural-log", "square-root", "reciprocal"):
            with pytest.raises(DomainViolation):
                apply(Transform(kind), [1.0, 0.0])
        with pytest.raises(DomainViolation, match="minimum was 0.0"):
            Transform("per-location-scale", sigma_o=[1.0, 0.0])
        t = Transform("per-location-scale", sigma_o=[1.0])
        with pytest.raises(DomainViolation, match="location code of every"):
            apply(t, [1.0])
        with pytest.raises(DomainViolation, match="2 location codes for 1"):
            apply(t, [1.0], codes=np.array([0, 0]))


class TestLogJacobianSum:
    def test_natural_log(self):
        assert log_jacobian_sum(Transform("natural-log"), [1, E, E**2]) == (
            pytest.approx(-3.0, abs=1e-12)
        )

    def test_square_root(self):
        assert log_jacobian_sum(Transform("square-root"), [4]) == (
            pytest.approx(math.log(0.25), abs=1e-12)
        )

    def test_identity_is_zero(self):
        assert log_jacobian_sum(Transform("identity"), [5, -2, 0.1]) == 0.0

    def test_reciprocal(self):
        # |d(1/y)/dy| = 1/y^2
        assert log_jacobian_sum(Transform("reciprocal"), [2.0]) == (
            pytest.approx(-2 * math.log(2.0), abs=1e-12)
        )

    def test_per_location_scale(self):
        t = Transform("per-location-scale", sigma_o=[2.0, 0.5])
        got = log_jacobian_sum(t, [1.0, 1.0], codes=np.array([0, 1]))
        assert got == pytest.approx(-math.log(2.0) - math.log(0.5), abs=1e-12)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(8)
        a = rng.lognormal(0, 1, 300)
        b = rng.lognormal(1, 0.5, 200)
        t = Transform("natural-log")
        whole = log_jacobian_sum(t, np.concatenate([a, b]))
        parts = log_jacobian_sum(t, a) + log_jacobian_sum(t, b)
        assert whole == pytest.approx(parts, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(TRANSFORM_KINDS),
           st.lists(st.tuples(st.floats(1e-300, 1e300), st.integers(0, 2)),
                    min_size=1, max_size=40),
           st.integers(0, 40),
           st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3))
    def test_additive_over_concatenation_property(self, kind, values, cut,
                                                  sigmas):
        """The sum over a concatenation equals the sum of the parts' sums,
        within 1e-12 of the sum of the terms' magnitudes."""
        t = Transform(kind, sigma_o=sigmas)
        y = np.array([v for v, _ in values])
        codes = np.array([c for _, c in values], dtype=np.int32)

        def jacobian(part):
            return log_jacobian_sum(t, y[part], codes[part])

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
        t = Transform("natural-log")
        residuals = apply(t, y) - math.log(median)
        via_transform = loglik_normal(residuals, sigma) + log_jacobian_sum(t, y)

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
        codes = np.zeros(500, dtype=np.int32)
        inverses = {
            "identity": lambda v: v,
            "natural-log": np.exp,
            "square-root": lambda v: v**2,
            "reciprocal": lambda v: 1.0 / v,
            "per-location-scale": lambda v: v * 1.7,
        }
        for kind, inverse in inverses.items():
            t = Transform(kind, sigma_o=[1.7] if "scale" in kind else None)
            back = inverse(apply(t, y, codes))
            np.testing.assert_allclose(back, y, rtol=1e-12)
