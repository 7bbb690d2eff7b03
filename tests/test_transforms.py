"""Tests for transforms and log-Jacobian sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy.errors import DomainViolation
from objentropy.likelihoods import _FAMILIES
from objentropy.transforms import (
    _POWERS,
    POSITIVE_DOMAIN_KINDS,
    TRANSFORM_KINDS,
    _log_jacobian,
    apply,
    log_jacobian_sum,
    log_jacobian_terms,
)

E = math.e
EPS = np.finfo(np.float64).eps


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

    def test_powers_equal_numpy_maps_bit_for_bit(self):
        """y ** ½ and y ** −1 take ndarray's fast paths, np.sqrt and
        1.0 / y. MSPE's and MARE's reports rest on these bits."""
        y = np.random.default_rng(12).lognormal(0.0, 4.0, 100_000)
        for kind, expected in (("identity", y), ("natural-log", np.log(y)),
                               ("square-root", np.sqrt(y)),
                               ("reciprocal", 1.0 / y)):
            v = apply(kind, y)
            assert v is not y
            np.testing.assert_array_equal(v, expected, strict=True)

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_out_is_bit_for_bit_the_new_array(self, kind):
        """apply into out, values itself included, writes the bits of the
        new array it returns without out; without out, values is left as
        it was."""
        y = np.random.default_rng(13).lognormal(0.0, 40.0, 100_000)
        kept = y.copy()
        with np.errstate(over="ignore"):  # 1/y of a subnormal y
            expected = apply(kind, y.copy())
            assert y.tobytes() == kept.tobytes()
            elsewhere = np.empty_like(y)
            assert apply(kind, y, out=elsewhere) is elsewhere
            assert y.tobytes() == kept.tobytes()
            assert apply(kind, y, out=y) is y
        assert y.tobytes() == expected.tobytes() == elsewhere.tobytes()

    def test_domain_violations(self):
        for kind in POSITIVE_DOMAIN_KINDS:
            for run in (apply, log_jacobian_terms, log_jacobian_sum):
                with pytest.raises(DomainViolation, match="minimum was 0.0"):
                    run(kind, [1.0, 0.0])
        for run in (apply, log_jacobian_terms, log_jacobian_sum):
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
        np.testing.assert_array_equal(
            log_jacobian_terms("identity", [5, -2, 0.1]), [0.0, 0.0, 0.0])

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
        """Each positive-domain kind's terms are its termwise
        ln|λ| + (λ − 1) ln y exactly, and their sum equals both the sum of
        those terms and the closed form -sum(ln y), sum(-½ ln y + ln ½) or
        -2 sum(ln y) bit for bit. The square root's terms are also
        -ln(2 sqrt y) within 4 ε of |ln ½| + |½ ln y|."""
        y = np.asarray(values, dtype=np.float64)
        termwise, closed = {
            "natural-log": (lambda: -np.log(y), lambda: -np.sum(np.log(y))),
            "square-root": (lambda: -0.5 * np.log(y) + math.log(0.5),
                            lambda: np.sum(-0.5 * np.log(y) + math.log(0.5))),
            "reciprocal": (lambda: -2.0 * np.log(y),
                           lambda: -2.0 * np.sum(np.log(y))),
        }[kind]
        terms = log_jacobian_terms(kind, y)
        np.testing.assert_array_equal(terms, termwise())
        total = log_jacobian_sum(kind, y)
        assert total == float(np.sum(termwise())) == float(closed())
        if kind == "square-root":
            half_log = 0.5 * np.log(y)
            oracle = -np.log(2.0 * np.sqrt(y))
            bound = 4 * EPS * (abs(math.log(0.5)) + np.abs(half_log))
            assert (np.abs(terms - oracle) <= bound).all()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(np.linspace(-1.0, 1.0, 17).tolist()),
           st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=50),
           st.integers(-60, 60))
    def test_unit_law_over_a_grid_of_powers(self, lam, values, k):
        """For c = 2^k, the power rule moves the Jacobian sum by
        n (λ − 1) k ln 2 at every λ of a grid over [-1, 1], within 1e-12 of
        the summed term magnitudes. Where λ is a kind's, the rule gives
        that kind's terms."""
        y = np.array(values)
        terms, scaled = _log_jacobian(y, lam), _log_jacobian(y * 2.0 ** k, lam)
        moved = math.fsum(scaled) - math.fsum(terms)
        magnitude = math.fsum(np.abs(terms)) + math.fsum(np.abs(scaled))
        expected = y.size * (lam - 1.0) * k * math.log(2.0)
        assert abs(moved - expected) <= 1e-12 * magnitude
        for kind in TRANSFORM_KINDS:
            if _POWERS[kind] == lam:
                np.testing.assert_array_equal(log_jacobian_terms(kind, y),
                                              terms, strict=True)

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
        normal = _FAMILIES["normal"]
        via_transform = (normal.loglik(normal.statistic(residuals), y.size,
                                       sigma)
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
