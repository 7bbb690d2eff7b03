"""Tests for the objective catalog: fits, log-likelihoods, and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy.data import (
    Dataset,
    PairedSeries,
    location_stats,
    partition_zero_state,
    validate_dataset,
)
from objentropy.errors import (
    DegenerateScale,
    DomainViolation,
    EmptyEvaluationSet,
    InvalidProbability,
    NonPositiveScale,
    NoZeroState,
    UnknownObjective,
)
from objentropy.likelihoods import (
    CATALOG,
    FittedParams,
    evaluate_objective,
    fit_binomial_rate,
    fit_scale_laplace,
    fit_scale_normal,
    fit_uniform_bound,
    get_objective,
    loglik_binomial,
    loglik_laplace,
    loglik_normal,
    loglik_uniform,
    resolve_objectives,
    score_objective,
)
from objentropy.transforms import LocationCodes, Transform, apply, log_jacobian_sum

E = math.e


class TestScaleFits:
    def test_normal(self):
        assert fit_scale_normal([3, -4, 0]) == pytest.approx(math.sqrt(25 / 3))
        assert fit_scale_normal([1, -1]) == 1.0

    def test_normal_degenerate(self):
        with pytest.raises(DegenerateScale):
            fit_scale_normal([0, 0])

    def test_laplace(self):
        assert fit_scale_laplace([1, -1]) == 1.0
        assert fit_scale_laplace([2, 0, 4]) == 2.0

    def test_laplace_degenerate(self):
        with pytest.raises(DegenerateScale):
            fit_scale_laplace([0])

    def test_uniform(self):
        assert fit_uniform_bound([0.5, -0.25]) == 0.5
        assert fit_uniform_bound([-3, 2]) == 3.0

    def test_uniform_degenerate(self):
        with pytest.raises(DegenerateScale):
            fit_uniform_bound([0, 0])

    def test_binomial_rate(self):
        ds = validate_dataset({
            "A": ([0, 0, 0, 0, 1], [0, 0, 0, 1, 1]),
        })
        part = partition_zero_state(ds, 0.5)
        assert fit_binomial_rate(part) == pytest.approx(0.75)

    def test_binomial_no_zero_state(self):
        ds = validate_dataset({"A": ([1, 2], [1, 2])})
        part = partition_zero_state(ds, 0.5)
        with pytest.raises(NoZeroState):
            fit_binomial_rate(part)


class TestLoglikKernels:
    def test_normal(self):
        assert loglik_normal([1, -1], 1.0) == pytest.approx(
            -math.log(2 * math.pi) - 1, abs=1e-12
        )
        assert loglik_normal([0], 1.0) == pytest.approx(-0.9189385, abs=1e-6)
        with pytest.raises(NonPositiveScale):
            loglik_normal([1], 0.0)

    def test_laplace(self):
        assert loglik_laplace([1, -1], 1.0) == pytest.approx(
            -2 * math.log(2) - 2, abs=1e-12
        )
        assert loglik_laplace([0], 1.0) == pytest.approx(-math.log(2), abs=1e-12)
        with pytest.raises(NonPositiveScale):
            loglik_laplace([1], 0.0)

    def test_uniform(self):
        # densities above one make positive log-likelihoods legitimate
        assert loglik_uniform([0.5, -0.25], 0.5) == pytest.approx(
            -2 * math.log(0.5), abs=1e-12
        )
        assert loglik_uniform([0.1], 1.0) == 0.0
        assert loglik_uniform([2.0], 1.0) == float("-inf")
        with pytest.raises(NonPositiveScale):
            loglik_uniform([1], 0.0)

    def test_binomial(self):
        assert loglik_binomial(3, 1, 0.75) == pytest.approx(
            3 * math.log(0.75) + math.log(0.25), abs=1e-12
        )
        assert loglik_binomial(2, 2, 0.5) == pytest.approx(4 * math.log(0.5))
        assert loglik_binomial(0, 5, 0.0) == 0.0  # 0 ln 0 = 0
        assert loglik_binomial(1, 0, 0.0) == float("-inf")
        with pytest.raises(InvalidProbability):
            loglik_binomial(1, 1, 1.5)


class TestCatalog:
    def test_k_matches_zero_inflation(self):
        for spec in CATALOG.values():
            assert spec.k == (2 if spec.zero_inflated else 1)

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(UnknownObjective) as err:
            get_objective("RMSE")
        assert "MSE" in str(err.value)

    def test_resolve_all(self):
        assert len(resolve_objectives("all")) == 10
        assert [s.name for s in resolve_objectives("MSE,MALE")] == ["MSE", "MALE"]


def _in_sample(name, raw, threshold=0.0028):
    ds = validate_dataset(raw)
    part = partition_zero_state(ds, threshold)
    return evaluate_objective(get_objective(name), ds, ds, part)


class TestEvaluateObjective:
    def test_mse_example(self):
        fitted = _in_sample("MSE", {"A": ([1, 2], [2, 4])})
        assert fitted.params.scale == pytest.approx(1.5811, abs=1e-4)
        assert fitted.loglik_nats == pytest.approx(-3.7542, abs=1e-4)
        assert fitted.in_sample and fitted.n_eval == 2

    def test_male_example(self):
        fitted = _in_sample("MALE", {"A": ([1, E], [E, 1])})
        assert fitted.params.scale == pytest.approx(1.0, abs=1e-12)
        # Laplace part -2 ln 2 - 2, Jacobian -(0 + 1)
        assert fitted.loglik_nats == pytest.approx(-3.3863 - 1.0, abs=1e-4)

    def test_zmale_degenerates_to_male_without_zero_state(self):
        raw = {"A": ([1.0, 2.0, 0.5, 3.0], [2.0, 1.0, 1.0, 2.0])}
        male = _in_sample("MALE", raw)
        zmale = _in_sample("ZMALE", raw)
        assert zmale.loglik_nats == male.loglik_nats
        assert zmale.n_eval == male.n_eval
        assert zmale.params.rho is None

    def test_positive_domain_excludes_zero_state(self):
        raw = {"A": ([0.001, 1.0, 2.0], [0.5, 1.5, 1.0])}
        fitted = _in_sample("MSLE", raw)
        assert fitted.excluded == 1
        assert fitted.n_eval == 2

    def test_zero_inflated_covers_everything(self):
        raw = {"A": ([0.0, 0.001, 1.0, 2.0], [0.0, 1.0, 1.5, 1.0])}
        fitted = _in_sample("ZMALE", raw)
        assert fitted.excluded == 0
        assert fitted.n_eval == 4
        assert fitted.params.rho == pytest.approx(0.5)

    def test_clamped_prediction_stays_finite(self):
        raw = {"A": ([1.0, 2.0], [0.0, 1.0])}  # pred 0 clamped to threshold
        fitted = _in_sample("MALE", raw)
        assert math.isfinite(fitted.loglik_nats)

    def test_empty_evaluation_set(self):
        raw = {"A": ([0.001, 0.002], [1.0, 1.0])}
        with pytest.raises(EmptyEvaluationSet):
            _in_sample("MSLE", raw)


class TestScoreObjective:
    def test_frozen_normal(self):
        ds = validate_dataset({"A": ([1.0, 2.0], [1.0, 2.0])})
        part = partition_zero_state(ds, 0.0028)
        fitted = score_objective(
            get_objective("MSE"), FittedParams(scale=1.0), ds, part
        )
        assert fitted.loglik_nats == pytest.approx(-math.log(2 * math.pi))
        assert not fitted.in_sample

    def test_frozen_laplace(self):
        ds = validate_dataset({"A": ([3.0], [1.0])})  # residual 2
        part = partition_zero_state(ds, 0.0028)
        fitted = score_objective(
            get_objective("MAE"), FittedParams(scale=2.0), ds, part
        )
        assert fitted.loglik_nats == pytest.approx(-math.log(4) - 1, abs=1e-12)

    def test_uniform_out_of_support_sentinel(self):
        ds = validate_dataset({"A": ([2.5], [1.0])})  # residual 1.5 > bound 1
        part = partition_zero_state(ds, 0.0028)
        fitted = score_objective(
            get_objective("U"), FittedParams(scale=1.0), ds, part
        )
        assert fitted.loglik_nats == float("-inf")
        assert fitted.zero_likelihood


class TestInvariants:
    def test_mle_optimality(self):
        """Perturbing any fitted scale by +/-1% strictly lowers the
        in-sample log-likelihood."""
        rng = np.random.default_rng(12)
        residuals = rng.normal(0, 2, 400)
        cases = [
            (fit_scale_normal, loglik_normal),
            (fit_scale_laplace, loglik_laplace),
            (fit_uniform_bound, loglik_uniform),
        ]
        for fit, loglik in cases:
            scale = fit(residuals)
            best = loglik(residuals, scale)
            assert loglik(residuals, scale * 1.01) < best
            assert loglik(residuals, scale * 0.99) < best

    def test_nse_equals_mse_single_location(self):
        """Scaling by one location's sigma_o cancels exactly against the
        Jacobian, so the two log-likelihoods agree."""
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            raw = {"A": (rng.normal(5, 2, n), rng.normal(5, 2, n))}
            mse = _in_sample("MSE", raw)
            nse = _in_sample("NSE", raw)
            assert abs(nse.loglik_nats - mse.loglik_nats) <= (
                1e-9 * abs(mse.loglik_nats)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1e4), st.floats(0.01, 1e4)),
                    min_size=3, max_size=60))
    def test_nse_equals_mse_single_location_property(self, pairs):
        obs, pred = (np.array(col) for col in zip(*pairs))
        if np.std(obs) == 0.0 or np.all(obs == pred):
            return
        raw = {"A": (obs, pred)}
        mse = _in_sample("MSE", raw)
        nse = _in_sample("NSE", raw)
        assert abs(nse.loglik_nats - mse.loglik_nats) <= (
            1e-9 * abs(mse.loglik_nats)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("DCBA"), st.floats(-1e3, 1e3)),
                    min_size=1, max_size=50),
           st.dictionaries(st.sampled_from("ABCD"),
                           st.sampled_from([0.0, 0.5, 1.0, 2.5])))
    def test_location_codes_match_id_lookup(self, rows, sigma_o):
        """Keys as integer codes give the id-array lookup's values and
        errors."""
        by_loc: dict[str, list[float]] = {}
        for loc, v in rows:
            by_loc.setdefault(loc, []).append(v)
        ds = Dataset(tuple(PairedSeries(loc, v, v) for loc, v in by_loc.items()))
        t = Transform("per-location-scale", sigma_o=sigma_o)
        codes = LocationCodes(ds.location_ids, ds.location_codes)
        for fn in (apply, log_jacobian_sum):
            try:
                expected = fn(t, ds.observed, ds.locations)
            except DomainViolation as exc:
                with pytest.raises(DomainViolation) as err:
                    fn(t, ds.observed, codes)
                assert str(err.value) == str(exc)
                continue
            assert np.array_equal(fn(t, ds.observed, codes), expected)

    def test_mixture_additivity(self):
        """ZMALE's total equals the binomial term plus MALE restricted to
        the positive pairs."""
        rng = np.random.default_rng(9)
        obs = rng.lognormal(0, 1, 500)
        pred = rng.lognormal(0, 1, 500)
        obs[rng.random(500) < 0.1] = 0.0
        pred[rng.random(500) < 0.1] = 0.0
        ds = validate_dataset({"A": (obs, pred)})
        part = partition_zero_state(ds, 0.0028)

        zmale = _in_sample("ZMALE", {"A": (obs, pred)})
        male = _in_sample("MALE", {"A": (obs, pred)})
        binom = loglik_binomial(part.n1, part.n2, fit_binomial_rate(part))
        assert zmale.loglik_nats == pytest.approx(
            binom + male.loglik_nats, abs=1e-12 * abs(zmale.loglik_nats)
        )

    def test_msle_matches_lognormal_density_sum(self):
        """Independent oracle: MSLE's total must equal the lognormal
        log-density with median = prediction, summed termwise."""
        rng = np.random.default_rng(30)
        obs = rng.lognormal(0.5, 1.0, 2000)
        pred = rng.lognormal(0.5, 1.0, 2000)
        fitted = _in_sample("MSLE", {"A": (obs, pred)}, threshold=1e-9)
        sigma = fitted.params.scale
        oracle = float(np.sum(
            -np.log(obs)
            - math.log(sigma)
            - 0.5 * math.log(2 * math.pi)
            - (np.log(obs) - np.log(pred)) ** 2 / (2 * sigma**2)
        ))
        assert fitted.loglik_nats == pytest.approx(oracle, rel=1e-9)

    def test_scale_equivariance(self):
        """Multiplying data (and threshold) by c shifts log-transformed
        objectives by exactly -n ln c."""
        rng = np.random.default_rng(41)
        obs = rng.lognormal(0, 1, 300)
        pred = rng.lognormal(0, 1, 300)
        c = 37.5
        for name in ("MSLE", "MALE"):
            base = _in_sample(name, {"A": (obs, pred)}, threshold=1e-9)
            scaled = _in_sample(
                name, {"A": (obs * c, pred * c)}, threshold=1e-9 * c
            )
            expected = base.loglik_nats - base.n_eval * math.log(c)
            assert scaled.loglik_nats == pytest.approx(expected, rel=1e-12)
            assert scaled.params.scale == pytest.approx(base.params.scale)

    def test_out_of_sample_unseen_zero_state_is_sentinel(self):
        train = validate_dataset({"A": ([1.0, 2.0, 3.0], [1.5, 1.0, 2.0])})
        test = validate_dataset({"A": ([0.0, 1.0, 2.0], [0.5, 1.0, 1.5])})
        part = partition_zero_state(train, 0.0028)
        fitted = evaluate_objective(get_objective("ZMALE"), train, test, part)
        assert fitted.zero_likelihood
