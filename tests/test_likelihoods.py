"""Tests for the objective catalog: fits, log-likelihoods, and evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from objentropy.data import SplitSpec, split, validate_dataset
from objentropy.errors import (
    DegenerateScale,
    DomainViolation,
    EmptyEvaluationSet,
    EmptyInput,
    InvalidModel,
    InvalidProbability,
    NonPositiveScale,
    NoZeroState,
    ObjentropyError,
    UnknownObjective,
)
from objentropy.information import (
    aic_adjusted_entropy,
    conditional_entropy_bits,
    rank_objectives,
)
from objentropy.io import report_records
from objentropy.likelihoods import (
    BASE_FAMILIES,
    CATALOG,
    FittedParams,
    ObjectiveSpec,
    _sigma_o,
    evaluate_objective,
    fit_binomial_rate,
    fit_scale,
    get_objective,
    loglik,
    loglik_binomial,
    resolve_objectives,
    score_objective,
)

E = math.e


class TestScaleFits:
    def test_normal(self):
        assert fit_scale("normal", [3, -4, 0]) == pytest.approx(
            math.sqrt(25 / 3))
        assert fit_scale("normal", [1, -1]) == 1.0

    def test_normal_degenerate(self):
        with pytest.raises(DegenerateScale, match="sigma is undefined"):
            fit_scale("normal", [0, 0])

    def test_laplace(self):
        assert fit_scale("laplace", [1, -1]) == 1.0
        assert fit_scale("laplace", [2, 0, 4]) == 2.0

    def test_laplace_degenerate(self):
        with pytest.raises(DegenerateScale, match="b is undefined"):
            fit_scale("laplace", [0])

    def test_uniform(self):
        assert fit_scale("uniform", [0.5, -0.25]) == 0.5
        assert fit_scale("uniform", [-3, 2]) == 3.0

    def test_uniform_degenerate(self):
        with pytest.raises(DegenerateScale, match="the bound is undefined"):
            fit_scale("uniform", [0, 0])
        with pytest.raises(EmptyInput, match="residuals are empty"):
            fit_scale("uniform", [])

    def test_binomial_rate(self):
        assert fit_binomial_rate(3, 1) == 0.75
        assert fit_binomial_rate(0, 2) == 0.0
        assert fit_binomial_rate(5, 0) == 1.0

    def test_binomial_no_zero_state(self):
        with pytest.raises(NoZeroState):
            fit_binomial_rate(0, 0)


class TestLoglikKernels:
    def test_normal(self):
        assert loglik("normal", [1, -1], 1.0) == pytest.approx(
            -math.log(2 * math.pi) - 1, abs=1e-12
        )
        assert loglik("normal", [0], 1.0) == pytest.approx(-0.9189385,
                                                           abs=1e-6)
        with pytest.raises(NonPositiveScale, match="sigma must be > 0"):
            loglik("normal", [1], 0.0)

    def test_laplace(self):
        assert loglik("laplace", [1, -1], 1.0) == pytest.approx(
            -2 * math.log(2) - 2, abs=1e-12
        )
        assert loglik("laplace", [0], 1.0) == pytest.approx(-math.log(2),
                                                            abs=1e-12)
        with pytest.raises(NonPositiveScale, match="b must be > 0"):
            loglik("laplace", [1], 0.0)

    def test_uniform(self):
        # densities above one make positive log-likelihoods legitimate
        assert loglik("uniform", [0.5, -0.25], 0.5) == pytest.approx(
            -2 * math.log(0.5), abs=1e-12
        )
        assert loglik("uniform", [0.1], 1.0) == 0.0
        assert loglik("uniform", [2.0], 1.0) == float("-inf")
        assert loglik("uniform", [], 1.0) == 0.0
        with pytest.raises(NonPositiveScale, match="bound must be > 0"):
            loglik("uniform", [1], 0.0)

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

    def test_spec_rejects_unknown_family_or_transform(self):
        with pytest.raises(InvalidModel, match="unknown base family"):
            ObjectiveSpec("X", "x", "identity", "cauchy", False)
        with pytest.raises(InvalidModel, match="unknown transform 'cube'"):
            ObjectiveSpec("X", "x", "cube", "normal", False)

    def test_resolve_all(self):
        assert len(resolve_objectives("all")) == 10
        assert [s.name for s in resolve_objectives("MSE,MALE")] == ["MSE", "MALE"]


def _in_sample(name, raw, threshold=0.0028):
    ds = validate_dataset(raw)
    return evaluate_objective(get_objective(name), ds, ds, threshold)


class TestEvaluateObjective:
    def test_mse_example(self):
        fitted = _in_sample("MSE", {"A": ([1, 2], [2, 4])})
        assert fitted.params.scale == pytest.approx(1.5811, abs=1e-4)
        assert fitted.loglik_nats == pytest.approx(-3.7542, abs=1e-4)
        assert fitted.n_eval == 2

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


class TestEvaluationIsEstimate:
    def test_every_objective(self):
        """An evaluation is the entropy estimate rank ranks: its figures
        follow from its log-likelihood, and it carries the parameters that
        reproduce it."""
        rng = np.random.default_rng(4)
        raw = {}
        for loc in ("A", "B"):
            pred = rng.lognormal(0.0, 1.0, 80)
            obs = pred * rng.lognormal(0.0, 0.5, 80)
            obs[:6] = 0.0
            pred[:3] = 0.0
            raw[loc] = (obs, pred)
        ds = validate_dataset(raw)
        zmsle = evaluate_objective(CATALOG["ZMSLE"], ds, ds)
        assert 0 < zmsle.params.rho < 1
        evaluations = []
        for spec in CATALOG.values():
            result = evaluate_objective(spec, ds, ds)
            assert (result.name, result.k) == (spec.name, spec.k)
            assert result.h_bits == conditional_entropy_bits(
                result.loglik_nats, result.n_eval)
            assert result.h_adj_bits == aic_adjusted_entropy(
                result.loglik_nats, result.n_eval, spec.k)
            assert score_objective(spec, result.params, ds) == result
            evaluations.append(result)
        rebuilt = [replace(e, params=None) for e in evaluations]
        assert report_records(rank_objectives(evaluations)) == report_records(
            rank_objectives(rebuilt))


class TestSigmaO:
    """NSE's sigma_o: the population standard deviation of each location's
    observed values in the dataset its transform is built on."""

    @staticmethod
    def _sigma_o(raw):
        return _sigma_o(validate_dataset(raw))

    def test_analytic(self):
        sigma = self._sigma_o({"A": ([1, 2, 3], [1, 1, 1]),
                               "B": ([4, 8], [0, 0])})
        np.testing.assert_allclose(sigma, [np.sqrt(2.0 / 3.0), 2.0],
                                   atol=1e-12)
        assert sigma.dtype == np.float64

    def test_single_point(self):
        with pytest.raises(DomainViolation,
                           match="location 'A' has sigma_o = 0.0"):
            self._sigma_o({"A": ([5], [0])})

    def test_constant_series(self):
        with pytest.raises(DomainViolation,
                           match="location 'B' has sigma_o = 0.0"):
            self._sigma_o({"C": ([1, 2], [0, 0]), "B": ([2, 2, 2], [0, 0, 0]),
                           "D": ([3], [3])})

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        obs = rng.lognormal(0, 1, 1000)
        (sigma,) = self._sigma_o({"A": (obs, obs)})
        mean = sum(obs) / len(obs)
        var = sum((x - mean) ** 2 for x in obs) / len(obs)
        assert sigma == pytest.approx(np.sqrt(var), rel=1e-12)


class TestOutOfSampleNSE:
    """NSE scales by the sigma_o of the data being fitted or scored."""

    @staticmethod
    def _split(mode):
        rng = np.random.default_rng(5)
        raw = {}
        for i in range(8):
            pred = rng.lognormal(0.3 * i, 1.0, 40)
            raw[f"L{i}"] = (pred * rng.lognormal(0.0, 0.4, 40), pred)
        return split(validate_dataset(raw), SplitSpec(mode, 0.25, seed=2))

    @pytest.mark.parametrize("mode", ["random-fraction", "by-location"])
    def test_out_of_sample_is_fit_then_score(self, mode):
        """Scoring test locations the fit never saw succeeds, and equals an
        in-sample fit on train followed by a frozen score on test."""
        train, test = self._split(mode)
        nse = get_objective("NSE")
        result = evaluate_objective(nse, train, test)
        assert result.n_eval == test.n_total
        assert math.isfinite(result.loglik_nats)
        fitted = evaluate_objective(nse, train, train)
        assert result == score_objective(nse, fitted.params, test)


class TestScoreObjective:
    def test_frozen_normal(self):
        ds = validate_dataset({"A": ([1.0, 2.0], [1.0, 2.0])})
        params = FittedParams(scale=1.0)
        fitted = score_objective(get_objective("MSE"), params, ds)
        assert fitted.loglik_nats == pytest.approx(-math.log(2 * math.pi))
        assert fitted.params is params

    def test_frozen_laplace(self):
        ds = validate_dataset({"A": ([3.0], [1.0])})  # residual 2
        fitted = score_objective(
            get_objective("MAE"), FittedParams(scale=2.0), ds
        )
        assert fitted.loglik_nats == pytest.approx(-math.log(4) - 1, abs=1e-12)

    def test_uniform_out_of_support_sentinel(self):
        ds = validate_dataset({"A": ([2.5], [1.0])})  # residual 1.5 > bound 1
        fitted = score_objective(
            get_objective("U"), FittedParams(scale=1.0), ds
        )
        assert fitted.loglik_nats == float("-inf")
        assert fitted.zero_likelihood


class TestInvariants:
    def test_mle_optimality(self):
        """Perturbing any fitted scale by +/-1% strictly lowers the
        in-sample log-likelihood."""
        rng = np.random.default_rng(12)
        residuals = rng.normal(0, 2, 400)
        for family in BASE_FAMILIES:
            scale = fit_scale(family, residuals)
            best = loglik(family, residuals, scale)
            assert loglik(family, residuals, scale * 1.01) < best
            assert loglik(family, residuals, scale * 0.99) < best

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
    # sigma_o of a few ULPs: o / sigma and p / sigma round to numbers
    # whose difference is not (o - p) / sigma.
    @example([(0.010000000000000002, 0.01), (0.01, 0.01), (0.01, 0.01)])
    @example([(1234.5, 1234.5000000000002), (1234.5000000000002, 1234.5),
              (1234.5000000000005, 1234.4999999999998)])
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

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("DCBA"),
                              *[st.sampled_from([-1.0, 0.5, 2.0])
                                | st.integers(-64000, 64000).map(
                                    lambda k: k / 64)] * 2),
                    min_size=1, max_size=50))
    def test_location_codes_match_id_lookup(self, rows):
        """NSE's residual, indexed by location code, is o - p divided by
        the sigma_o looked up by the pair's location id, and its
        log-Jacobian is -sum ln sigma_o over the same lookup. Where
        locations have sigma_o = 0, fitting NSE fails naming the smallest
        such id, and scoring gives the zero-likelihood sentinel."""
        by_loc: dict[str, tuple[list[float], list[float]]] = {}
        for loc, obs, pred in rows:
            by_loc.setdefault(loc, ([], []))
            by_loc[loc][0].append(obs)
            by_loc[loc][1].append(pred)
        ds = validate_dataset(by_loc)
        sigma_o = {loc: np.std(obs) for loc, (obs, _) in by_loc.items()}
        nse = get_objective("NSE")
        zero = [loc for loc, s in sigma_o.items() if s == 0]
        if zero:
            message = ("sigma_o must be > 0 wherever used as a divisor; "
                       f"location {min(zero)!r} has sigma_o = 0.0")
            with pytest.raises(DomainViolation) as err:
                evaluate_objective(nse, ds, ds)
            assert str(err.value) == message
            params = FittedParams(1.0)
            scored = score_objective(nse, params, ds)
            assert scored.loglik_nats == float("-inf")
            assert scored.zero_likelihood
            assert (scored.n_eval, scored.params) == (ds.n_total, params)
            return
        lookup = np.array([sigma_o[loc] for loc in ds.locations])
        residuals = (ds.observed - ds.predicted) / lookup
        if not residuals.any():
            with pytest.raises(DegenerateScale):
                evaluate_objective(nse, ds, ds)
            return
        scale = fit_scale("normal", residuals)
        got = evaluate_objective(nse, ds, ds)
        assert got.params.scale == scale
        assert got.loglik_nats == (loglik("normal", residuals, scale)
                                   - float(np.sum(np.log(lookup))))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("AB"),
                              st.sampled_from([0.0, 0.001]) | st.floats(0.01, 1e4),
                              st.sampled_from([0.0, 0.001]) | st.floats(0.01, 1e4)),
                    min_size=2, max_size=40))
    def test_in_sample_evaluation_equals_frozen_score(self, rows):
        """An in-sample evaluation scores the frame it was fitted on, which
        gives a frozen re-score's figures exactly."""
        by_loc: dict[str, tuple[list[float], list[float]]] = {}
        for loc, obs, pred in rows:
            by_loc.setdefault(loc, ([], []))
            by_loc[loc][0].append(obs)
            by_loc[loc][1].append(pred)
        ds = validate_dataset(by_loc)
        assume((ds.observed <= 0.0028).any())
        for spec in CATALOG.values():
            try:
                fitted = evaluate_objective(spec, ds, ds)
            except ObjentropyError:
                continue
            frozen = score_objective(spec, fitted.params, ds)
            assert (frozen.loglik_nats, frozen.n_eval, frozen.excluded,
                    frozen.zero_likelihood) == (
                fitted.loglik_nats, fitted.n_eval, fitted.excluded,
                fitted.zero_likelihood)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from([0.0, 0.0028, 0.5, 0.6])
                                | st.floats(0.0, 10.0)] * 2),
                    min_size=1, max_size=40),
           st.sampled_from([0.0028, 0.5]))
    def test_zmsle_rho_counts_the_zero_state(self, pairs, threshold):
        """ZMSLE's rho is n1 / (n1 + n2), counted here in numpy: an observed
        value at or below the threshold is in the zero state, and counts in
        n1 when its prediction is at or below it too. MSLE excludes exactly
        the zero state."""
        obs, pred = (np.array(col) for col in zip(*pairs))
        ds = validate_dataset({"A": (obs, pred)})
        zero = obs <= threshold
        n1 = int(np.count_nonzero(zero & (pred <= threshold)))
        n2 = int(np.count_nonzero(zero)) - n1
        zmsle, msle = get_objective("ZMSLE"), get_objective("MSLE")
        if zero.all():
            with pytest.raises(EmptyEvaluationSet):
                evaluate_objective(zmsle, ds, ds, threshold)
            return
        try:
            fitted = evaluate_objective(zmsle, ds, ds, threshold)
        except DegenerateScale:
            return
        assert fitted.params.rho == (n1 / (n1 + n2) if n1 + n2 else None)
        assert fitted.n_eval == ds.n_total
        excluded = evaluate_objective(msle, ds, ds, threshold).excluded
        assert excluded == n1 + n2

    def test_mixture_additivity(self):
        """ZMALE's total equals the binomial term plus MALE restricted to
        the positive pairs."""
        rng = np.random.default_rng(9)
        obs = rng.lognormal(0, 1, 500)
        pred = rng.lognormal(0, 1, 500)
        obs[rng.random(500) < 0.1] = 0.0
        pred[rng.random(500) < 0.1] = 0.0
        zero = obs <= 0.0028
        n1 = int(np.count_nonzero(zero & (pred <= 0.0028)))
        n2 = int(np.count_nonzero(zero)) - n1

        zmale = _in_sample("ZMALE", {"A": (obs, pred)})
        male = _in_sample("MALE", {"A": (obs, pred)})
        binom = loglik_binomial(n1, n2, fit_binomial_rate(n1, n2))
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

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(
        st.sampled_from("ABC"),
        st.lists(st.tuples(*[st.sampled_from([0.0, 1 / 1024])
                             | st.integers(1, 6400).map(lambda k: k / 64)] * 2),
                 min_size=1, max_size=8),
        min_size=2, max_size=3))
    def test_catalog_matches_termwise_density_oracle(self, raw):
        """Every catalog objective's in-sample total equals its density on
        the original scale summed termwise: the base family's log-density
        of v(y) - v(pred), plus ln|v'(y)|, over the clamped support, plus
        the binomial zero-state term when zero-inflated. Values lie on a
        1/64 grid so that distinct values never cancel to rounding noise,
        and a constant location's sigma_o is exactly 0."""
        threshold = 0.0028
        ds = validate_dataset({loc: tuple(zip(*pairs))
                               for loc, pairs in raw.items()})
        rows = [(loc, o, p) for loc, pairs in raw.items() for o, p in pairs]
        sigma_o = {}
        for loc, pairs in raw.items():
            obs = [o for o, _ in pairs]
            mean = math.fsum(obs) / len(obs)
            sigma_o[loc] = math.sqrt(
                math.fsum((o - mean) ** 2 for o in obs) / len(obs))
        zero = [(o, p) for _, o, p in rows if o <= threshold]
        n1 = sum(p <= threshold for _, p in zero)
        n2 = len(zero) - n1
        transforms = {  # kind -> (v, ln|v'|), each of (value, location)
            "identity": (lambda y, loc: y, lambda y, loc: 0.0),
            "natural-log": (lambda y, loc: math.log(y),
                            lambda y, loc: -math.log(y)),
            "square-root": (lambda y, loc: math.sqrt(y),
                            lambda y, loc: -math.log(2 * math.sqrt(y))),
            "reciprocal": (lambda y, loc: 1 / y,
                           lambda y, loc: -2 * math.log(y)),
            "per-location-scale": (lambda y, loc: y / sigma_o[loc],
                                   lambda y, loc: -math.log(sigma_o[loc])),
        }
        for spec in CATALOG.values():
            v, log_dv = transforms[spec.transform_kind]
            if spec.transform_kind == "identity" or (
                    spec.transform_kind == "per-location-scale"):
                support = rows
            else:
                support = [(loc, o, max(p, threshold))
                           for loc, o, p in rows if o > threshold]
            if not support:
                with pytest.raises(EmptyEvaluationSet):
                    evaluate_objective(spec, ds, ds, threshold)
                continue
            if spec.transform_kind == "per-location-scale" and (
                    0.0 in sigma_o.values()):
                with pytest.raises(DomainViolation):
                    evaluate_objective(spec, ds, ds, threshold)
                continue
            r = [v(o, loc) - v(p, loc) for loc, o, p in support]
            n = len(r)
            scale = {
                "normal": math.sqrt(math.fsum(x * x for x in r) / n),
                "laplace": math.fsum(abs(x) for x in r) / n,
                "uniform": max(abs(x) for x in r),
            }[spec.base_family]
            if scale == 0.0:
                with pytest.raises(DegenerateScale):
                    evaluate_objective(spec, ds, ds, threshold)
                continue
            density = {
                "normal": lambda x: (-math.log(scale)
                                     - 0.5 * math.log(2 * math.pi)
                                     - x * x / (2 * scale * scale)),
                "laplace": lambda x: -math.log(2 * scale) - abs(x) / scale,
                "uniform": lambda x: -math.log(scale),
            }[spec.base_family]
            terms = [density(x) + log_dv(o, loc)
                     for x, (loc, o, _) in zip(r, support)]
            if spec.zero_inflated:  # rho = n1 / (n1 + n2)
                terms += [math.log(c / len(zero)) for c in (n1, n2)
                          for _ in range(c)]
            result = evaluate_objective(spec, ds, ds, threshold)
            magnitude = math.fsum(abs(t) for t in terms)
            assert abs(result.loglik_nats - math.fsum(terms)) <= (
                1e-9 * magnitude), spec.name
            assert result.params.scale == pytest.approx(scale, rel=1e-9)
            assert result.n_eval == len(terms)

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
        fitted = evaluate_objective(get_objective("ZMALE"), train, test)
        assert fitted.zero_likelihood
