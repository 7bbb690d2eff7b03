"""Tests for the objective catalog: fits, log-likelihoods, and evaluation."""

import math
import re
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from objentropy import cli
from objentropy import data as odata
from objentropy.data import (
    Dataset,
    SplitSpec,
    split,
    split_blocks,
    validate_dataset,
)
from objentropy.diagnostics import per_location_entropy
from objentropy.errors import (
    DegenerateScale,
    DomainViolation,
    EmptyEvaluationSet,
    InvalidModel,
    InvalidProbability,
    NonPositiveScale,
    ObjentropyError,
    UnknownObjective,
)
from objentropy.information import (
    EntropyEstimate,
    aic_adjusted_entropy,
    conditional_entropy_bits,
    rank_objectives,
)
from objentropy.io import report_records, write_dataset_csv
from objentropy.likelihoods import (
    BASE_FAMILIES,
    CATALOG,
    FittedParams,
    ObjectiveSpec,
    _FAMILIES,
    _GATHER,
    _binomial,
    _per_location,
    _sigma_o,
    evaluate_objective,
    get_objective,
    location_frames,
    resolve_objectives,
    score_objective,
)

E = math.e


# The identity objective of each family: its residuals are o - p.
_BY_FAMILY = {"normal": "MSE", "laplace": "MAE", "uniform": "U"}


def _fit_scale(family, residuals):
    """family's column fit, on one segment of residuals."""
    fam = _FAMILIES[family]
    r = np.asarray(residuals, dtype=np.float64)
    return float(fam.fit(fam.statistic(r), r.size))


def _loglik(family, residuals, scale):
    """family's column log-likelihood at scale, on one segment of
    residuals."""
    fam = _FAMILIES[family]
    r = np.asarray(residuals, dtype=np.float64)
    return float(fam.loglik(fam.statistic(r), r.size, scale))


def _assert_degenerate(family, message):
    """A family's fit is 0 on all-zero residuals, and fitting its identity
    objective where every prediction is exact raises message."""
    assert _fit_scale(family, [0, 0]) == 0.0
    exact = validate_dataset({"A": ([1.0, 2.0], [1.0, 2.0])})
    with pytest.raises(DegenerateScale, match=message):
        evaluate_objective(get_objective(_BY_FAMILY[family]), exact, exact)


def _zero_state(n1, n2):
    """Two positive pairs, n1 zero-state pairs predicted in the zero state
    and n2 predicted above it."""
    return validate_dataset({"A": ([0.0] * (n1 + n2) + [1.0, 2.0],
                                   [0.0] * n1 + [1.0] * n2 + [2.0, 1.0])})


class TestScaleFits:
    def test_normal(self):
        assert _fit_scale("normal", [3, -4, 0]) == pytest.approx(
            math.sqrt(25 / 3))
        assert _fit_scale("normal", [1, -1]) == 1.0

    def test_normal_degenerate(self):
        _assert_degenerate("normal", "sigma is undefined")

    def test_laplace(self):
        assert _fit_scale("laplace", [1, -1]) == 1.0
        assert _fit_scale("laplace", [2, 0, 4]) == 2.0

    def test_laplace_degenerate(self):
        _assert_degenerate("laplace", "b is undefined")

    def test_uniform(self):
        assert _fit_scale("uniform", [0.5, -0.25]) == 0.5
        assert _fit_scale("uniform", [-3, 2]) == 3.0

    def test_uniform_degenerate(self):
        _assert_degenerate("uniform", "the bound is undefined")

    def test_binomial_rate(self):
        zmale = get_objective("ZMALE")
        for (n1, n2), rho in (((3, 1), 0.75), ((0, 2), 0.0), ((5, 0), 1.0)):
            ds = _zero_state(n1, n2)
            assert evaluate_objective(zmale, ds, ds).params.rho == rho


def _frozen(name, raw, scale, rho=None):
    ds = validate_dataset(raw)
    return score_objective(get_objective(name), FittedParams(scale, rho), ds)


class TestLoglikKernels:
    def test_normal(self):
        assert _loglik("normal", [1, -1], 1.0) == pytest.approx(
            -math.log(2 * math.pi) - 1, abs=1e-12
        )
        assert _loglik("normal", [0], 1.0) == pytest.approx(-0.9189385,
                                                            abs=1e-6)
        with pytest.raises(NonPositiveScale, match="sigma must be > 0"):
            _frozen("MSE", {"A": ([1.0], [0.0])}, 0.0)

    def test_laplace(self):
        assert _loglik("laplace", [1, -1], 1.0) == pytest.approx(
            -2 * math.log(2) - 2, abs=1e-12
        )
        assert _loglik("laplace", [0], 1.0) == pytest.approx(-math.log(2),
                                                             abs=1e-12)
        with pytest.raises(NonPositiveScale, match="b must be > 0"):
            _frozen("MAE", {"A": ([1.0], [0.0])}, 0.0)

    def test_uniform(self):
        # the density is 1/(2a) on [-a, a]; densities above one make
        # positive log-likelihoods legitimate
        assert _loglik("uniform", [0.25, -0.125], 0.25) == pytest.approx(
            -2 * math.log(0.5), abs=1e-12
        )
        assert _loglik("uniform", [0.1], 1.0) == -math.log(2.0)
        assert _loglik("uniform", [2.0], 1.0) == float("-inf")
        assert _loglik("uniform", [], 1.0) == 0.0
        with pytest.raises(NonPositiveScale, match="bound must be > 0"):
            _frozen("U", {"A": ([1.0], [0.0])}, 0.0)

    def test_binomial(self):
        assert float(_binomial(3, 1, 0.75)) == pytest.approx(
            3 * math.log(0.75) + math.log(0.25), abs=1e-12
        )
        assert float(_binomial(2, 2, 0.5)) == pytest.approx(4 * math.log(0.5))
        assert float(_binomial(0, 5, 0.0)) == 0.0  # 0 ln 0 = 0
        assert float(_binomial(1, 0, 0.0)) == float("-inf")
        with pytest.raises(InvalidProbability):
            _frozen("ZMALE", {"A": ([0.0, 1.0], [0.0, 2.0])}, 1.0, rho=1.5)


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

    @pytest.mark.parametrize("selection", ["MSE,MAE,MSE", ["MAE", "MAE"]])
    def test_resolve_rejects_a_repeated_name(self, selection):
        """A name selected twice would split its evidence in the ranking."""
        with pytest.raises(UnknownObjective, match="selected twice"):
            resolve_objectives(selection)


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

    @staticmethod
    def _nse_fails(ds, message):
        with pytest.raises(DomainViolation, match=message):
            evaluate_objective(CATALOG["NSE"], ds, ds)

    def test_single_point(self):
        ds = validate_dataset({"A": ([5], [0])})
        assert _sigma_o(ds).tolist() == [0.0]
        self._nse_fails(ds, "location 'A' has sigma_o = 0.0")

    def test_constant_series(self):
        ds = validate_dataset({"C": ([1, 2], [0, 0]),
                               "B": ([2, 2, 2], [0, 0, 0]), "D": ([3], [3])})
        assert _sigma_o(ds).tolist() == [0.5, 0.0, 0.0]
        self._nse_fails(ds, "location 'B' has sigma_o = 0.0")

    def test_constant_series_whose_mean_rounds_off(self):
        """The mean of three copies of this value does not round back to
        it, so np.std leaves a few ULPs; sigma_o is still exactly 0, NSE
        fails on the location and its correlate cell is NaN."""
        ds = validate_dataset({"F": ([682.841751481729] * 3, [0, 0, 0]),
                               "A": ([1, 2, 3], [1.5, 2, 2.5])})
        sigma = _sigma_o(ds)
        assert sigma[0] == 0.0
        assert sigma[1] == np.std([1.0, 2.0, 3.0])
        self._nse_fails(ds, "location 'F' has sigma_o = 0.0")
        h = per_location_entropy(ds, [CATALOG["NSE"]]).entropies
        assert np.isnan(h[0, 0]) and np.isfinite(h[1, 0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        obs = rng.lognormal(0, 1, 1000)
        (sigma,) = self._sigma_o({"A": (obs, obs)})
        mean = sum(obs) / len(obs)
        var = sum((x - mean) ** 2 for x in obs) / len(obs)
        assert sigma == pytest.approx(np.sqrt(var), rel=1e-12)


    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 1.0, 682.841751481729])
                             | st.floats(-1e6, 1e6), min_size=1, max_size=4),
                    min_size=1, max_size=20))
    @example([[1.5] * 5000, list(np.linspace(0.0, 1.0, 5000)), [2.0, 3.0]])
    def test_each_location_has_the_bits_of_its_slice(self, locations):
        """sigma_o of a location is np.std of its observed values alone,
        bit for bit, however many locations share its length; and exactly
        0 where they are all equal."""
        ds = validate_dataset({f"L{i}": (obs, obs)
                               for i, obs in enumerate(locations)})
        assert _sigma_o(ds).tolist() == [
            0.0 if min(obs) == max(obs) else float(np.std(np.array(obs)))
            for obs in locations]


class TestOutOfSampleNSE:
    """Out of sample, an objective is fit on train and scored on test; NSE
    scales by the sigma_o of the data being fitted or scored."""

    @staticmethod
    def _split(mode):
        rng = np.random.default_rng(5)
        raw = {}
        for i in range(8):
            pred = rng.lognormal(0.3 * i, 1.0, 40)
            obs = pred * rng.lognormal(0.0, 0.4, 40)
            # Zero-state pairs of both kinds, so ZMSLE and ZMALE fit rho.
            obs[::10] = 0.0
            pred[::20] = 0.0
            raw[f"L{i}"] = (obs, pred)
        return split(validate_dataset(raw), SplitSpec(mode, 0.25, seed=2))

    @pytest.mark.parametrize("mode, name", [
        (mode, name) for mode in ("random", "location") for name in CATALOG
    ])
    def test_out_of_sample_is_fit_then_score(self, mode, name):
        """Evaluating out of sample equals an in-sample fit on train
        followed by a frozen score on test; for NSE, scoring test
        locations the fit never saw succeeds."""
        train, test = self._split(mode)
        spec = get_objective(name)
        result = evaluate_objective(spec, train, test)
        fitted = evaluate_objective(spec, train, train)
        if spec.zero_inflated:
            assert fitted.params.rho is not None
        assert result == score_objective(spec, fitted.params, test)
        if name == "NSE":
            assert result.n_eval == test.n_total
            assert math.isfinite(result.loglik_nats)

    def test_an_error_names_its_objective_once(self):
        """evaluate_objective names the objective in an error from either
        side, once; score_objective called directly does not."""
        msle = get_objective("MSLE")
        message = "no pairs above the zero-state threshold"
        train = validate_dataset({"A": ([1.0, 2.0, 4.0], [1.5, 2.0, 3.0])})
        dry = validate_dataset({"B": ([0.0, 0.001], [1.0, 0.0])})
        for fit_on, score_on in ((train, dry), (dry, dry)):
            with pytest.raises(EmptyEvaluationSet) as err:
                evaluate_objective(msle, fit_on, score_on)
            assert str(err.value) == f"objective MSLE: {message}"
        params = evaluate_objective(msle, train, train).params
        with pytest.raises(EmptyEvaluationSet) as err:
            score_objective(msle, params, dry)
        assert str(err.value) == message


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
            scale = _fit_scale(family, residuals)
            best = _loglik(family, residuals, scale)
            assert _loglik(family, residuals, scale * 1.01) < best
            assert _loglik(family, residuals, scale * 0.99) < best

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
    # Equal observed values whose np.std is a few ULPs, not 0.
    @example([(5461.704179106286, 1.0)] * 3)
    def test_nse_equals_mse_single_location_property(self, pairs):
        obs, pred = (np.array(col) for col in zip(*pairs))
        # NSE fails where sigma_o is 0: where the observed values are equal.
        if np.all(obs == obs[0]) or np.all(obs == pred):
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
            message = ("objective NSE: sigma_o must be > 0 wherever used "
                       f"as a divisor; location {min(zero)!r} has sigma_o "
                       "= 0.0")
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
        # Each total is the fsum of the locations' partials.
        rows = [rows for _, rows in ds.rows()]
        statistic = math.fsum(float(np.sum(residuals[r] * residuals[r]))
                              for r in rows)
        normal = _FAMILIES["normal"]
        scale = float(normal.fit(statistic, ds.n_total))
        got = evaluate_objective(nse, ds, ds)
        assert got.params.scale == scale
        assert got.loglik_nats == (
            float(normal.loglik(statistic, ds.n_total, scale))
            - math.fsum(float(np.sum(np.log(lookup[r]))) for r in rows))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_location_order_changes_nothing(self, tmp_path_factory, data):
        """Reordering a dataset's locations, each keeping its rows in order,
        leaves every estimate (or error) and rank's json bytes as they
        were: each total is the fsum of the locations' partials."""
        values = st.sampled_from([0.0, 0.001]) | st.floats(0.01, 1e4)
        locations = data.draw(st.lists(
            st.lists(st.tuples(values, values), min_size=2, max_size=20),
            min_size=2, max_size=5))
        order = data.draw(st.permutations(range(len(locations))))
        folder = tmp_path_factory.mktemp("order")
        outcomes = []
        for k, ids in enumerate((range(len(locations)), order)):
            ds = validate_dataset({f"L{i}": tuple(zip(*locations[i]))
                                   for i in ids})
            estimates = []
            for spec in CATALOG.values():
                try:
                    estimates.append(repr(evaluate_objective(spec, ds, ds)))
                except ObjentropyError as exc:
                    estimates.append(repr(exc))
            path, out = folder / f"{k}.csv", folder / f"{k}.json"
            write_dataset_csv(ds, path)
            code = cli.main(["rank", "--input", str(path), "--format",
                             "json", "--out", str(out)])
            outcomes.append((estimates, code,
                             out.read_bytes() if code == 0 else None))
        assert outcomes[1] == outcomes[0]

    def test_fsum_overflow_is_inf(self):
        """Two locations' sums of squares are finite, but their total
        exceeds the largest float: it is inf, as numpy's sum gives."""
        ds = validate_dataset({"A": ([1e154], [0.0]), "B": ([1e154], [0.0])})
        with np.errstate(invalid="ignore"):  # the loglik's inf / inf
            fitted = evaluate_objective(get_objective("MSE"), ds, ds)
        assert fitted.params.scale == math.inf

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

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.sampled_from("ABC"),
        st.lists(st.tuples(*[st.sampled_from([0.0, 1 / 1024])
                             | st.integers(1, 6400).map(lambda k: k / 64)] * 2),
                 min_size=2, max_size=12),
        min_size=1, max_size=3),
        st.integers(-8, 8), st.sampled_from([0.0028, 0.5]))
    def test_unit_change_moves_entropy_by_log2_c(self, raw, k, threshold):
        """Multiplying observed and predicted values and the threshold by
        c = 2^k, which is exact, moves each objective without zero
        inflation by exactly k bits, and a zero-inflated one by k times its
        share of positive pairs: the binomial part is a probability mass
        and has no units. A Jacobian with the wrong power of y breaks the
        law. The Akaike weights of the objectives without zero inflation do not
        change."""
        c = 2.0 ** k
        ds, scaled = (validate_dataset({
            loc: tuple(np.array(col) * factor for col in zip(*pairs))
            for loc, pairs in raw.items()}) for factor in (1.0, c))
        n_pos = int(np.count_nonzero(ds.observed > threshold))
        before, after = [], []
        for spec in CATALOG.values():
            try:
                h = evaluate_objective(spec, ds, ds, threshold)
            except ObjentropyError as exc:
                with pytest.raises(type(exc)):
                    evaluate_objective(spec, scaled, scaled, threshold * c)
                continue
            h_c = evaluate_objective(spec, scaled, scaled, threshold * c)
            shift = k * n_pos / h.n_eval if spec.zero_inflated else k
            assert h_c.h_bits - h.h_bits == pytest.approx(shift, abs=1e-9)
            if not spec.zero_inflated:
                before.append(h)
                after.append(h_c)
        if before:
            weights = [{row.name: row.weight
                        for row in rank_objectives(side, adjusted=True).rows}
                       for side in (before, after)]
            assert weights[1] == pytest.approx(weights[0], abs=1e-9)

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
        binom = float(_binomial(n1, n2, n1 / (n1 + n2)))
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
                "uniform": lambda x: -math.log(2 * scale),
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


class TestColumnFormulas:
    """A family's fit and log-likelihood are numpy formulas over columns of
    segments; each entry of a column is bit for bit the entry computed
    alone, so one segment, scored as a column of one, gives the same
    figures as it does among many."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(BASE_FAMILIES),
           st.lists(st.tuples(st.floats(0, 1e6), st.integers(1, 10 ** 6),
                              st.floats(1e-6, 1e6)),
                    min_size=1, max_size=40))
    def test_a_column_equals_its_entries(self, family, rows):
        fam = _FAMILIES[family]
        s, n, scale = (np.array(column) for column in zip(*rows))
        fits = np.array([fam.fit(*row[:2]) for row in rows])
        logliks = np.array([fam.loglik(*row) for row in rows])
        assert fam.fit(s, n).tobytes() == fits.tobytes()
        assert fam.loglik(s, n, scale).tobytes() == logliks.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(BASE_FAMILIES),
           st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
                    min_size=1, max_size=10),
           st.floats(1e-3, 1e3))
    def test_one_segment_scores_as_its_column_entry(self, family, segments,
                                                    scale):
        """A segment of residuals r, as a dataset of observed r and
        predicted 0, is fitted and scored by the family's identity
        objective as its entry of the column of segments."""
        fam = _FAMILIES[family]
        s = np.array([fam.statistic(np.array(seg)) for seg in segments])
        n = np.array([len(seg) for seg in segments])
        fits, logliks = fam.fit(s, n), fam.loglik(s, n, scale)
        spec = get_objective(_BY_FAMILY[family])
        for seg, fit, ll in zip(segments, fits, logliks):
            ds = validate_dataset({"A": (seg, [0.0] * len(seg))})
            assert score_objective(spec, FittedParams(scale),
                                   ds).loglik_nats == ll
            if fit == 0:
                with pytest.raises(DegenerateScale):
                    evaluate_objective(spec, ds, ds)
            else:
                assert evaluate_objective(spec, ds, ds).params.scale == fit

    def test_per_location_reduces_each_slice_alone(self):
        """Each location's partial has the bits of its slice reduced alone,
        for slices gathered by length (some lengths more than _GATHER
        values, some rows more than fit in one gather) and empty ones."""
        rng = np.random.default_rng(5)
        n = np.array([*range(1, 300), *range(1, 40), 0, 0, 511, 512, 513,
                      4095, 4096, 4097, 4097, 25_000, *[_GATHER // 3] * 7])
        rng.shuffle(n)
        values = rng.normal(0.0, 1.0, int(n.sum())) * 10.0 ** rng.integers(
            -8, 8, int(n.sum()))
        ends = np.cumsum(n).tolist()
        for fam in _FAMILIES.values():
            alone = [float(fam.statistic(values[a:b]))
                     for a, b in zip([0, *ends], ends)]
            assert _per_location(fam.statistic, values, n).tolist() == alone

    @pytest.mark.parametrize("mode", ["random", "location"])
    def test_estimates_hold_python_scalars(self, mode):
        """Every figure of an estimate is a built-in scalar, so no numpy
        scalar reaches a report."""
        train, test = TestOutOfSampleNSE._split(mode)
        for spec in CATALOG.values():
            fitted = evaluate_objective(spec, train, train)
            for estimate in (fitted, evaluate_objective(spec, train, test),
                             score_objective(spec, fitted.params, test)):
                figures = [getattr(estimate, f.name)
                           for f in fields(EntropyEstimate)]
                *figures, params = figures
                figures += [params.scale, params.rho]
                assert {type(x) for x in figures} <= {
                    str, int, float, bool, type(None)}, spec.name


def _outcomes(evaluate):
    """evaluate(spec) of each catalog objective, or the error it raises,
    as text that holds every float's bits."""
    outcomes = []
    for spec in CATALOG.values():
        try:
            outcomes.append(repr(evaluate(spec)))
        except ObjentropyError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _assert_blocked_equals_split(ds, split_spec, size):
    """Every objective fitted and scored on location frames folded over
    blocks of at most size pairs gives, or raises, what evaluate_objective
    gives on split(ds, split_spec)."""
    frames = partial(location_frames, list(CATALOG.values()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odata, "_BLOCK_PAIRS", size)
        try:
            train, test = split(ds, split_spec)
        except ObjentropyError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                split_blocks(ds, split_spec, frames)
            return None
        blocks = split_blocks(ds, split_spec, frames)
    expected = _outcomes(lambda spec: evaluate_objective(spec, train, test))
    assert _outcomes(
        lambda spec: evaluate_objective(spec, *blocks)) == expected
    return expected


class TestBlockedOutOfSample:
    """rank's out-of-sample path scores location frames folded over blocks
    of whole locations: bit for bit evaluate_objective on split's sides."""

    _VALUES = st.sampled_from([0.0, 0.001, 1.0]) | st.floats(0.01, 1e4)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_blocking_equals_the_split(self, data):
        locations = data.draw(st.lists(
            st.lists(st.tuples(self._VALUES, self._VALUES,
                               st.integers(1, 28)), min_size=1, max_size=15),
            min_size=1, max_size=6))
        rows = [row for location in locations for row in location]
        obs, pred, days = zip(*rows)
        ds = Dataset(tuple(f"L{i}" for i in range(len(locations))),
                     np.cumsum([0, *map(len, locations)]), [obs, pred],
                     tuple(f"2021-02-{day:02d}" for day in days))
        split_spec = SplitSpec(
            data.draw(st.sampled_from(["random", "location", "time"])),
            data.draw(st.sampled_from([0.2, 0.5, 0.7])),
            data.draw(st.integers(0, 2 ** 64 - 1)))
        _assert_blocked_equals_split(
            ds, split_spec, data.draw(st.integers(1, ds.n_total + 1)))

    @pytest.mark.parametrize("size", [1, 4, 7, 1 << 16])
    def test_one_sided_location_and_test_side_sigma_o_zero(self, size):
        """C's later half, its test side under a time split, is constant:
        NSE scores the zero-likelihood sentinel there. Under the location
        split, each location lies wholly on one side."""
        obs = [1.0, 2.0, 4.0, 3.0, 3.0, 5.0, 1.0, 2.0, 1.0, 2.0, 5.0, 5.0]
        pred = [1.5, 2.5, 3.0, 3.5, 2.0, 4.0, 1.5, 2.5, 1.5, 2.5, 4.0, 4.5]
        ds = Dataset(("A", "B", "C"), [0, 4, 8, 12], [obs, pred],
                     tuple(f"2021-03-0{day}" for day in (1, 2, 3, 4) * 3))
        by_time = _assert_blocked_equals_split(
            ds, SplitSpec("time", 0.5), size)
        assert by_time[list(CATALOG).index("NSE")].count(
            "zero_likelihood=True") == 1
        for seed in range(4):
            _assert_blocked_equals_split(
                ds, SplitSpec("location", 0.34, seed), size)
        _assert_blocked_equals_split(ds, SplitSpec("random", 0.3, 5), size)
