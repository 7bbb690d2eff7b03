"""Tests for the synthetic data generator and its ground-truth oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy import synthetic
from objentropy.data import validate_dataset
from objentropy.errors import InvalidModel, NonPositiveScale
from objentropy.information import conditional_entropy_bits, rank_objectives
from objentropy.likelihoods import CATALOG, evaluate_objective, score_objective
from objentropy.synthetic import (
    FAMILIES,
    SyntheticModel,
    analytic_entropy,
    generate,
    optimal_objective,
)


class TestAnalyticEntropy:
    def test_normal(self):
        assert analytic_entropy("normal", 1.0) == pytest.approx(2.0471, abs=1e-4)

    def test_laplace(self):
        assert analytic_entropy("laplace", 1.0) == pytest.approx(2.4427, abs=1e-4)

    def test_uniform(self):
        assert analytic_entropy("uniform", 0.5) == 0.0

    def test_non_positive_scale(self):
        with pytest.raises(NonPositiveScale):
            analytic_entropy("normal", 0.0)

    def test_unknown_family_is_an_invalid_model(self):
        """An unknown family is a fault of the model, not of its scale."""
        with pytest.raises(InvalidModel) as err:
            analytic_entropy("cauchy", 1.0)
        assert str(err.value) == ("unknown family 'cauchy'; expected one of "
                                  "('normal', 'laplace', 'uniform')")


class TestSyntheticModel:
    def test_invalid_models(self):
        with pytest.raises(InvalidModel):
            SyntheticModel("cauchy", 1.0)
        with pytest.raises(InvalidModel):
            SyntheticModel("additive-normal", 0.0)
        with pytest.raises(InvalidModel):
            SyntheticModel("additive-normal", 1.0, zero_inflation_rate=1.0)
        with pytest.raises(InvalidModel):
            SyntheticModel("additive-normal", 1.0, base_median=(1.0, 2.0),
                           n_locations=3)

    @pytest.mark.parametrize("median", [
        np.int64(3), np.float32(2.0), np.array(2.5), 3, 2.5])
    def test_scalar_median_of_any_numeric_type(self, median):
        """Any 0-d number is every location's median, as float() reads it."""
        model = SyntheticModel("additive-normal", 1.0, base_median=median,
                               n_locations=2)
        assert model.medians() == (float(median),) * 2

    @pytest.mark.parametrize("median", [
        "2", ["1", "2"], None, (1.0, [2.0, 3.0]), [[1.0, 2.0]], True])
    def test_non_numeric_median_is_an_invalid_model(self, median):
        with pytest.raises(InvalidModel) as err:
            SyntheticModel("additive-normal", 1.0, base_median=median,
                           n_locations=2)
        assert str(err.value).startswith(
            "base_median must be a number or a sequence of numbers, got ")

    def test_optimal_objective_map(self):
        """Zero inflation selects the zero-inflated row of the matching
        objective; the catalog has none for additive errors, so no
        objective matches them."""
        expected = {
            "additive-normal": ("MSE", None),
            "additive-laplace": ("MAE", None),
            "multiplicative-lognormal": ("MSLE", "ZMSLE"),
            "multiplicative-log-laplace": ("MALE", "ZMALE"),
        }
        for family, names in expected.items():
            for rate, name in zip((0.0, 0.02), names):
                model = SyntheticModel(family, 0.5, zero_inflation_rate=rate)
                assert optimal_objective(model) == name, (family, rate)


class TestGenerate:
    def test_seed_determinism(self):
        model = SyntheticModel("multiplicative-lognormal", 0.7,
                               zero_inflation_rate=0.05, n_per_location=500,
                               n_locations=3, seed=99)
        a, _ = generate(model)
        b, _ = generate(model)
        np.testing.assert_array_equal(a.observed, b.observed)
        np.testing.assert_array_equal(a.predicted, b.predicted)
        assert a.location_ids == b.location_ids

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FAMILIES), st.sampled_from([0.0, 0.3]),
           st.integers(1, 40), st.integers(1, 4), st.integers(1, 50),
           st.data())
    def test_layout_reads_the_draws_of_whole_calls(self, family, rate, n,
                                                   locations, piece, data):
        """generate, and the layout's read of any columns, give the values
        that one call per kind and location draws from child i of the
        seed's SeedSequence, whatever the size of the pieces drawn."""
        model = SyntheticModel(family, 0.5, zero_inflation_rate=rate,
                               base_median=tuple(range(1, locations + 1)),
                               n_per_location=n, n_locations=locations,
                               seed=data.draw(st.integers(0, 2 ** 64 - 1)))
        kind, base = synthetic._ERRORS[family]
        whole = []
        for i, child in enumerate(
                np.random.SeedSequence(model.seed).spawn(locations)):
            rng = np.random.default_rng(child)
            pred = rng.lognormal(math.log(i + 1), 1.0, size=n)
            eps = getattr(rng, base)(0.0, 0.5, size=n)
            obs = pred + eps if kind == "identity" else pred * np.exp(eps)
            if rate:
                obs[rng.random(n) < rate] = 0.0
                pred[rng.random(n) < rate] = 0.0
            whole.append(np.stack([obs, pred]))
        whole = np.concatenate(whole, axis=1)
        lo = data.draw(st.integers(0, n * locations - 1))
        hi = data.draw(st.integers(lo + 1, n * locations))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthetic, "_DRAW", piece)
            assert generate(model)[0].pairs.tobytes() == whole.tobytes()
            assert (synthetic.layout(model).read(lo, hi).tobytes()
                    == whole[:, lo:hi].tobytes())

    def test_additive_normal_residual_scale(self):
        model = SyntheticModel("additive-normal", 1.0, n_per_location=50_000,
                               seed=1)
        ds, truth = generate(model)
        residuals = ds.observed - ds.predicted
        # 3 standard errors of the sample sd at n = 5e4
        assert float(residuals.std()) == pytest.approx(1.0, abs=3 / math.sqrt(1e5))
        assert truth.optimal_objective == "MSE"

    def test_zero_inflation_populates_every_cell(self):
        model = SyntheticModel("multiplicative-log-laplace", 0.5,
                               zero_inflation_rate=0.1, n_per_location=20_000,
                               seed=3)
        ds, _ = generate(model)
        zero, pred_zero = ds.observed <= 1e-9, ds.predicted <= 1e-9
        for cell in (zero & pred_zero, zero & ~pred_zero, ~zero,
                     ~zero & pred_zero):  # n1, n2, n3 and the clamped pairs
            assert cell.any()

    def test_per_location_medians(self):
        model = SyntheticModel("multiplicative-lognormal", 0.5,
                               base_median=(1.0, 100.0), base_log_sigma=0.5,
                               n_per_location=4000, n_locations=2, seed=4)
        ds, _ = generate(model)
        (_, first), (_, second) = ds.rows()
        low = float(np.median(ds.predicted[first]))
        high = float(np.median(ds.predicted[second]))
        assert low == pytest.approx(1.0, rel=0.1)
        assert high == pytest.approx(100.0, rel=0.1)


def _in_sample_h(name, ds):
    fitted = evaluate_objective(CATALOG[name], ds, ds, 1e-9)
    return conditional_entropy_bits(fitted.loglik_nats, fitted.n_eval)


class TestEntropyRecovery:
    def test_additive_normal_matches_analytic(self):
        model = SyntheticModel("additive-normal", 1.0, base_median=8.0,
                               base_log_sigma=0.5, n_per_location=100_000,
                               seed=21)
        ds, _ = generate(model)
        h = _in_sample_h("MSE", ds)
        assert abs(h - analytic_entropy("normal", 1.0)) <= 0.02

    def test_additive_laplace_matches_analytic(self):
        model = SyntheticModel("additive-laplace", 1.0, base_median=8.0,
                               base_log_sigma=0.5, n_per_location=100_000,
                               seed=22)
        ds, _ = generate(model)
        h = _in_sample_h("MAE", ds)
        assert abs(h - analytic_entropy("laplace", 1.0)) <= 0.02

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_uniform_matches_analytic(self, a):
        """U's density is 1/(2a) on [-a, a], so its fit on U(-a, a) errors
        recovers log2(2a)."""
        errors = np.random.default_rng(23).uniform(-a, a, 100_000)
        ds = validate_dataset({"A": (errors, np.zeros_like(errors))})
        h = _in_sample_h("U", ds)
        assert abs(h - analytic_entropy("uniform", a)) <= 1e-3


class TestOracleConsistency:
    """The objective whose transform and base family match the generator
    must attain the minimum out-of-sample entropy in >= 19 of 20 seeds.

    Heterogeneous location scales keep the per-location normalization from
    shadowing the plain squared error; the threshold sits below the
    generator's support so no natural flow lands in the zero state.
    """

    CASES = [
        ("additive-normal", 1.0, (8.0, 16.0, 32.0, 64.0), 0.25, "MSE"),
        ("additive-laplace", 1.0, (8.0, 16.0, 32.0, 64.0), 0.25, "MAE"),
        ("multiplicative-lognormal", 0.7, (1.0, 5.0, 25.0, 125.0), 1.0, "MSLE"),
        ("multiplicative-log-laplace", 0.5, (1.0, 5.0, 25.0, 125.0), 1.0, "MALE"),
    ]

    @pytest.mark.parametrize("family,scale,medians,log_sigma,expected", CASES)
    def test_matching_objective_wins(self, family, scale, medians, log_sigma,
                                     expected):
        wins = 0
        for seed in range(3000, 3020):
            top = self._out_of_sample_winner(
                family, scale, medians, log_sigma, seed
            )
            wins += top == expected
        assert wins >= 19, f"{expected} won only {wins}/20"

    @staticmethod
    def _out_of_sample_winner(family, scale, medians, log_sigma, seed):
        def model(s):
            return SyntheticModel(
                family, scale, base_median=medians, base_log_sigma=log_sigma,
                n_per_location=25_000, n_locations=len(medians), seed=s,
            )
        train, _ = generate(model(seed))
        test, _ = generate(model(seed + 1_000_000))
        estimates = []
        for spec in CATALOG.values():
            fitted = evaluate_objective(spec, train, train, 1e-9)
            estimates.append(score_objective(spec, fitted.params, test, 1e-9))
        report = rank_objectives(estimates)
        return [r.name for r in report.rows if r.rank == 1][0]
