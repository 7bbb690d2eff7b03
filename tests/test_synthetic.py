"""Tests for the synthetic data generator and its ground-truth oracle."""

import math

import numpy as np
import pytest

from objentropy.errors import InvalidModel, NonPositiveScale
from objentropy.information import conditional_entropy_bits, rank_objectives
from objentropy.likelihoods import CATALOG, evaluate_objective, score_objective
from objentropy.synthetic import (
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

    def test_optimal_objective_map(self):
        assert optimal_objective(SyntheticModel("additive-normal", 1.0)) == "MSE"
        assert optimal_objective(SyntheticModel("additive-laplace", 1.0)) == "MAE"
        assert optimal_objective(
            SyntheticModel("multiplicative-log-laplace", 0.5)
        ) == "MALE"
        assert optimal_objective(
            SyntheticModel("multiplicative-log-laplace", 0.5,
                           zero_inflation_rate=0.02)
        ) == "ZMALE"


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
