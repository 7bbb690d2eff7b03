"""Tests for convergence curves and location-wise entropy correlation."""

import collections
import math

import numpy as np
import pytest

from objentropy import diagnostics
from objentropy.data import validate_dataset
from objentropy.diagnostics import (
    convergence_curve,
    pearson,
    pearson_matrix,
    per_location_entropy,
)
from objentropy.errors import EmptyInput, SizeExceedsData, ZeroVariance
from objentropy.information import conditional_entropy_bits
from objentropy.likelihoods import CATALOG, evaluate_objective
from objentropy.synthetic import SyntheticModel, analytic_entropy, generate


def _normal_dataset(n=10_000, seed=5):
    model = SyntheticModel("additive-normal", 1.0, base_median=8.0,
                           base_log_sigma=0.5, n_per_location=n, seed=seed)
    ds, _ = generate(model)
    return ds


class TestConvergenceCurve:
    def test_single_full_size_has_zero_error(self):
        ds = _normal_dataset(n=500)
        curve = convergence_curve(ds, CATALOG["MSE"], [500], replicates=1,
                                  seed=0, threshold=1e-9)
        assert len(curve.points) == 1
        assert curve.points[0].abs_error == 0.0
        assert curve.reference_h == curve.points[0].h_bits

    def test_size_exceeds_data(self):
        ds = _normal_dataset(n=100)
        with pytest.raises(SizeExceedsData):
            convergence_curve(ds, CATALOG["MSE"], [200], seed=0)

    def test_sizes_must_increase(self):
        ds = _normal_dataset(n=100)
        with pytest.raises(SizeExceedsData):
            convergence_curve(ds, CATALOG["MSE"], [50, 50], seed=0)
        with pytest.raises(EmptyInput):
            convergence_curve(ds, CATALOG["MSE"], [], seed=0)

    def test_median_error_non_increasing(self):
        """Larger subsamples estimate the reference entropy better."""
        ds = _normal_dataset()
        curve = convergence_curve(ds, CATALOG["MSE"], [10, 100, 1000],
                                  replicates=15, seed=9, threshold=1e-9)
        by_size = collections.defaultdict(list)
        for p in curve.points:
            by_size[p.size].append(p.abs_error)
        medians = [float(np.median(by_size[s])) for s in (10, 100, 1000)]
        assert medians[0] >= medians[1] >= medians[2]

    def test_reference_near_analytic_entropy(self):
        ds = _normal_dataset()
        curve = convergence_curve(ds, CATALOG["MSE"], [100, 1000, 4000],
                                  replicates=5, seed=2, threshold=1e-9)
        # 3 standard errors of a size-4000 entropy estimate
        se = math.sqrt(0.5 / 4000) / math.log(2)
        assert abs(curve.reference_h - analytic_entropy("normal", 1.0)) <= 3 * se

    def test_bit_for_bit_determinism(self):
        ds = _normal_dataset(n=2000)
        kwargs = dict(sizes=[50, 500], replicates=4, seed=123, threshold=1e-9)
        a = convergence_curve(ds, CATALOG["MALE"], **kwargs)
        b = convergence_curve(ds, CATALOG["MALE"], **kwargs)
        assert a == b

    def test_bootstrap_flag_changes_draws(self):
        ds = _normal_dataset(n=300)
        a = convergence_curve(ds, CATALOG["MSE"], [300], replicates=1, seed=1,
                              threshold=1e-9)
        b = convergence_curve(ds, CATALOG["MSE"], [300], replicates=1, seed=1,
                              threshold=1e-9, with_replacement=True)
        assert a.points[0].h_bits != b.points[0].h_bits

    def test_bootstrap_scores_every_draw(self, monkeypatch):
        """A pair drawn twice is scored twice, so n_eval equals the size."""
        n_evals = []

        def recording(*args, **kwargs):
            fitted = evaluate_objective(*args, **kwargs)
            n_evals.append(fitted.n_eval)
            return fitted

        monkeypatch.setattr(diagnostics, "evaluate_objective", recording)
        ds = _normal_dataset(n=1000)
        convergence_curve(ds, CATALOG["MSE"], [200, 1000], replicates=2,
                          seed=4, threshold=1e-9, with_replacement=True)
        assert n_evals == [200, 200, 1000, 1000]

    def test_without_replacement_scores_the_drawn_pairs(self):
        ds = _normal_dataset(n=600)
        curve = convergence_curve(ds, CATALOG["MAE"], [50, 300], replicates=2,
                                  seed=8, threshold=1e-9)
        rng = np.random.default_rng(8)
        for point in curve.points:
            mask = np.zeros(ds.n_total, dtype=bool)
            mask[rng.choice(ds.n_total, size=point.size, replace=False)] = True
            sub = ds.subset(mask)
            fitted = evaluate_objective(CATALOG["MAE"], sub, sub, 1e-9)
            assert point.h_bits == conditional_entropy_bits(
                fitted.loglik_nats, fitted.n_eval
            )


def _heteroscedastic_dataset(seed=0, n=800):
    """Same flow scale everywhere, very different relative noise per site."""
    scales = [0.25, 0.4, 0.6, 0.9, 1.3, 1.8, 0.3, 0.7, 1.1, 1.6]
    raw = {}
    for i, s in enumerate(scales):
        model = SyntheticModel("multiplicative-lognormal", s, base_median=5.0,
                               base_log_sigma=0.6, n_per_location=n,
                               n_locations=1, seed=seed + i)
        ds, _ = generate(model)
        raw[f"site{i:02d}"] = (ds.observed, ds.predicted)
    return validate_dataset(raw)


class TestPerLocationEntropy:
    def test_single_location_unit_diagonal(self):
        ds = _normal_dataset(n=200)
        mat = per_location_entropy(ds, [CATALOG["MSE"], CATALOG["MAE"]],
                                   threshold=1e-9)
        assert mat.correlations[0, 0] == 1.0
        assert mat.correlations[1, 1] == 1.0
        # one row: pairwise correlation undefined, reported missing
        assert np.isnan(mat.correlations[0, 1])

    def test_identical_columns_correlate_perfectly(self):
        ds = _heteroscedastic_dataset()
        mat = per_location_entropy(ds, [CATALOG["MSE"], CATALOG["MSE"]],
                                   threshold=1e-9)
        assert mat.correlations[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_absolute_metrics_group_together(self):
        """Relative-noise heterogeneity: the per-location normalization
        tracks plain squared error exactly, while the log variant diverges
        from it."""
        ds = _heteroscedastic_dataset()
        specs = [CATALOG["MSE"], CATALOG["NSE"], CATALOG["MSLE"]]
        mat = per_location_entropy(ds, specs, threshold=1e-9)
        r_mse_nse = mat.correlations[0, 1]
        r_mse_msle = mat.correlations[0, 2]
        assert r_mse_nse > r_mse_msle

    def test_failed_cells_are_nan_not_fatal(self):
        # constant series: sigma_o = 0 so the normalized objective fails
        ds = validate_dataset({"flat": ([5.0, 5.0, 5.0], [4.0, 6.0, 5.0]),
                               "ok": ([1.0, 2.0, 4.0], [2.0, 1.0, 3.0])})
        mat = per_location_entropy(ds,
                                   [CATALOG["MSE"], CATALOG["NSE"]],
                                   threshold=1e-9)
        assert np.isnan(mat.entropies[0, 1])
        assert np.isfinite(mat.entropies[1, 1])

    def test_matrix_exactly_symmetric(self):
        ds = _heteroscedastic_dataset(seed=40, n=300)
        specs = [CATALOG[n] for n in ("MSE", "MAE", "MSLE", "MALE")]
        mat = per_location_entropy(ds, specs, threshold=1e-9)
        np.testing.assert_array_equal(mat.correlations, mat.correlations.T)
        assert (np.diag(mat.correlations) == 1.0).all()
        finite = np.isfinite(mat.correlations)
        assert (np.abs(mat.correlations[finite]) <= 1.0).all()


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_rounding_stays_within_unit_interval(self):
        # Unclamped, these columns give 1.0000000000000002 and its negative.
        x = [3.9, 2.8, -2.1, -3.8]
        assert pearson(x, x) == 1.0
        assert pearson(x, [-v for v in x]) == -1.0

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])

    def test_matrix_pairwise_complete(self):
        cols = np.array([
            [1.0, 2.0, np.nan],
            [2.0, 4.0, 1.0],
            [3.0, 6.0, 2.0],
            [4.0, 8.0, 2.5],
        ])
        corr = pearson_matrix(cols)
        assert corr[0, 1] == pytest.approx(1.0)
        # column 2 pairs drop the NaN row
        assert np.isfinite(corr[0, 2])
        np.testing.assert_array_equal(corr, corr.T)
