"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with `pytest -s`) and asserts
its stated tolerance and runtime budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from objentropy.cli import main
from objentropy.information import (
    EntropyEstimate,
    adjust_expectation_lognormal,
    akaike_weights,
    conditional_entropy_bits,
    noise_fraction,
    prediction_interval,
    rank_objectives,
)
from objentropy.likelihoods import (
    CATALOG,
    evaluate_objective,
    get_objective,
    score_objective,
)
from objentropy.synthetic import SyntheticModel, analytic_entropy, generate

# Reference ten-objective ranking used by criteria 1 and 2: entropy column
# in bits alongside the weights (at two decimals) and ranks it must yield.
REFERENCE_ROWS = [
    ("MSPE", 1, 23.54, 0.00, 10),
    ("U", 1, 18.17, 0.00, 9),
    ("MSE", 1, 11.62, 0.01, 8),
    ("NSE", 1, 11.20, 0.01, 7),
    ("MAE", 1, 9.49, 0.04, 6),
    ("MSLE", 1, 7.47, 0.15, 5),
    ("MARE", 1, 7.34, 0.17, 4),
    ("ZMSLE", 2, 7.18, 0.19, 3),
    ("MALE", 1, 7.04, 0.21, 2),
    ("ZMALE", 2, 6.95, 0.22, 1),
]


def _report_pass(criterion, started, budget, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s"
    print(f"criterion {criterion}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_1_reference_weights_and_ranks():
    """Feeding the reference entropy column into the weight and ranking
    machinery reproduces its known weights (2 dp) and ranks exactly."""
    started = time.perf_counter()
    h = [row[2] for row in REFERENCE_ROWS]
    weights = akaike_weights(h, base=2)
    for got, (name, _, _, expected, _) in zip(weights, REFERENCE_ROWS):
        assert round(float(got), 2) == expected, name

    estimates = [
        EntropyEstimate(name=name, k=k, h_bits=hb, h_adj_bits=hb)
        for name, k, hb, _, _ in REFERENCE_ROWS
    ]
    report = rank_objectives(estimates, base="bits")
    ranks = {row.name: row.rank for row in report.rows}
    for name, _, _, _, expected_rank in REFERENCE_ROWS:
        assert ranks[name] == expected_rank, name
    _report_pass(1, started, 1.0, "10/10 weights at 2dp, ranks exact")


def test_criterion_2_noise_fractions():
    started = time.perf_counter()
    mse = noise_fraction(11.62, 6.95)
    nse = noise_fraction(11.20, 6.95)
    assert 0.40 <= mse <= 0.41
    assert 0.37 <= nse <= 0.38
    _report_pass(2, started, 1.0, f"MSE noise {mse:.3f}, NSE noise {nse:.3f}")


def _fitted_entropy(objective, family, seed):
    model = SyntheticModel(family, 1.0, base_median=8.0, base_log_sigma=0.5,
                           n_per_location=100_000, n_locations=1, seed=seed)
    dataset, _ = generate(model)
    fitted = evaluate_objective(get_objective(objective), dataset, dataset,
                                1e-9)
    return conditional_entropy_bits(fitted.loglik_nats, fitted.n_eval)


def test_criterion_3_analytic_entropy_recovery():
    started = time.perf_counter()
    h_mse = _fitted_entropy("MSE", "additive-normal", seed=301)
    assert abs(h_mse - 2.0471) <= 0.02
    assert abs(h_mse - analytic_entropy("normal", 1.0)) <= 0.02
    _report_pass(3, started, 10.0, f"normal H={h_mse:.4f} vs 2.0471")

    started = time.perf_counter()
    h_mae = _fitted_entropy("MAE", "additive-laplace", seed=302)
    assert abs(h_mae - 2.4427) <= 0.02
    assert abs(h_mae - analytic_entropy("laplace", 1.0)) <= 0.02
    _report_pass(3, started, 10.0, f"laplace H={h_mae:.4f} vs 2.4427")


def _rank_winner(zero_inflation, threshold, seed):
    model = SyntheticModel(
        "multiplicative-log-laplace", 0.5,
        zero_inflation_rate=zero_inflation,
        n_per_location=25_000, n_locations=4, seed=seed,
    )
    dataset, _ = generate(model)
    estimates = [
        evaluate_objective(spec, dataset, dataset, threshold)
        for spec in CATALOG.values()
    ]
    report = rank_objectives(estimates, adjusted=True)
    return [row.name for row in report.rows if row.rank == 1][0]


def test_criterion_4_oracle_ranking():
    """On log-laplace errors the zero-inflated log-laplace objective wins
    with zero inflation present and the plain one wins without it.

    With zero inflation the benchmark default threshold applies (the forced
    zeros sit far below it). Without zero inflation the generator's support
    is strictly positive, so the threshold moves below the smallest
    possible flow to keep natural values out of the zero state.
    """
    started = time.perf_counter()
    with_zero = sum(
        _rank_winner(0.02, 0.0028, 1000 + s) == "ZMALE" for s in range(20)
    )
    without_zero = sum(
        _rank_winner(0.0, 1e-9, 2000 + s) == "MALE" for s in range(20)
    )
    assert with_zero >= 19, f"ZMALE won {with_zero}/20"
    assert without_zero >= 19, f"MALE won {without_zero}/20"
    _report_pass(
        4, started, 120.0,
        f"ZMALE {with_zero}/20 with zeros, MALE {without_zero}/20 without",
    )


def test_criterion_5_nse_mse_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 400))
        raw = {"G1": (rng.normal(5, 2, n), rng.normal(5, 2, n))}
        from objentropy.data import validate_dataset

        dataset = validate_dataset(raw)
        mse = evaluate_objective(get_objective("MSE"), dataset, dataset)
        nse = evaluate_objective(get_objective("NSE"), dataset, dataset)
        rel = abs(nse.loglik_nats - mse.loglik_nats) / abs(mse.loglik_nats)
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report_pass(5, started, 5.0, f"50/50 datasets, worst relative {worst:.1e}")


def test_criterion_6_change_of_variables():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    obs = rng.lognormal(0.5, 1.0, 10_000)
    pred = rng.lognormal(0.5, 1.0, 10_000)
    from objentropy.data import validate_dataset

    dataset = validate_dataset({"G1": (obs, pred)})
    fitted = evaluate_objective(get_objective("MSLE"), dataset, dataset,
                                1e-9)
    sigma = fitted.params.scale
    oracle = float(np.sum(
        -np.log(obs) - math.log(sigma) - 0.5 * math.log(2 * math.pi)
        - (np.log(obs) - np.log(pred)) ** 2 / (2 * sigma**2)
    ))
    rel = abs(fitted.loglik_nats - oracle) / abs(oracle)
    assert rel <= 1e-9
    _report_pass(6, started, 5.0, f"relative difference {rel:.1e}")


def test_criterion_7_overfitting_direction_and_aic_order():
    """Mean in-sample log-likelihood exceeds mean out-of-sample, and the
    optimism is of order k: mean gap <= 2k + 3 standard errors.

    Fixed-seed statistical property; the gap mean is k = 1 in expectation
    with a per-seed standard deviation near sqrt(n/2).
    """
    started = time.perf_counter()
    spec = get_objective("MSE")
    gaps = []
    for i in range(100):
        def model(seed):
            return SyntheticModel("additive-normal", 1.0, base_median=8.0,
                                  base_log_sigma=0.5, n_per_location=1000,
                                  n_locations=1, seed=seed)
        train, _ = generate(model(77_777 + 2 * i))
        test, _ = generate(model(77_778 + 2 * i))
        fitted = evaluate_objective(spec, train, train, 1e-9)
        scored = score_objective(spec, fitted.params, test, 1e-9)
        gaps.append(fitted.loglik_nats - scored.loglik_nats)
    gaps = np.array(gaps)
    mean_gap = float(gaps.mean())
    se = float(gaps.std(ddof=1) / math.sqrt(gaps.size))
    k = spec.k
    assert mean_gap >= 0.0, f"mean gap {mean_gap:.3f} negative"
    assert mean_gap <= 2 * k + 3 * se
    _report_pass(
        7, started, 60.0,
        f"mean gap {mean_gap:.2f} in [0, {2 * k + 3 * se:.2f}] over 100 seeds",
    )


def test_criterion_8_predictive_adjustments():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    draws = rng.lognormal(math.log(10.0), 0.5, 1_000_000)

    expectation = adjust_expectation_lognormal(10.0, 0.5)
    mc_mean = float(draws.mean())
    assert abs(expectation - mc_mean) / mc_mean <= 0.005

    low, high = prediction_interval(10.0, 0.5, 0.95, "multiplicative")
    coverage = float(np.mean((draws >= low) & (draws <= high)))
    assert abs(coverage - 0.95) <= 0.01
    _report_pass(
        8, started, 30.0,
        f"expectation {expectation:.4f} vs MC {mc_mean:.4f}, "
        f"coverage {coverage:.4f}",
    )


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()
    data = tmp_path / "synth.csv"
    assert main([
        "synth", "--family", "multiplicative-log-laplace", "--scale", "0.5",
        "--zero-inflation", "0.02", "--n-per-location", "10000",
        "--locations", "2", "--seed", "99", "--out", str(data),
    ]) == 0

    outputs = []
    for run, threads in enumerate(("1", "4", None, "1")):
        out = tmp_path / f"run{run}.csv"
        argv = ["rank", "--input", str(data), "--seed", "5",
                "--format", "csv", "--out", str(out)]
        if threads is not None:
            argv += ["--threads", threads]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
    _report_pass(
        9, started, 60.0,
        "byte-identical across thread caps {1, 4, max} and repeat runs",
    )
