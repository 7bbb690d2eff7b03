"""Information-theoretic selection of model objective functions.

Recasts objective functions (MSE, MAE, NSE, log and zero-inflated
variants, ...) as likelihoods, scores each as conditional entropy in bits
per observation, corrects for overfitting, and ranks candidates by Akaike
weight. The objective that represents the model error in the fewest bits
is the most informative one.

Importing the package imports none of its modules: each public name is
looked up in the module that defines it on first use (PEP 562), so a
caller that needs only numpy-free names never imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module it is read from.
_EXPORTS = {
    "Dataset": "data",
    "SplitSpec": "data",
    "split": "data",
    "validate_dataset": "data",
    "ConvergenceCurve": "diagnostics",
    "EntropyMatrix": "diagnostics",
    "convergence_curve": "diagnostics",
    "per_location_entropy": "diagnostics",
    "ObjentropyError": "errors",
    "EntropyEstimate": "information",
    "EntropyReport": "information",
    "aic_adjusted_entropy": "information",
    "akaike_weights": "information",
    "conditional_entropy_bits": "information",
    "noise_fraction": "information",
    "rank_objectives": "information",
    "load_csv": "io",
    "write_dataset_csv": "io",
    "CATALOG": "likelihoods",
    "FittedParams": "likelihoods",
    "ObjectiveSpec": "likelihoods",
    "evaluate_objective": "likelihoods",
    "get_objective": "likelihoods",
    "resolve_objectives": "likelihoods",
    "score_objective": "likelihoods",
    "DEFAULT_ZERO_THRESHOLD": "plain",
    "adjust_expectation_lognormal": "plain",
    "prediction_interval": "plain",
    "SyntheticModel": "synthetic",
    "SyntheticTruth": "synthetic",
    "analytic_entropy": "synthetic",
    "generate": "synthetic",
    "log_jacobian_sum": "transforms",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
