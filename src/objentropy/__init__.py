"""Information-theoretic selection of model objective functions.

Recasts objective functions (MSE, MAE, NSE, log and zero-inflated
variants, ...) as likelihoods, scores each as conditional entropy in bits
per observation, corrects for overfitting, and ranks candidates by Akaike
weight. The objective that represents the model error in the fewest bits
is the most informative one.
"""

from .data import Dataset, SplitSpec, split, validate_dataset
from .diagnostics import (
    ConvergenceCurve,
    EntropyMatrix,
    convergence_curve,
    per_location_entropy,
)
from .errors import ObjentropyError
from .information import (
    EntropyEstimate,
    EntropyReport,
    adjust_expectation_lognormal,
    aic_adjusted_entropy,
    akaike_weights,
    conditional_entropy_bits,
    noise_fraction,
    prediction_interval,
    rank_objectives,
)
from .io import load_csv, write_dataset_csv
from .likelihoods import (
    CATALOG,
    DEFAULT_ZERO_THRESHOLD,
    FittedParams,
    ObjectiveSpec,
    evaluate_objective,
    get_objective,
    resolve_objectives,
    score_objective,
)
from .synthetic import SyntheticModel, SyntheticTruth, analytic_entropy, generate
from .transforms import log_jacobian_sum

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ConvergenceCurve",
    "DEFAULT_ZERO_THRESHOLD",
    "Dataset",
    "EntropyEstimate",
    "EntropyMatrix",
    "EntropyReport",
    "FittedParams",
    "ObjectiveSpec",
    "ObjentropyError",
    "SplitSpec",
    "SyntheticModel",
    "SyntheticTruth",
    "adjust_expectation_lognormal",
    "aic_adjusted_entropy",
    "akaike_weights",
    "analytic_entropy",
    "conditional_entropy_bits",
    "convergence_curve",
    "evaluate_objective",
    "generate",
    "get_objective",
    "load_csv",
    "log_jacobian_sum",
    "noise_fraction",
    "per_location_entropy",
    "prediction_interval",
    "rank_objectives",
    "resolve_objectives",
    "score_objective",
    "split",
    "validate_dataset",
    "write_dataset_csv",
]
