"""Tests for the package's public names and parameters."""

import numpy as np
import pytest

import objentropy
from objentropy.data import SplitSpec, validate_dataset
from objentropy.diagnostics import check_subsamples, convergence_curve
from objentropy.errors import (
    DegenerateSplit,
    EmptyInput,
    InvalidModel,
    SizeExceedsData,
)
from objentropy.likelihoods import CATALOG
from objentropy.synthetic import SyntheticModel

REMOVED = ("LocationStats", "location_stats", "LocationCodes",
           "PairedSeries", "FittedObjective", "Transform", "ZeroPartition",
           "partition_zero_state")


def test_all_has_no_duplicates():
    assert len(set(objentropy.__all__)) == len(objentropy.__all__)


def test_every_exported_name_resolves():
    missing = [n for n in objentropy.__all__ if not hasattr(objentropy, n)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in objentropy.__all__
        assert not hasattr(objentropy, name)


def _convergence(**kwargs):
    dataset = validate_dataset({"A": ([1.0, 2.0, 3.0], [1.5, 2.0, 2.5])})
    (curve,) = convergence_curve(dataset, [CATALOG["MSE"]], [2], **kwargs)
    return curve


def _model(**kwargs):
    return SyntheticModel("additive-normal", 1.0, **kwargs)


@pytest.mark.parametrize("make, error, what", [
    (lambda: SplitSpec("random", 0.3, seed=1.5), DegenerateSplit, "seed"),
    (lambda: _model(seed=2.5), InvalidModel, "seed"),
    (lambda: _model(n_per_location=2.5), InvalidModel, "n_per_location"),
    (lambda: _model(n_locations=1.5), InvalidModel, "n_locations"),
    (lambda: _convergence(seed=0.5), EmptyInput, "seed"),
    (lambda: _convergence(replicates=1.5), EmptyInput, "replicates"),
    (lambda: check_subsamples([2.7, 3.9], 1), SizeExceedsData, "a size"),
    (lambda: check_subsamples([2.0], 1), SizeExceedsData, "a size"),
], ids=["split seed", "synthetic seed", "n_per_location", "n_locations",
        "convergence seed", "replicates", "sizes", "integral float size"])
def test_integer_parameters_reject_non_integers(make, error, what):
    """A float, even an integral one, fails the parameter's own check with
    its own error class; it is neither truncated nor left to fail later
    with a TypeError."""
    with pytest.raises(error, match=f"^{what} must be a"):
        make()


def test_integer_parameters_take_numpy_integers():
    SplitSpec("random", 0.3, seed=np.uint64(2 ** 64 - 1))
    _model(n_per_location=np.int32(5), n_locations=np.int64(1),
           seed=np.int64(3))
    assert check_subsamples([np.int64(2), 3], np.int8(2), np.uint8(7)) == [
        2, 3]
    assert len(_convergence(replicates=np.int16(2), seed=np.int64(4))
               .points) == 2
