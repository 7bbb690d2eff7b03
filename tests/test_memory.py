"""Peak memory of the stages that grow with a dataset's pair count.

tracemalloc sees numpy's buffers and does not depend on where the
allocator places them. Each bound is in bytes per pair: it is checked on
the growth of a stage's peak from n to 2n pairs, so allocations that do not
grow with the pairs (file buffers, per-location arrays) drop out, up to
_FIXED bytes by which they may differ between the two calls.
"""

import tracemalloc

import numpy as np
import pytest

from objentropy import io as oio
from objentropy.data import validate_dataset
from objentropy.diagnostics import per_location_entropy
from objentropy.likelihoods import CATALOG, evaluate_objective
from objentropy.transforms import POSITIVE_DOMAIN_KINDS

N = 100_000
_FIXED = 4096
FLOAT = np.dtype(np.float64).itemsize
INDEX = np.dtype(np.intp).itemsize


def _peak(fn):
    """The peak traced memory while fn runs, above what was traced when it
    started; what fn returns is still alive at the end, so it counts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
        del result
        return peak
    finally:
        if not tracing:
            tracemalloc.stop()


def _assert_per_pair(make, bound):
    """make(n) returns a call and the pairs it handles; its peak grows by at
    most bound bytes per pair from n to 2n pairs. A first small call warms
    up what is built once per process."""
    _peak(make(1_000)[0])
    (low, n_low), (high, n_high) = [(_peak(call), pairs) for call, pairs
                                    in (make(N), make(2 * N))]
    assert high - low <= bound * (n_high - n_low) + _FIXED, (
        f"{(high - low) / (n_high - n_low):.2f} bytes per pair")


def _dataset(n, locations=4, zeros=False):
    rng = np.random.default_rng(n)
    obs, pred = rng.lognormal(0.0, 1.0, (2, n))
    if zeros:
        obs[::50] = 0.0
        pred[1::50] = 0.0
    per = n // locations
    return validate_dataset({
        f"L{i}": (obs[i * per:(i + 1) * per], pred[i * per:(i + 1) * per])
        for i in range(locations)})


def test_grouped_load_holds_the_numbers_and_the_pairs(tmp_path, monkeypatch):
    """Reading a grouped file in process holds at most the parsed (n, 2)
    numbers and the dataset's (2, n) pairs: two per-pair float arrays. The
    ids are read first, and what that read keeps per record is gone before
    the numbers are parsed."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)

    def make(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(_dataset(n), path)
        return lambda: oio.load_csv(path), n

    _assert_per_pair(make, 2 * 2 * FLOAT)


@pytest.mark.parametrize("name", sorted(
    name for name, spec in CATALOG.items()
    if spec.transform_kind in POSITIVE_DOMAIN_KINDS))
def test_positive_domain_objective_holds_two_arrays(name):
    """A positive-domain objective scored in sample on one location holds
    at most two float arrays of the positive pairs, transformed in place,
    and the one-byte mask that picks them."""
    spec = CATALOG[name]

    def make(n):
        dataset = _dataset(n, locations=1, zeros=True)
        return lambda: evaluate_objective(spec, dataset, dataset), n

    _assert_per_pair(make, 2 * FLOAT + 1)


def test_correlate_holds_two_arrays():
    """per_location_entropy over every catalog objective holds, for each
    transform's shared pass, at most two float arrays of its pairs and
    the one-byte mask that picks the positive ones."""
    specs = list(CATALOG.values())

    def make(n):
        dataset = _dataset(n, locations=4, zeros=True)
        return lambda: per_location_entropy(dataset, specs), n

    _assert_per_pair(make, 2 * FLOAT + 1)


def test_subset_holds_positions_and_the_new_pairs():
    """subset holds, per kept pair, its position, its two values in the
    new dataset, and the two-byte finite mask and one-byte column check
    that a Dataset is validated with: no sort of the positions and no
    per-pair location codes."""

    def make(n):
        dataset = _dataset(n)
        mask = np.random.default_rng(1).random(n) < 0.7
        return lambda: dataset.subset(mask), int(mask.sum())

    _assert_per_pair(make, INDEX + 2 * FLOAT + 3)
