"""Tests for dataset containers, the zero-state rule, and splits."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objentropy.data import (
    Dataset,
    SplitSpec,
    split,
    validate_dataset,
)
from objentropy.diagnostics import per_location_entropy
from objentropy.errors import (
    DegenerateSplit,
    DuplicateLocation,
    EmptyEvaluationSet,
    EmptyInput,
    LengthMismatch,
    MissingTimestamps,
    NonFiniteValue,
    NonPositiveThreshold,
)
from objentropy.likelihoods import CATALOG, evaluate_objective


class TestValidateDataset:
    def test_direct_construction(self):
        ds = validate_dataset({"A": ([1, 2], [2, 4])})
        assert ds.n_total == 2
        assert ds.location_ids == ("A",)
        np.testing.assert_array_equal(ds.observed, [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_dataset({"A": ([1, 2], [2])})

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            validate_dataset({"A": ([1, np.nan], [1, 1])})
        with pytest.raises(NonFiniteValue):
            validate_dataset({"A": ([1, 2], [np.inf, 1])})

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            validate_dataset({})
        with pytest.raises(EmptyInput):
            validate_dataset({"A": ([], [])})

    def test_duplicate_location(self):
        with pytest.raises(DuplicateLocation):
            Dataset(("A", "A"), [0, 1, 2], [[1.0, 1.0], [2.0, 2.0]])

    def test_arrays_read_only(self):
        ds = validate_dataset({"A": ([1, 2], [2, 4])})
        with pytest.raises(ValueError):
            ds.observed[0] = 9.0

    def test_flattened_order_follows_series(self):
        ds = validate_dataset({"B": ([1], [1]), "A": ([2, 3], [2, 3])})
        np.testing.assert_array_equal(ds.observed, [1.0, 2.0, 3.0])
        assert list(ds.locations) == ["B", "A", "A"]


class TestDatasetChecks:
    def test_non_finite_names_its_location(self):
        with pytest.raises(NonFiniteValue, match="location 'B'"):
            Dataset(("A", "B"), [0, 2, 4], [[1, 2, 3, np.nan], [1, 2, 3, 4]])

    def test_repeated_bound_is_an_empty_location(self):
        with pytest.raises(EmptyInput, match="location 'B' has no pairs"):
            Dataset(("A", "B", "C"), [0, 2, 2, 3], [[1, 2, 3], [1, 2, 3]])

    def test_shape_mismatches(self):
        with pytest.raises(LengthMismatch):
            Dataset(("A", "B"), [0, 2, 5], [[1, 2, 3, 4], [1, 2, 3, 4]])
        with pytest.raises(LengthMismatch):
            Dataset(("A",), [0, 2], [[1, 2], [1, 2], [1, 2]])
        with pytest.raises(LengthMismatch):
            Dataset(("A",), [0, 2], [[1, 2], [1, 2]], ("t1",))

    def test_arrays_read_only(self):
        ds = Dataset(("A",), [0, 2], [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            ds.pairs[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.bounds[1] = 1

    def test_pairs_c_contiguous_from_transposed_input(self):
        columns = np.arange(6.0).reshape(3, 2)
        ds = Dataset(("A",), [0, 3], columns.T)
        assert ds.pairs.flags.c_contiguous
        np.testing.assert_array_equal(ds.pairs, columns.T)

    def test_equality_is_identity(self):
        """Datasets hold arrays, so they compare and hash by identity
        instead of raising on an elementwise comparison."""
        raw = {"A": ([1, 2], [1, 2])}
        a, b = validate_dataset(raw), validate_dataset(raw)
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2


def _evaluate(name, ds, threshold=0.0028):
    return evaluate_objective(CATALOG[name], ds, ds, threshold)


class TestPartitionZeroState:
    """The zero-state rule, seen through the evaluations it shapes: an
    observed value at or below the threshold is in the zero state (n1 when
    its prediction is too, else n2), and a positive pair predicted at or
    below it is clamped up to it."""

    def test_stated_rule(self):
        ds = validate_dataset({"A": ([0, 0.001, 1, 2], [0.002, 0.5, 0.001, 3])})
        msle = _evaluate("MSLE", ds)
        assert (msle.n_eval, msle.excluded) == (2, 2)
        clamped = np.log([1.0, 2.0]) - np.log([0.0028, 3.0])
        assert msle.params.scale == np.sqrt(np.mean(clamped ** 2))
        zmsle = _evaluate("ZMSLE", ds)
        assert (zmsle.n_eval, zmsle.excluded) == (4, 0)
        assert zmsle.params.rho == 0.5

    def test_all_positive(self):
        ds = validate_dataset({"A": ([1, 2], [3, 4])})
        msle = _evaluate("MSLE", ds)
        assert (msle.n_eval, msle.excluded) == (2, 0)
        assert _evaluate("ZMSLE", ds).params.rho is None

    def test_all_zero_state(self):
        ds = validate_dataset({"A": ([0.001, 0.002], [0.0, 0.001])})
        for name in ("MSLE", "ZMSLE", "MARE", "MSPE"):
            with pytest.raises(EmptyEvaluationSet):
                _evaluate(name, ds)
        assert _evaluate("MSE", ds).n_eval == 2

    def test_threshold_boundary_is_zero_state(self):
        ds = validate_dataset({"A": ([0.0028, 0.0029, 1.0],
                                     [0.0028, 0.0028, 0.5])})
        zmsle = _evaluate("ZMSLE", ds)
        assert zmsle.params.rho == 1.0 and zmsle.n_eval == 3
        # 0.0029 is positive; its prediction at the threshold is kept.
        residuals = np.log([0.0029, 1.0]) - np.log([0.0028, 0.5])
        assert zmsle.params.scale == np.sqrt(np.mean(residuals ** 2))
        # A prediction below the threshold is clamped up to it.
        below = validate_dataset({"A": ([0.0029, 1.0], [1e-6, 0.5])})
        assert _evaluate("MSLE", below).params.scale == zmsle.params.scale

    def test_non_positive_threshold(self):
        ds = validate_dataset({"A": ([1, 2], [1, 3]), "B": ([1, 2], [2, 1])})
        for threshold in (0.0, -1.0, float("nan")):
            for spec in CATALOG.values():
                with pytest.raises(NonPositiveThreshold):
                    evaluate_objective(spec, ds, ds, threshold)
            with pytest.raises(NonPositiveThreshold,
                               match="threshold must be > 0"):
                per_location_entropy(ds, list(CATALOG.values()), threshold)

    def test_partition_is_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(11)
        obs = np.abs(rng.normal(0.002, 0.01, 500))
        pred = np.abs(rng.normal(0.002, 0.01, 500))
        ds = validate_dataset({"A": (obs, pred)})
        for name in ("MSLE", "MALE", "MARE", "MSPE"):
            estimate = _evaluate(name, ds)
            assert estimate.n_eval + estimate.excluded == ds.n_total
            assert estimate.excluded == np.count_nonzero(obs <= 0.0028)
        assert _evaluate("ZMSLE", ds).n_eval == ds.n_total


def _dataset(n=10, locations=1, seed=0, timestamps=False):
    rng = np.random.default_rng(seed)
    pairs = rng.lognormal(0, 1, (locations, 2, n))
    ts = None
    if timestamps:
        ts = tuple(f"2020-01-{d + 1:02d}" for d in range(n)) * locations
    return Dataset(tuple(f"L{i}" for i in range(locations)),
                   np.arange(locations + 1) * n,
                   np.concatenate(pairs, axis=1), ts)


def _take_reference(ds, idx):
    """take() spelt out as a loop over locations."""
    ids, bounds, columns, ts = [], [0], [], []
    for loc, rows in ds.rows():
        local = [i for i in idx if rows.start <= i < rows.stop]
        if local:
            ids.append(loc)
            bounds.append(bounds[-1] + len(local))
            columns.append(ds.pairs[:, local])
            if ds.timestamps is not None:
                ts.extend(ds.timestamps[i] for i in local)
    return Dataset(tuple(ids), bounds, np.concatenate(columns, axis=1),
                   None if ds.timestamps is None else tuple(ts))


@st.composite
def _timestamped_datasets(draw):
    n_loc = draw(st.integers(1, 5))
    bounds = [0]
    for _ in range(n_loc):
        bounds.append(bounds[-1] + draw(st.integers(1, 15)))
    n = bounds[-1]
    values = st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0]),
                      min_size=n, max_size=n)
    days = draw(st.lists(st.integers(1, 28), min_size=n, max_size=n))
    return Dataset(tuple(f"L{i}" for i in range(n_loc)), bounds,
                   [draw(values), draw(values)],
                   tuple(f"2020-02-{d:02d}" for d in days))


def _rows(ds):
    """The dataset as a multiset of (id, observed, predicted, timestamp)."""
    return Counter(
        (loc, o, p, t)
        for loc, rows in ds.rows()
        for o, p, t in zip(ds.observed[rows].tolist(),
                           ds.predicted[rows].tolist(), ds.timestamps[rows])
    )


class TestTake:
    def test_location_codes_follow_storage_order(self):
        ds = validate_dataset({"B": ([1], [1]), "A": ([2, 3], [2, 3])})
        assert ds.location_codes.tolist() == [0, 1, 1]
        assert ds.location_codes.dtype == np.int32

    def test_keeps_duplicates_and_listed_order(self):
        ds = _dataset(n=6, locations=3, timestamps=True)
        idx = [17, 3, 3, 0, 17, 5, 12]
        taken = ds.take(idx)
        assert taken.n_total == len(idx)
        assert taken.location_ids == ("L0", "L2")
        assert taken.bounds.tolist() == [0, 4, 7]
        assert taken.timestamps[4:] == ("2020-01-06", "2020-01-06",
                                        "2020-01-01")
        reference = _take_reference(ds, idx)
        np.testing.assert_array_equal(taken.observed, reference.observed)
        np.testing.assert_array_equal(taken.predicted, reference.predicted)
        assert taken.timestamps == reference.timestamps

    def test_random_draws_match_reference(self):
        ds = _dataset(n=30, locations=5, seed=2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            idx = rng.choice(ds.n_total, size=int(rng.integers(1, 200)))
            taken, reference = ds.take(idx), _take_reference(ds, idx)
            assert taken.location_ids == reference.location_ids
            np.testing.assert_array_equal(taken.bounds, reference.bounds)
            np.testing.assert_array_equal(taken.pairs, reference.pairs)

    def test_subset_is_take_of_the_kept_positions(self):
        ds = _dataset(n=20, locations=3, timestamps=True)
        mask = np.random.default_rng(1).random(ds.n_total) < 0.4
        a, b = ds.subset(mask), ds.take(np.flatnonzero(mask))
        assert a.location_ids == b.location_ids
        np.testing.assert_array_equal(a.observed, ds.observed[mask])
        np.testing.assert_array_equal(a.bounds, b.bounds)
        assert a.timestamps == b.timestamps

    def test_rejects_bad_positions(self):
        ds = _dataset(n=5)
        with pytest.raises(LengthMismatch):
            ds.take([5])
        with pytest.raises(LengthMismatch):
            ds.take([-1])
        with pytest.raises(DegenerateSplit):
            ds.take([])
        with pytest.raises(DegenerateSplit):
            ds.subset(np.zeros(5, dtype=bool))


class TestSplit:
    def test_mode_none_is_identity(self):
        ds = _dataset()
        train, test = split(ds, SplitSpec("none"))
        assert train is ds and test is ds

    def test_random_fraction_cardinality(self):
        ds = _dataset(n=10)
        train, test = split(
            ds, SplitSpec("random-fraction", test_fraction=0.2, seed=42)
        )
        assert train is not test
        assert train.n_total == 8 and test.n_total == 2

    def test_degenerate_split(self):
        ds = _dataset(n=1)
        with pytest.raises(DegenerateSplit):
            split(ds, SplitSpec("random-fraction", test_fraction=0.99, seed=0))

    def test_random_split_is_pure(self):
        ds = _dataset(n=50, locations=3)
        spec = SplitSpec("random-fraction", test_fraction=0.3, seed=7)
        first = split(ds, spec)
        second = split(ds, spec)
        np.testing.assert_array_equal(first.test.observed, second.test.observed)
        np.testing.assert_array_equal(first.train.observed, second.train.observed)

    @settings(max_examples=80, deadline=None)
    @given(_timestamped_datasets(),
           st.sampled_from(["random-fraction", "by-location", "by-time"]),
           st.floats(0.05, 0.95), st.integers(0, 2 ** 32))
    def test_split_disjoint_exhaustive(self, ds, mode, fraction, seed):
        try:
            train, test = split(ds, SplitSpec(mode, fraction, seed))
        except DegenerateSplit:
            return
        assert train is not test
        assert _rows(train) + _rows(test) == _rows(ds)
        if mode == "by-location":
            assert set(train.location_ids).isdisjoint(test.location_ids)
        if mode == "by-time":
            for loc, rows in test.rows():
                if loc in train.location_ids:
                    seen = dict(train.rows())[loc]
                    assert (max(train.timestamps[seen])
                            <= min(test.timestamps[rows]))

    def test_by_location_keeps_whole_locations(self):
        ds = _dataset(n=10, locations=4)
        train, test = split(
            ds, SplitSpec("by-location", test_fraction=0.25, seed=1)
        )
        assert len(test.location_ids) == 1 and len(train.location_ids) == 3
        assert set(test.location_ids).isdisjoint(train.location_ids)

    def test_by_time_takes_chronological_tail(self):
        ds = _dataset(n=10, timestamps=True)
        train, test = split(ds, SplitSpec("by-time", test_fraction=0.2, seed=0))
        assert test.n_total == 2
        assert test.timestamps == ("2020-01-09", "2020-01-10")

    def test_by_time_orders_by_time_not_text(self):
        stamps = ("2020-01-10T05:00", "2020-01-10 06:00", "2020-01-10T04:00",
                  "2020-01-10T03:00")
        ds = Dataset(("A",), (0, 4), np.ones((2, 4)), stamps)
        train, test = split(ds, SplitSpec("by-time", test_fraction=0.25))
        assert test.timestamps == ("2020-01-10 06:00",)

    def test_by_time_requires_timestamps(self):
        ds = _dataset(n=10, timestamps=False)
        with pytest.raises(MissingTimestamps):
            split(ds, SplitSpec("by-time", test_fraction=0.2, seed=0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(DegenerateSplit):
            SplitSpec("random-fraction", test_fraction=1.5)
        with pytest.raises(DegenerateSplit):
            SplitSpec("bogus")
