"""Tests for dataset containers, zero-state partitioning, and splits."""

import numpy as np
import pytest

from objentropy.data import (
    Dataset,
    PairedSeries,
    SplitSpec,
    location_stats,
    partition_zero_state,
    split,
    validate_dataset,
)
from objentropy.errors import (
    DegenerateSplit,
    DuplicateLocation,
    EmptyInput,
    LengthMismatch,
    MissingTimestamps,
    NonFiniteValue,
    NonPositiveThreshold,
)


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
        a = PairedSeries("A", [1.0], [2.0])
        with pytest.raises(DuplicateLocation):
            Dataset((a, a))

    def test_arrays_read_only(self):
        ds = validate_dataset({"A": ([1, 2], [2, 4])})
        with pytest.raises(ValueError):
            ds.series[0].observed[0] = 9.0

    def test_flattened_order_follows_series(self):
        ds = validate_dataset({"B": ([1], [1]), "A": ([2, 3], [2, 3])})
        np.testing.assert_array_equal(ds.observed, [1.0, 2.0, 3.0])
        assert list(ds.locations) == ["B", "A", "A"]


class TestPartitionZeroState:
    def test_stated_rule(self):
        ds = validate_dataset({"A": ([0, 0.001, 1, 2], [0.002, 0.5, 0.001, 3])})
        part = partition_zero_state(ds, 0.0028)
        assert list(part.zero_correct_idx) == [0]
        assert list(part.zero_incorrect_idx) == [1]
        assert list(part.positive_idx) == [2, 3]
        assert list(part.clamp_idx) == [2]

    def test_all_positive(self):
        ds = validate_dataset({"A": ([1, 2], [3, 4])})
        part = partition_zero_state(ds, 0.0028)
        assert part.n1 == part.n2 == 0
        assert part.n3 == 2

    def test_all_zero_state(self):
        ds = validate_dataset({"A": ([0.001, 0.002], [0.0, 0.001])})
        part = partition_zero_state(ds, 0.0028)
        assert part.n1 == 2
        assert part.n2 == part.n3 == 0

    def test_threshold_boundary_is_zero_state(self):
        ds = validate_dataset({"A": ([0.0028, 0.0029], [0.0028, 0.0028])})
        part = partition_zero_state(ds, 0.0028)
        assert list(part.zero_correct_idx) == [0]
        assert list(part.clamp_idx) == [1]

    def test_non_positive_threshold(self):
        ds = validate_dataset({"A": ([1], [1])})
        with pytest.raises(NonPositiveThreshold):
            partition_zero_state(ds, 0.0)

    def test_partition_is_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(11)
        obs = np.abs(rng.normal(0.002, 0.01, 500))
        pred = np.abs(rng.normal(0.002, 0.01, 500))
        ds = validate_dataset({"A": (obs, pred)})
        part = partition_zero_state(ds, 0.0028)
        merged = np.concatenate(
            [part.zero_correct_idx, part.zero_incorrect_idx, part.positive_idx]
        )
        assert part.n1 + part.n2 + part.n3 == ds.n_total
        assert len(np.unique(merged)) == ds.n_total


class TestLocationStats:
    def test_analytic(self):
        ds = validate_dataset({"A": ([1, 2, 3], [1, 1, 1])})
        stats = location_stats(ds)
        assert stats.mean["A"] == pytest.approx(2.0)
        assert stats.sigma_o["A"] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_single_point(self):
        stats = location_stats(validate_dataset({"A": ([5], [0])}))
        assert stats.mean["A"] == 5.0
        assert stats.sigma_o["A"] == 0.0

    def test_constant_series(self):
        stats = location_stats(validate_dataset({"A": ([2, 2, 2], [0, 0, 0])}))
        assert stats.sigma_o["A"] == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        obs = rng.lognormal(0, 1, 1000)
        stats = location_stats(validate_dataset({"A": (obs, obs)}))
        mean = sum(obs) / len(obs)
        var = sum((x - mean) ** 2 for x in obs) / len(obs)
        assert stats.mean["A"] == pytest.approx(mean, rel=1e-12)
        assert stats.sigma_o["A"] == pytest.approx(np.sqrt(var), rel=1e-12)


def _dataset(n=10, locations=1, seed=0, timestamps=False):
    rng = np.random.default_rng(seed)
    raw = {}
    series = []
    for i in range(locations):
        obs = rng.lognormal(0, 1, n)
        pred = rng.lognormal(0, 1, n)
        ts = tuple(f"2020-01-{d + 1:02d}" for d in range(n)) if timestamps else None
        series.append(PairedSeries(f"L{i}", obs, pred, ts))
    return Dataset(tuple(series))


def _take_reference(ds, idx):
    """take() spelt out as a loop over locations."""
    starts = np.cumsum([0] + [len(s) for s in ds.series])
    series = []
    for s, start in zip(ds.series, starts):
        local = [i - start for i in idx if start <= i < start + len(s)]
        if local:
            ts = None if s.timestamps is None else tuple(
                s.timestamps[i] for i in local)
            series.append(PairedSeries(s.location_id, s.observed[local],
                                       s.predicted[local], ts))
    return Dataset(tuple(series))


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
        assert taken.series[1].timestamps == ("2020-01-06", "2020-01-06",
                                              "2020-01-01")
        reference = _take_reference(ds, idx)
        np.testing.assert_array_equal(taken.observed, reference.observed)
        np.testing.assert_array_equal(taken.predicted, reference.predicted)

    def test_random_draws_match_reference(self):
        ds = _dataset(n=30, locations=5, seed=2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            idx = rng.choice(ds.n_total, size=int(rng.integers(1, 200)))
            taken, reference = ds.take(idx), _take_reference(ds, idx)
            assert taken.location_ids == reference.location_ids
            np.testing.assert_array_equal(taken.observed, reference.observed)

    def test_subset_is_take_of_the_kept_positions(self):
        ds = _dataset(n=20, locations=3, timestamps=True)
        mask = np.random.default_rng(1).random(ds.n_total) < 0.4
        a, b = ds.subset(mask), ds.take(np.flatnonzero(mask))
        assert a.location_ids == b.location_ids
        np.testing.assert_array_equal(a.observed, ds.observed[mask])
        assert [s.timestamps for s in a.series] == [s.timestamps for s in b.series]

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
        result = split(ds, SplitSpec("none"))
        assert result.train is ds and result.test is ds
        assert result.in_sample

    def test_random_fraction_cardinality(self):
        ds = _dataset(n=10)
        train, test, in_sample = split(
            ds, SplitSpec("random-fraction", test_fraction=0.2, seed=42)
        )
        assert not in_sample
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

    def test_random_split_disjoint_exhaustive(self):
        ds = _dataset(n=40, locations=2)
        train, test, _ = split(
            ds, SplitSpec("random-fraction", test_fraction=0.25, seed=5)
        )
        assert train.n_total + test.n_total == ds.n_total
        combined = sorted(np.concatenate([train.observed, test.observed]))
        assert combined == sorted(ds.observed)

    def test_by_location_keeps_whole_locations(self):
        ds = _dataset(n=10, locations=4)
        train, test, _ = split(
            ds, SplitSpec("by-location", test_fraction=0.25, seed=1)
        )
        assert len(test.series) == 1 and len(train.series) == 3
        assert set(test.location_ids).isdisjoint(train.location_ids)

    def test_by_time_takes_chronological_tail(self):
        ds = _dataset(n=10, timestamps=True)
        train, test, _ = split(ds, SplitSpec("by-time", test_fraction=0.2, seed=0))
        assert test.n_total == 2
        assert test.series[0].timestamps == ("2020-01-09", "2020-01-10")

    def test_by_time_requires_timestamps(self):
        ds = _dataset(n=10, timestamps=False)
        with pytest.raises(MissingTimestamps):
            split(ds, SplitSpec("by-time", test_fraction=0.2, seed=0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(DegenerateSplit):
            SplitSpec("random-fraction", test_fraction=1.5)
        with pytest.raises(DegenerateSplit):
            SplitSpec("bogus")
