"""Observed/predicted series containers, zero-state partitioning, and splits.

All types are immutable after construction. Flattened views concatenate the
per-location series in storage order, so every index-based operation
(partitioning, splitting) refers to one fixed, deterministic ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateSplit,
    DuplicateLocation,
    EmptyInput,
    LengthMismatch,
    MissingTimestamps,
    NonFiniteValue,
    NonPositiveThreshold,
)

# Default zero-state threshold in flow units (m^3/s); roughly 0.01 ft^3/s.
DEFAULT_ZERO_THRESHOLD = 0.0028


@dataclass(frozen=True)
class PairedSeries:
    """Aligned observed and predicted values at one location.

    Arrays are coerced to read-only float64. Timestamps are optional opaque
    strings used only by time-based splitting.
    """

    location_id: str
    observed: np.ndarray
    predicted: np.ndarray
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        obs = np.asarray(self.observed, dtype=np.float64)
        pred = np.asarray(self.predicted, dtype=np.float64)
        if obs.ndim != 1 or pred.ndim != 1:
            raise LengthMismatch(
                f"location {self.location_id!r}: series must be 1-D"
            )
        if obs.size == 0:
            raise EmptyInput(f"location {self.location_id!r} has no pairs")
        if obs.size != pred.size:
            raise LengthMismatch(
                f"location {self.location_id!r}: {obs.size} observed vs "
                f"{pred.size} predicted values"
            )
        if not np.isfinite(obs).all() or not np.isfinite(pred).all():
            raise NonFiniteValue(
                f"location {self.location_id!r} contains NaN or infinite values"
            )
        if self.timestamps is not None and len(self.timestamps) != obs.size:
            raise LengthMismatch(
                f"location {self.location_id!r}: {len(self.timestamps)} "
                f"timestamps vs {obs.size} pairs"
            )
        obs.setflags(write=False)
        pred.setflags(write=False)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "predicted", pred)
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps", tuple(self.timestamps))

    def __len__(self) -> int:
        return int(self.observed.size)


@dataclass(frozen=True)
class Dataset:
    """Collection of paired series with unique location ids."""

    series: tuple[PairedSeries, ...]

    def __post_init__(self) -> None:
        if not self.series:
            raise EmptyInput("dataset has no series")
        object.__setattr__(self, "series", tuple(self.series))
        ids = [s.location_id for s in self.series]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DuplicateLocation(f"duplicate location ids: {dupes}")

    @cached_property
    def n_total(self) -> int:
        return sum(len(s) for s in self.series)

    @cached_property
    def location_ids(self) -> tuple[str, ...]:
        return tuple(s.location_id for s in self.series)

    @cached_property
    def observed(self) -> np.ndarray:
        arr = np.concatenate([s.observed for s in self.series])
        arr.setflags(write=False)
        return arr

    @cached_property
    def predicted(self) -> np.ndarray:
        arr = np.concatenate([s.predicted for s in self.series])
        arr.setflags(write=False)
        return arr

    @cached_property
    def locations(self) -> np.ndarray:
        """Location id of every pair in flattened order."""
        arr = np.array(self.location_ids, dtype=object)[self.location_codes]
        arr.setflags(write=False)
        return arr

    @cached_property
    def location_codes(self) -> np.ndarray:
        """Index into location_ids of every pair in flattened order."""
        arr = np.repeat(
            np.arange(len(self.series), dtype=np.int32),
            [len(s) for s in self.series],
        )
        arr.setflags(write=False)
        return arr

    @cached_property
    def has_timestamps(self) -> bool:
        return all(s.timestamps is not None for s in self.series)

    def subset(self, mask: np.ndarray) -> "Dataset":
        """New dataset keeping flattened positions where mask is True.

        Locations left with no pairs are dropped; per-location row order is
        preserved.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self.n_total:
            raise LengthMismatch(
                f"mask of length {mask.size} applied to {self.n_total} pairs"
            )
        if not mask.any():
            raise DegenerateSplit("subset removed every pair")
        return self.take(np.flatnonzero(mask))

    def take(self, idx: np.ndarray) -> "Dataset":
        """New dataset of the pairs at flattened positions idx.

        A position listed twice contributes two pairs. Each location keeps
        its pairs in the order idx lists them; locations stay in storage
        order, and those left with no pairs are dropped.
        """
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise DegenerateSplit("take needs a non-empty 1-D index array")
        if idx.min() < 0 or idx.max() >= self.n_total:
            raise LengthMismatch(
                f"positions outside [0, {self.n_total}) requested"
            )
        codes = self.location_codes[idx]
        idx = idx[np.argsort(codes, kind="stable")]
        counts = np.bincount(codes, minlength=len(self.series))
        ends = np.cumsum(counts)
        offsets = np.cumsum([0] + [len(s) for s in self.series])
        kept: list[PairedSeries] = []
        for code in np.flatnonzero(counts).tolist():
            s = self.series[code]
            local = idx[ends[code] - counts[code]:ends[code]] - offsets[code]
            ts = None
            if s.timestamps is not None:
                ts = tuple(s.timestamps[i] for i in local.tolist())
            kept.append(PairedSeries(
                s.location_id, s.observed[local], s.predicted[local], ts
            ))
        return Dataset(tuple(kept))


@dataclass(frozen=True)
class ZeroPartition:
    """Index sets separating zero-state pairs from positive pairs.

    Membership is decided by the observed value alone: observed <= threshold
    puts a pair in the zero state, where predicted <= threshold marks it
    correctly predicted. Positive pairs whose prediction falls at or below
    the threshold are flagged for clamping during transformed evaluation.
    """

    threshold: float
    zero_correct_idx: np.ndarray
    zero_incorrect_idx: np.ndarray
    positive_idx: np.ndarray
    clamp_idx: np.ndarray

    def __post_init__(self) -> None:
        for name in ("zero_correct_idx", "zero_incorrect_idx",
                     "positive_idx", "clamp_idx"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n1(self) -> int:
        return int(self.zero_correct_idx.size)

    @property
    def n2(self) -> int:
        return int(self.zero_incorrect_idx.size)

    @property
    def n3(self) -> int:
        return int(self.positive_idx.size)

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2 + self.n3


@dataclass(frozen=True)
class LocationStats:
    """Per-location mean and population standard deviation of observations.

    sigma_o uses the divide-by-n convention for consistency with maximum
    likelihood scale estimates elsewhere. A zero sigma_o is representable;
    operations that divide by it reject it at use time.
    """

    mean: Mapping[str, float]
    sigma_o: Mapping[str, float]


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train and test portions.

    Modes: "none" (identity, in-sample), "random-fraction" (seeded global
    row sample), "by-location" (whole locations held out), "by-time"
    (chronological tail of each location held out; requires timestamps).
    Random splits are fully determined by (mode, test_fraction, seed).
    """

    mode: str
    test_fraction: float | None = None
    seed: int = 0

    _MODES = ("none", "random-fraction", "by-location", "by-time")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise DegenerateSplit(
                f"unknown split mode {self.mode!r}; expected one of {self._MODES}"
            )
        if self.mode != "none":
            f = self.test_fraction
            if f is None or not (0.0 < f < 1.0):
                raise DegenerateSplit(
                    f"test_fraction must lie in (0, 1), got {f!r}"
                )
        if not (0 <= int(self.seed) < 2 ** 64):
            raise DegenerateSplit("seed must be a 64-bit unsigned integer")


class SplitResult(NamedTuple):
    train: Dataset
    test: Dataset
    in_sample: bool


def validate_dataset(
    raw: Mapping[str, tuple[Sequence[float], Sequence[float]]] | Iterable[PairedSeries],
) -> Dataset:
    """Build a validated Dataset from raw per-location pairs.

    Accepts either a mapping of location_id -> (observed, predicted) or an
    iterable of already-built PairedSeries. Rejects empty input, length
    mismatches, and non-finite values.
    """
    if isinstance(raw, Mapping):
        series = tuple(
            PairedSeries(loc, np.asarray(obs), np.asarray(pred))
            for loc, (obs, pred) in raw.items()
        )
    else:
        series = tuple(raw)
    if not series:
        raise EmptyInput("no locations provided")
    return Dataset(series)


def partition_zero_state(dataset: Dataset, threshold: float) -> ZeroPartition:
    """Partition pairs into zero-correct (n1), zero-incorrect (n2), and
    positive (n3) index sets at the given threshold.

    Values exactly equal to the threshold count as zero-state. Positive
    pairs with predicted <= threshold are recorded in clamp_idx.
    """
    if not (threshold > 0):
        raise NonPositiveThreshold(f"threshold must be > 0, got {threshold}")
    obs = dataset.observed
    pred = dataset.predicted
    zero = obs <= threshold
    pred_zero = pred <= threshold
    n1 = np.flatnonzero(zero & pred_zero)
    n2 = np.flatnonzero(zero & ~pred_zero)
    n3 = np.flatnonzero(~zero)
    clamp = np.flatnonzero(~zero & pred_zero)
    return ZeroPartition(float(threshold), n1, n2, n3, clamp)


def location_stats(dataset: Dataset) -> LocationStats:
    """Mean and population standard deviation of the observed values per
    location."""
    means: dict[str, float] = {}
    sigmas: dict[str, float] = {}
    for s in dataset.series:
        means[s.location_id] = float(s.observed.mean())
        sigmas[s.location_id] = float(np.std(s.observed))
    return LocationStats(mean=means, sigma_o=sigmas)


def split(dataset: Dataset, spec: SplitSpec) -> SplitResult:
    """Split a dataset per the spec; disjoint and exhaustive for every mode
    except "none", which returns the dataset twice with the in-sample flag
    set. Identical (dataset, spec) inputs yield identical splits.
    """
    if spec.mode == "none":
        return SplitResult(dataset, dataset, True)
    if spec.mode == "random-fraction":
        mask = _random_mask(dataset.n_total, spec)
    elif spec.mode == "by-location":
        mask = _location_mask(dataset, spec)
    else:
        mask = _time_mask(dataset, spec)
    if not mask.any() or mask.all():
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} leaves an empty side on "
            f"{dataset.n_total} pairs"
        )
    return SplitResult(dataset.subset(~mask), dataset.subset(mask), False)


def _random_mask(n: int, spec: SplitSpec) -> np.ndarray:
    n_test = int(round(spec.test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} yields {n_test} test pairs "
            f"out of {n}"
        )
    rng = np.random.default_rng(spec.seed)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:n_test]] = True
    return mask


def _location_mask(dataset: Dataset, spec: SplitSpec) -> np.ndarray:
    n_loc = len(dataset.series)
    n_test = int(round(spec.test_fraction * n_loc))
    if n_test < 1 or n_test >= n_loc:
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} yields {n_test} test "
            f"locations out of {n_loc}"
        )
    rng = np.random.default_rng(spec.seed)
    test_locs = set(
        dataset.location_ids[i] for i in rng.permutation(n_loc)[:n_test]
    )
    mask = np.zeros(dataset.n_total, dtype=bool)
    offset = 0
    for s in dataset.series:
        if s.location_id in test_locs:
            mask[offset:offset + len(s)] = True
        offset += len(s)
    return mask


def _time_mask(dataset: Dataset, spec: SplitSpec) -> np.ndarray:
    mask = np.zeros(dataset.n_total, dtype=bool)
    offset = 0
    for s in dataset.series:
        if s.timestamps is None or any(t == "" for t in s.timestamps):
            raise MissingTimestamps(
                f"location {s.location_id!r} lacks timestamps required for "
                "a time-based split"
            )
        order = sorted(range(len(s)), key=s.timestamps.__getitem__)
        n_test = int(round(spec.test_fraction * len(s)))
        if n_test > 0:
            mask[offset + np.asarray(order[len(s) - n_test:])] = True
        offset += len(s)
    return mask
