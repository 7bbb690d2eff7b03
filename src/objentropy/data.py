"""Columnar observed/predicted datasets and train/test splits.

All types are immutable after construction. A dataset holds every pair in
one array, locations in storage order, so every index-based operation
(subsetting, splitting) refers to one fixed, deterministic ordering.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateSplit,
    DuplicateLocation,
    EmptyInput,
    LengthMismatch,
    MissingTimestamps,
    NonFiniteValue,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed/predicted pairs of every location, stored as columns.

    Location i owns columns bounds[i]:bounds[i + 1] of pairs, whose row 0
    holds observed values and row 1 predicted values. Location ids are
    unique and every location has at least one pair. pairs is a read-only,
    C-contiguous float64 array and bounds a read-only int64 array.
    Timestamps are optional strings, one per column, read only by
    time-based splitting, which parses them as ISO-8601. A dataset equals
    only itself.
    """

    location_ids: tuple[str, ...]
    bounds: np.ndarray
    pairs: np.ndarray
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        ids = tuple(self.location_ids)
        if not ids:
            raise EmptyInput("dataset has no locations")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DuplicateLocation(f"duplicate location ids: {dupes}")
        pairs = np.ascontiguousarray(self.pairs, dtype=np.float64)
        bounds = np.array(self.bounds, dtype=np.int64, ndmin=1)
        n = pairs.shape[-1]
        counts = np.diff(bounds)
        if (pairs.shape != (2, n) or bounds.shape != (len(ids) + 1,)
                or bounds[0] != 0 or bounds[-1] != n or (counts < 0).any()):
            raise LengthMismatch(
                f"bounds {bounds.tolist()} do not split pairs of shape "
                f"{pairs.shape} (expected (2, n)) among {len(ids)} locations"
            )
        if not counts.all():
            empty = ids[int(np.flatnonzero(counts == 0)[0])]
            raise EmptyInput(f"location {empty!r} has no pairs")
        finite = np.isfinite(pairs).all(axis=0)
        if not finite.all():
            first = int(np.flatnonzero(~finite)[0])
            loc = ids[int(np.searchsorted(bounds, first, side="right")) - 1]
            raise NonFiniteValue(
                f"location {loc!r} contains NaN or infinite values"
            )
        if self.timestamps is not None:
            stamps = tuple(self.timestamps)
            if len(stamps) != n:
                raise LengthMismatch(f"{len(stamps)} timestamps vs {n} pairs")
            object.__setattr__(self, "timestamps", stamps)
        pairs.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "location_ids", ids)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_total(self) -> int:
        return self.pairs.shape[1]

    @cached_property
    def observed(self) -> np.ndarray:
        return self.pairs[0]

    @cached_property
    def predicted(self) -> np.ndarray:
        return self.pairs[1]

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
            np.arange(len(self.location_ids), dtype=np.int32),
            np.diff(self.bounds),
        )
        arr.setflags(write=False)
        return arr

    def rows(self) -> Iterator[tuple[str, slice]]:
        """Each location id with the slice of the columns it owns."""
        bounds = self.bounds.tolist()
        return zip(self.location_ids, map(slice, bounds[:-1], bounds[1:]))

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
        counts = np.bincount(codes, minlength=len(self.location_ids))
        kept = np.flatnonzero(counts)
        return Dataset(
            tuple(map(self.location_ids.__getitem__, kept.tolist())),
            np.concatenate(([0], np.cumsum(counts[kept]))),
            np.take(self.pairs, idx, axis=1),
            None if self.timestamps is None
            else tuple(map(self.timestamps.__getitem__, idx.tolist())),
        )


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


def validate_dataset(
    raw: Mapping[str, tuple[Sequence[float], Sequence[float]]],
) -> Dataset:
    """Build a validated Dataset from a mapping of location_id ->
    (observed, predicted).

    Rejects empty input, length mismatches, and non-finite values; each
    error names the location at fault.
    """
    if not raw:
        raise EmptyInput("no locations provided")
    observed, predicted = [], []
    for loc, (obs, pred) in raw.items():
        obs = np.asarray(obs, dtype=np.float64)
        pred = np.asarray(pred, dtype=np.float64)
        if obs.ndim != 1 or obs.shape != pred.shape:
            raise LengthMismatch(
                f"location {loc!r}: observed shape {obs.shape} vs predicted "
                f"shape {pred.shape}; both must be 1-D and equal"
            )
        observed.append(obs)
        predicted.append(pred)
    bounds = np.cumsum([0] + [obs.size for obs in observed])
    pairs = np.empty((2, int(bounds[-1])))
    np.concatenate(observed, out=pairs[0])
    np.concatenate(predicted, out=pairs[1])
    return Dataset(tuple(raw), bounds, pairs)


def split(dataset: Dataset, spec: SplitSpec) -> SplitResult:
    """Split a dataset per the spec into (train, test), disjoint and
    exhaustive, except that mode "none" returns the same dataset twice
    (`test is train`). Identical (dataset, spec) inputs split identically.
    """
    if spec.mode == "none":
        return SplitResult(dataset, dataset)
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
    return SplitResult(dataset.subset(~mask), dataset.subset(mask))


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
    n_loc = len(dataset.location_ids)
    n_test = int(round(spec.test_fraction * n_loc))
    if n_test < 1 or n_test >= n_loc:
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} yields {n_test} test "
            f"locations out of {n_loc}"
        )
    rng = np.random.default_rng(spec.seed)
    is_test = np.zeros(n_loc, dtype=bool)
    is_test[rng.permutation(n_loc)[:n_test]] = True
    return is_test[dataset.location_codes]


def _time_mask(dataset: Dataset, spec: SplitSpec) -> np.ndarray:
    """Each location's last round(test_fraction * n) pairs in the order of
    their ISO-8601 timestamps; pairs at the same time keep storage order."""
    stamps = dataset.timestamps
    if stamps is None:
        raise MissingTimestamps(
            f"location {dataset.location_ids[0]!r} lacks timestamps required "
            "for a time-based split"
        )
    with warnings.catch_warnings():
        # numpy converts a stamp with a UTC offset to UTC, as intended, but
        # warns that datetime64 keeps no time zone.
        warnings.filterwarnings("ignore", "no explicit representation of timezones")
        try:
            times = np.array(stamps, dtype="datetime64")
        except ValueError:  # numpy does not say which stamp it rejected
            times = np.array([_datetime(t) for t in stamps])
    bad = np.flatnonzero(np.isnat(times))
    if bad.size:
        loc = dataset.location_ids[dataset.location_codes[bad[0]]]
        raise MissingTimestamps(
            f"location {loc!r} has timestamp {stamps[bad[0]]!r}; a time-based "
            "split needs an ISO-8601 date or time on every row"
        )
    counts = np.diff(dataset.bounds)
    n_test = np.rint(spec.test_fraction * counts).astype(np.int64)
    tail = np.arange(dataset.n_total) >= np.repeat(dataset.bounds[1:] - n_test,
                                                   counts)
    mask = np.zeros(dataset.n_total, dtype=bool)
    mask[np.lexsort((times, dataset.location_codes))[tail]] = True
    return mask


def _datetime(stamp: str) -> np.datetime64:
    try:
        return np.datetime64(stamp)
    except ValueError:
        return np.datetime64("NaT")
