"""Columnar observed/predicted datasets and train/test splits.

All types are immutable after construction. A dataset holds every pair in
one array, locations in storage order, so every index-based operation
(subsetting, splitting) refers to one fixed, deterministic ordering.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateSplit,
    DuplicateLocation,
    EmptyInput,
    LengthMismatch,
    MissingTimestamps,
    NonFiniteValue,
    check_seed,
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
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
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
        _check_finite(ids, bounds, pairs)
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

    def read(self, lo: int, hi: int) -> np.ndarray:
        """The (2, hi - lo) view of columns lo:hi of pairs: the read a
        Layout answers."""
        return self.pairs[:, lo:hi]

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
        idx = _positions(idx, self.n_total)
        if (idx[1:] < idx[:-1]).any():
            codes = self.location_codes[idx]
            idx = idx[np.argsort(codes, kind="stable")]
            counts = np.bincount(codes, minlength=len(self.location_ids))
            del codes
        else:
            # Sorted positions, as subset and a sorted draw give, are
            # grouped by location already: a stable sort by location would
            # be the identity, and each location's count is a search.
            counts = np.diff(np.searchsorted(idx, self.bounds))
        return _taken(self.location_ids, counts,
                      np.take(self.pairs, idx, axis=1),
                      None if self.timestamps is None
                      else tuple(map(self.timestamps.__getitem__,
                                     idx.tolist())))


def _check_finite(location_ids: tuple[str, ...], bounds: np.ndarray,
                  pairs: np.ndarray, lo: int = 0) -> None:
    """Raise NonFiniteValue, naming the location of the first one, where
    pairs, columns lo: of a dataset with location_ids and bounds, hold a
    NaN or infinite value."""
    finite = np.isfinite(pairs).all(axis=0)
    if not finite.all():
        first = lo + int(np.flatnonzero(~finite)[0])
        loc = location_ids[int(np.searchsorted(bounds, first, "right")) - 1]
        raise NonFiniteValue(
            f"location {loc!r} contains NaN or infinite values"
        )


def _positions(idx: np.ndarray, n_total: int) -> np.ndarray:
    """idx as a non-empty 1-D array of positions in [0, n_total)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise DegenerateSplit("take needs a non-empty 1-D index array")
    if idx.min() < 0 or idx.max() >= n_total:
        raise LengthMismatch(f"positions outside [0, {n_total}) requested")
    return idx


def _taken(location_ids: tuple[str, ...], counts: np.ndarray,
           pairs: np.ndarray, timestamps: tuple[str, ...] | None = None
           ) -> Dataset:
    """The dataset of pairs, counts[i] of them, in order, taken from
    location i of location_ids; locations that keep none are dropped."""
    kept = np.flatnonzero(counts)
    return Dataset(tuple(map(location_ids.__getitem__, kept.tolist())),
                   np.concatenate(([0], np.cumsum(counts[kept]))), pairs,
                   timestamps)


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train and test portions.

    Modes: "none" (identity, in-sample; takes no test_fraction), "random"
    (seeded global row sample), "location" (whole locations held out),
    "time" (chronological tail of each location held out; requires
    timestamps). Random splits are fully determined by (mode,
    test_fraction, seed).
    """

    mode: str
    test_fraction: float | None = None
    seed: int = 0

    _MODES = ("none", "random", "location", "time")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise DegenerateSplit(
                f"unknown split mode {self.mode!r}; expected one of {self._MODES}"
            )
        f = self.test_fraction
        if self.mode == "none":
            if f is not None:
                raise DegenerateSplit(
                    f"split mode 'none' takes no test_fraction, got {f!r}"
                )
        elif f is None or not (0.0 < f < 1.0):
            raise DegenerateSplit(
                f"test_fraction must lie in (0, 1), got {f!r}"
            )
        check_seed(self.seed, DegenerateSplit)


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
    mask = _test_mask(dataset, spec)
    return SplitResult(dataset.subset(~mask), dataset.subset(mask))


# The most pairs of a block of whole locations that split_blocks reduces
# at a time, and of the columns that a part split_blocks gathers, or a
# layout's check, reads at a time: what a block holds does not grow with
# the dataset. A larger location is a block of its own.
_BLOCK_PAIRS = 1 << 16
# The most columns a layout's take reads at a time: a sparse draw reads
# little more than its positions, and a dense one holds at most this many
# pairs beside them.
_TAKE_PAIRS = 1 << 13


class Layout(NamedTuple):
    """A dataset whose pairs are read, or drawn, a range of columns at a
    time and never held whole: its location ids and bounds, as a Dataset
    holds them, and read(lo, hi), the (2, hi - lo) observed and predicted
    values of its columns lo:hi. It has no timestamps."""

    location_ids: tuple[str, ...]
    bounds: np.ndarray
    read: Callable[[int, int], np.ndarray]

    @property
    def n_total(self) -> int:
        return int(self.bounds[-1])

    @property
    def timestamps(self) -> None:
        return None

    def check(self) -> None:
        """Raise NonFiniteValue, as a Dataset of these pairs does, where a
        value is NaN or infinite: read _BLOCK_PAIRS columns at a time."""
        n = self.n_total
        for lo in range(0, n, _BLOCK_PAIRS):
            _check_finite(self.location_ids, self.bounds,
                          self.read(lo, min(lo + _BLOCK_PAIRS, n)), lo)

    def take(self, idx: np.ndarray) -> Dataset:
        """Dataset.take of the pairs at positions idx, which must be in
        ascending order, as a sorted draw gives them (a position listed
        twice gives two pairs). The positions within _TAKE_PAIRS columns
        of a run's first are gathered from one read of those columns."""
        idx = _positions(idx, self.n_total)
        if (idx[1:] < idx[:-1]).any():
            raise LengthMismatch("a layout takes positions in ascending "
                                 "order")
        pairs = np.empty((2, idx.size))
        at = 0
        while at < idx.size:
            lo = int(idx[at])
            end = int(np.searchsorted(idx, lo + _TAKE_PAIRS))
            pairs[:, at:end] = self.read(lo, int(idx[end - 1]) + 1)[
                :, idx[at:end] - lo]
            at = end
        return _taken(self.location_ids,
                      np.diff(np.searchsorted(idx, self.bounds)), pairs)


def split_blocks(
    dataset: Dataset | Layout, spec: SplitSpec,
    reduce: Callable[[Dataset], Any],
) -> tuple[list[Any], list[Any]]:
    """reduce(part) of each part of split(dataset, spec) that holds pairs,
    in storage order, for the train side and for the test side. In sample
    (mode "none") both sides are the same list, as split gives the same
    dataset twice.

    A block is a run of consecutive whole locations of at most
    _BLOCK_PAIRS pairs, or one location of more, and a part is one side's
    pairs of a block; in sample, each block is one part. The held-out mask
    is drawn once, as split draws it, before any block is read. A part
    that keeps its whole block reads it once; any other is gathered
    _BLOCK_PAIRS columns at a time, each read dropped before the next. So
    beside the dataset only the mask, one part (while it is gathered, one
    read too) and what reduce returns are held, never a side whole.
    """
    mask = None if spec.mode == "none" else _test_mask(dataset, spec)
    bounds = dataset.bounds.tolist()

    def part(first: int, last: int, test: bool, counts: np.ndarray
             ) -> Dataset:
        """The pairs of block first:last on the test side if test, else on
        the train side: counts[j] of them of location first + j."""
        lo, hi = bounds[first], bounds[last]
        ids = dataset.location_ids[first:last]
        kept = int(counts.sum())
        if kept == hi - lo:
            return Dataset(ids, np.subtract(bounds[first:last + 1], lo),
                           dataset.read(lo, hi))
        pairs = np.empty((2, kept))
        at = 0
        for a in range(lo, hi, _BLOCK_PAIRS):
            b = min(a + _BLOCK_PAIRS, hi)
            piece = mask[a:b] == test
            end = at + int(np.count_nonzero(piece))
            np.compress(piece, dataset.read(a, b), axis=1,
                        out=pairs[:, at:end])
            at = end
        return _taken(ids, counts, pairs)

    sides: tuple[list[Any], list[Any]] = ([], [])
    first = 0
    for i in range(1, len(bounds)):
        if (i < len(bounds) - 1
                and bounds[i + 1] - bounds[first] <= _BLOCK_PAIRS):
            continue
        lo, hi = bounds[first], bounds[i]
        sizes = np.diff(bounds[first:i + 1])
        # In sample, every block is all train side.
        held = (np.zeros_like(sizes) if mask is None else np.add.reduceat(
            mask[lo:hi], np.subtract(bounds[first:i], lo), dtype=np.int64))
        for reduced, test, counts in zip(sides, (False, True),
                                         (sizes - held, held)):
            if counts.any():
                reduced.append(reduce(part(first, i, test, counts)))
        first = i
    return sides if mask is not None else (sides[0], sides[0])


def _test_mask(dataset: Dataset | Layout, spec: SplitSpec) -> np.ndarray:
    """The mask of the pairs that spec, a mode other than "none", holds out
    of dataset; neither side may be empty."""
    if spec.mode == "random":
        mask = _held_out(dataset.n_total, spec, "pairs")
    elif spec.mode == "location":
        mask = np.repeat(_held_out(len(dataset.location_ids), spec,
                                   "locations"), np.diff(dataset.bounds))
    else:
        mask = _time_mask(dataset, spec)
    if not mask.any() or mask.all():
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} leaves an empty side on "
            f"{dataset.n_total} pairs"
        )
    return mask


def _held_out(n: int, spec: SplitSpec, unit: str) -> np.ndarray:
    """A mask over n units that holds out a seeded draw of
    round(test_fraction * n) of them, at least one and fewer than n."""
    n_test = int(round(spec.test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} yields {n_test} test {unit} "
            f"out of {n}"
        )
    # permutation(n) shuffles an int64 arange; the draws depend only on n,
    # so an int32 one gives the same positions in half the memory.
    order = np.arange(n, dtype=np.int32 if n < 2 ** 31 else np.intp)
    np.random.default_rng(spec.seed).shuffle(order)
    mask = np.zeros(n, dtype=bool)
    mask[order[:n_test]] = True
    return mask


def _time_mask(dataset: Dataset | Layout, spec: SplitSpec) -> np.ndarray:
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
