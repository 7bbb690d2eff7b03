"""Entropy convergence versus sample size and location-wise entropy
correlation across objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset, Layout, SplitSpec, split_blocks
from .errors import (
    EmptyInput,
    SizeExceedsData,
    ZeroVariance,
    as_int,
    check_seed,
)
from .likelihoods import (
    DEFAULT_ZERO_THRESHOLD,
    ObjectiveSpec,
    evaluate_objective,
    location_entropies,
    location_frames,
)


class ConvergencePoint(NamedTuple):
    size: int
    replicate: int
    h_bits: float
    abs_error: float


@dataclass(frozen=True)
class ConvergenceCurve:
    """In-sample entropy of one objective across subsample sizes.

    The reference entropy is the mean over the five highest-size evaluated
    samples (all of them when fewer than five exist); absolute errors are
    measured against it.
    """

    objective: str
    reference_h: float
    points: tuple[ConvergencePoint, ...]


@dataclass(frozen=True)
class EntropyMatrix:
    """Per-location entropies (NaN where an objective failed) and the
    objective-by-objective Pearson correlations over locations."""

    locations: tuple[str, ...]
    objectives: tuple[str, ...]
    entropies: np.ndarray
    correlations: np.ndarray


def check_subsamples(
    sizes: Sequence[int], replicates: int, seed: int = 0,
    n_total: int | None = None,
) -> list[int]:
    """sizes as ints, once they are non-empty, >= 1 and strictly
    increasing, replicates >= 1, seed is a 64-bit unsigned integer and,
    given n_total, no size exceeds it."""
    sizes = [as_int(s, SizeExceedsData, "a size") for s in sizes]
    if not sizes:
        raise EmptyInput("no sizes requested")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SizeExceedsData("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise SizeExceedsData("sizes must be >= 1")
    if as_int(replicates, EmptyInput, "replicates") < 1:
        raise EmptyInput("replicates must be >= 1")
    check_seed(seed, EmptyInput)
    if n_total is not None and sizes[-1] > n_total:
        raise SizeExceedsData(
            f"size {sizes[-1]} exceeds the {n_total} available pairs"
        )
    return sizes


def convergence_curve(
    dataset: Dataset | Layout,
    specs: Sequence[ObjectiveSpec],
    sizes: Sequence[int],
    replicates: int = 1,
    seed: int = 0,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
    with_replacement: bool = False,
) -> tuple[ConvergenceCurve, ...]:
    """Entropy of seeded subsamples at each size, in-sample: one curve per
    objective, in the order of specs.

    Each subsample is drawn once and every objective scores it, so the
    curves rest on the same evidence. Subsampling is without replacement
    by default; pass with_replacement for a bootstrap flavor, where a pair
    drawn twice is scored twice. Fully deterministic given the seed: draws
    occur in (size ascending, replicate ascending) order from one
    generator, so a curve is the same whichever objectives come with it.
    Each draw is sorted, so that a layout reads it once (Layout.take).
    """
    sizes = check_subsamples(sizes, replicates, seed, dataset.n_total)
    if not specs:
        raise EmptyInput("no objectives given")

    rng = np.random.default_rng(seed)
    draws = [(size, rep) for size in sizes for rep in range(1, replicates + 1)]
    rows = []
    for size, _ in draws:
        idx = rng.choice(dataset.n_total, size=size, replace=with_replacement)
        sub = dataset.take(np.sort(idx))
        # One pass per transform, shared by the objectives that use it.
        frames = [location_frames(specs, sub, threshold)]
        rows.append([evaluate_objective(spec, frames, frames, threshold).h_bits
                     for spec in specs])
        # So that two subsamples are never alive at once.
        del idx, sub, frames
    curves = []
    for spec, column in zip(specs, zip(*rows)):
        reference = float(np.mean(column[-5:]))
        curves.append(ConvergenceCurve(spec.name, reference, tuple(
            ConvergencePoint(size, rep, x, abs(x - reference))
            for (size, rep), x in zip(draws, column))))
    return tuple(curves)


def per_location_entropy(
    dataset: Dataset | Layout,
    specs: Sequence[ObjectiveSpec],
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> EntropyMatrix:
    """Fit and evaluate each objective independently at each location,
    in-sample.

    A dataset, or a layout, is scored a block of whole locations at a
    time (see split_blocks), whose rows of `location_entropies` are
    stacked: each transform makes one pass over a block, shared by every
    objective that uses it, and a cell is bit for bit the entropy of
    `evaluate_objective` on a dataset of that location alone. Locations
    where an objective fails (no pair above the threshold for a
    positive-domain objective, sigma_o = 0 for NSE, or a degenerate
    scale) become NaN cells and drop out of the pairwise correlations. A
    threshold that is not finite and > 0 fails every cell, so it raises.
    """
    if not specs:
        raise EmptyInput("no objectives given")
    blocks, _ = split_blocks(dataset, SplitSpec("none"), partial(
        location_entropies, specs, threshold=threshold))
    h = np.concatenate(blocks)
    return EntropyMatrix(
        locations=dataset.location_ids,
        objectives=tuple(s.name for s in specs),
        entropies=h,
        correlations=pearson_matrix(h),
    )


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two equal-length columns, within [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise EmptyInput(f"column lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise EmptyInput("correlation needs at least two rows")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("a column is constant; correlation undefined")
    r = float(np.sum(dx * dy) / (sx * sy))
    # Rounding can carry |r| past 1 for (anti)proportional columns.
    return min(1.0, max(-1.0, r))


def pearson_matrix(columns: np.ndarray) -> np.ndarray:
    """Pairwise-complete Pearson correlations between matrix columns.

    The diagonal is exactly 1; undefined cells (fewer than two overlapping
    rows, or zero variance) are NaN. The result is exactly symmetric.
    """
    cols = np.asarray(columns, dtype=np.float64)
    m = cols.shape[1]
    corr = np.full((m, m), np.nan)
    np.fill_diagonal(corr, 1.0)
    for i in range(m):
        for j in range(i + 1, m):
            both = np.isfinite(cols[:, i]) & np.isfinite(cols[:, j])
            if both.sum() < 2:
                continue
            try:
                r = pearson(cols[both, i], cols[both, j])
            except ZeroVariance:
                continue
            corr[i, j] = r
            corr[j, i] = r
    return corr
