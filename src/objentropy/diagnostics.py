"""Entropy convergence versus sample size and location-wise entropy
correlation across objectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    EmptyInput,
    NonPositiveThreshold,
    ObjentropyError,
    SizeExceedsData,
    ZeroVariance,
)
from .likelihoods import DEFAULT_ZERO_THRESHOLD, ObjectiveSpec, evaluate_objective


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
    sizes: tuple[int, ...]
    replicates: int
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


def convergence_curve(
    dataset: Dataset,
    spec: ObjectiveSpec,
    sizes: Sequence[int],
    replicates: int = 1,
    seed: int = 0,
    threshold: float = DEFAULT_ZERO_THRESHOLD,
    with_replacement: bool = False,
) -> ConvergenceCurve:
    """Entropy of seeded subsamples at each size, in-sample.

    Subsampling is without replacement by default; pass with_replacement
    for a bootstrap flavor, where a pair drawn twice is scored twice. Fully
    deterministic given the seed: draws occur in (size ascending, replicate
    ascending) order from one generator.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise EmptyInput("no sizes requested")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SizeExceedsData("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise SizeExceedsData("sizes must be >= 1")
    if sizes[-1] > dataset.n_total:
        raise SizeExceedsData(
            f"size {sizes[-1]} exceeds the {dataset.n_total} available pairs"
        )
    if replicates < 1:
        raise EmptyInput("replicates must be >= 1")
    if not (0 <= int(seed) < 2 ** 64):
        raise EmptyInput("seed must be a 64-bit unsigned integer")

    rng = np.random.default_rng(seed)
    raw: list[tuple[int, int, float]] = []
    for size in sizes:
        for rep in range(1, replicates + 1):
            idx = rng.choice(dataset.n_total, size=size, replace=with_replacement)
            sub = dataset.take(np.sort(idx))
            h = evaluate_objective(spec, sub, sub, threshold).h_bits
            raw.append((size, rep, h))
    tail = raw[-min(5, len(raw)):]
    reference = float(np.mean([h for _, _, h in tail]))
    points = tuple(
        ConvergencePoint(size, rep, h, abs(h - reference))
        for size, rep, h in raw
    )
    return ConvergenceCurve(
        objective=spec.name,
        sizes=tuple(sizes),
        replicates=replicates,
        reference_h=reference,
        points=points,
    )


def per_location_entropy(
    dataset: Dataset,
    specs: Sequence[ObjectiveSpec],
    threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> EntropyMatrix:
    """Fit and evaluate each objective independently at each location,
    in-sample.

    Locations where an objective's fit fails (domain, degenerate scale, or
    empty support) become NaN cells and drop out of the pairwise
    correlations. A threshold <= 0 fails every cell, so it raises.
    """
    if not specs:
        raise EmptyInput("no objectives given")
    names = tuple(s.name for s in specs)
    locations = dataset.location_ids
    h = np.full((len(locations), len(specs)), np.nan)
    for i, (loc, rows) in enumerate(dataset.rows()):
        single = Dataset((loc,), (0, rows.stop - rows.start),
                         dataset.pairs[:, rows])
        for j, spec in enumerate(specs):
            try:
                h[i, j] = evaluate_objective(spec, single, single,
                                             threshold).h_bits
            except NonPositiveThreshold:
                raise
            except ObjentropyError:
                continue
    return EntropyMatrix(
        locations=locations,
        objectives=names,
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
