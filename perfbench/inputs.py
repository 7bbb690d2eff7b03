"""Seeded workload inputs, written without importing objentropy.

Each input is a location_id,observed,predicted CSV grouped by location.
Floats are written with repr, so every digit the generator drew reaches
the program, and the same seed always yields byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """A multiplicative error model over many locations.

    Predictions are lognormal base flows whose median differs per location;
    observations are predictions times exp(error). Zero inflation forces
    observed and predicted values to zero independently, so every
    zero-state combination occurs.
    """

    locations: int
    per_location: int
    error: str  # "laplace" or "normal", on the log scale
    scale: float
    zero_inflation: float


def write_csv(shape: Shape, seed: int, path: Path) -> None:
    """Draw the dataset for `seed` and write it to `path`."""
    rng = np.random.default_rng([seed, shape.locations, shape.per_location])
    n = shape.per_location
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("location_id,observed,predicted\n")
        for i in range(shape.locations):
            median = float(np.exp(rng.uniform(-1.0, 2.0)))
            pred = rng.lognormal(np.log(median), 1.0, size=n)
            if shape.error == "laplace":
                eps = rng.laplace(0.0, shape.scale, size=n)
            else:
                eps = rng.normal(0.0, shape.scale, size=n)
            obs = pred * np.exp(eps)
            if shape.zero_inflation > 0:
                obs[rng.random(n) < shape.zero_inflation] = 0.0
                pred[rng.random(n) < shape.zero_inflation] = 0.0
            loc = f"L{i + 1:05d}"
            fh.write("".join(
                f"{loc},{o!r},{p!r}\n"
                for o, p in zip(obs.tolist(), pred.tolist())
            ))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
