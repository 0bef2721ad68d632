"""Density grids over the unit square.

A grid of resolution m stores values at the cell midpoints
((i+0.5)/m, (j+0.5)/m), never at 0 or 1 where alpha < 1 exponents make
densities unbounded.  Closed-form families are evaluated exactly and then
rescaled by the midpoint-rule mass (a factor 1 + O(1/m^2)) so every grid
integrates to one; AN5/AN8 grids are Monte Carlo histograms, counts scaled
by m^2 / n_samples, which integrate to one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .families import FamilySpec, closed_form_logpdf
from .sampling import RngState, sample_pairs
from .serialize import csv_text, json_text

MIN_ESTIMATED_SAMPLES = 10_000
DEFAULT_GRID_M = 100
DEFAULT_GRID_SAMPLES = 10_000_000


def grid_midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class DensityGrid:
    """m x m joint density values at cell midpoints; rows index x."""

    m: int
    cells: np.ndarray
    estimated: bool
    n_samples: int
    family: Optional[FamilySpec] = None
    seed: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.cells.shape != (self.m, self.m):
            raise ValueError(f"cells must be {self.m}x{self.m}, got {self.cells.shape}")

    def total_mass(self) -> float:
        """Midpoint-rule integral (1/m^2) * sum(cells); 1 up to fp rounding."""
        return float(self.cells.sum() / (self.m * self.m))

    def to_csv(self) -> str:
        header = [f"{y:.12g}" for y in grid_midpoints(self.m)]
        return csv_text(header, self.cells.tolist())

    def to_json(self) -> str:
        meta = {
            "variant": self.family.variant if self.family else None,
            "alphas": list(self.family.alphas) if self.family else None,
            "m": self.m,
            "n_samples": self.n_samples,
            "seed": list(self.seed) if self.seed else None,
            "estimated": self.estimated,
        }
        return json_text(meta, {"cells": self.cells.tolist()})


def density_grid(
    family: FamilySpec,
    m: int = DEFAULT_GRID_M,
    n_samples: int = DEFAULT_GRID_SAMPLES,
    rng: Optional[RngState] = None,
) -> DensityGrid:
    """Joint density of a family on the m x m midpoint grid.

    Closed-form variants ignore n_samples and rng (estimated=False,
    n_samples=0).  AN5/AN8 need at least 10^4 samples and an RngState; the
    returned histogram bins n_samples draws into the cells, so its bias is
    O(1/m) and no smoothing bandwidth enters.
    """
    if m < 2:
        raise ValueError(f"grid resolution m must be >= 2, got {m}")
    if family.has_closed_form:
        mid = grid_midpoints(m)
        # max-subtraction before exp keeps sharply concentrated densities
        # from underflowing on every cell
        log_cells = closed_form_logpdf(family, mid[:, None], mid[None, :])
        cells = np.exp(log_cells - log_cells.max())
        cells *= (m * m) / cells.sum()
        return DensityGrid(m=m, cells=cells, estimated=False, n_samples=0, family=family)
    if n_samples < MIN_ESTIMATED_SAMPLES:
        raise ValueError(
            f"{family.variant} needs n_samples >= {MIN_ESTIMATED_SAMPLES} "
            f"for a histogram density, got {n_samples}"
        )
    if rng is None:
        raise ValueError(f"{family.variant} density estimation requires an RngState")
    seed = rng.identity
    x, y = sample_pairs(rng, family, n_samples)
    counts, _, _ = np.histogram2d(x, y, bins=m, range=[[0.0, 1.0], [0.0, 1.0]])
    cells = counts * (m * m / n_samples)
    return DensityGrid(
        m=m, cells=cells, estimated=True, n_samples=n_samples, family=family, seed=seed
    )
