"""Density grids over the unit square.

A grid of resolution m stores values at the cell midpoints
((i+0.5)/m, (j+0.5)/m), never at 0 or 1 where alpha < 1 exponents make
densities unbounded.  Closed-form families are evaluated exactly and then
rescaled by the midpoint-rule mass (a factor 1 + O(1/m^2)) so every grid
integrates to one; AN5/AN8 grids are Monte Carlo histograms, counts scaled
by m^2 / n_samples, which integrate to one by construction.

The histogram is numpy's 2-D histogram on m equal bins of [0, 1], count
for count: each block of pairs is binned by an exact cell index (floor(c m),
corrected once against the same np.linspace edges) as it is assembled, and
the blocks' bincounts are summed.  A posterior's prior grid is made here
too: log_prior_cells caches it read-only, exact or the log of a histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .families import FamilySpec, closed_form_logpdf
from .sampling import RngState, pair_blocks
from .serialize import csv_text, json_text

MIN_ESTIMATED_SAMPLES = 10_000
DEFAULT_GRID_M = 100
DEFAULT_GRID_SAMPLES = 10_000_000


def grid_midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def _cell_index(c: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin k of each c in [0, 1] with edges[k] <= c < edges[k+1]; 1.0 falls in the last bin.

    floor(c m) is at most one bin off that comparison, so one correction
    each way makes it the bin a search of the edges finds.
    """
    m = edges.size - 1
    k = np.clip(np.floor(c * m), 0, m - 1).astype(np.intp)
    k -= c < edges[k]
    k += (c >= edges[k + 1]) & (k < m - 1)
    return k


def _cell_counts(x: np.ndarray, y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Flat row-major counts of numpy's 2-D histogram of (x, y) on these edges over [0, 1]^2.

    Pairs with a NaN or a coordinate outside [0, 1] are dropped, as numpy drops them.
    """
    m = edges.size - 1
    inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
    if not inside.all():
        x, y = x[inside], y[inside]
    return np.bincount(_cell_index(x, edges) * m + _cell_index(y, edges), minlength=m * m)


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
    O(1/m) and no smoothing bandwidth enters.  The counts are numpy's 2-D
    histogram of the same draws, binned by exact cell index block by block.
    """
    if m < 2:
        raise ValueError(f"grid resolution m must be >= 2, got {m}")
    if family.has_closed_form:
        # max-subtraction before exp keeps sharply concentrated densities
        # from underflowing on every cell
        log_cells = _closed_form_log_cells(family, m)
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
    edges = np.linspace(0.0, 1.0, m + 1)
    blocks = pair_blocks(rng, family, n_samples, lambda lo, hi, x, y: _cell_counts(x, y, edges))
    counts = next(blocks)
    for block_counts in blocks:
        counts += block_counts
    cells = counts.reshape(m, m) * (m * m / n_samples)
    return DensityGrid(
        m=m, cells=cells, estimated=True, n_samples=n_samples, family=family, seed=seed
    )


# One exact evaluation per (family, m), shared by density grids and posteriors.
@lru_cache(maxsize=16)
def _closed_form_log_cells(family: FamilySpec, m: int) -> np.ndarray:
    """Read-only exact log density at the m x m cell midpoints."""
    mid = grid_midpoints(m)
    log_cells = closed_form_logpdf(family, mid[:, None], mid[None, :])
    log_cells.flags.writeable = False
    return log_cells


# One histogram per (family, m, n_samples, seed, stream): posterior re-runs
# across different data must vary only through the likelihood.  Bounded so
# seed sweeps don't accumulate grids indefinitely.
@lru_cache(maxsize=16)
def _histogram_log_cells(family: FamilySpec, m: int, n_samples: int, seed: int, stream: int) -> np.ndarray:
    """Read-only log histogram density of an AN5/AN8 family on the m x m grid."""
    grid = density_grid(family, m=m, n_samples=n_samples, rng=RngState(seed, stream))
    with np.errstate(divide="ignore"):
        log_cells = np.log(grid.cells)
    log_cells.flags.writeable = False
    return log_cells


def log_prior_cells(family: FamilySpec, m: int, n_samples: int, rng: Optional[RngState]) -> np.ndarray:
    """Read-only log prior density on the m x m midpoint grid, cached.

    Closed forms are evaluated exactly at the midpoints and ignore
    n_samples and rng.  AN5/AN8 take the log of their histogram density,
    identified by the rng's (seed, stream); its generator is not consumed,
    so the same state always names the same grid.
    """
    if family.has_closed_form:
        return _closed_form_log_cells(family, m)
    if rng is None:
        raise ValueError(f"a {family.variant} prior needs an RngState for its density grid")
    return _histogram_log_cells(family, m, n_samples, *rng.identity)
