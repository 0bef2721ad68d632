"""Density grids over the unit square.

A grid of resolution m holds one value per cell, indexed by the midpoints
((i+0.5)/m, (j+0.5)/m).  Closed-form families are evaluated exactly at the
midpoints, never at 0 or 1 where alpha < 1 exponents make densities
unbounded, and rescaled by the midpoint-rule mass (a factor 1 + O(1/m^2))
so every grid integrates to one.  AN5/AN8 grids hold cell probabilities
times m^2: exact (_cell_masses) where at most one live gamma component is
on both axes, else Monte Carlo histograms scaled by m^2 / n_samples.

The histogram is numpy's 2-D histogram on m equal bins of [0, 1], count
for count: each block of pairs is binned by an exact cell index (floor(c m),
corrected once against the same np.linspace edges) as it is assembled, and
the blocks' bincounts are summed.  A posterior's prior grid is made here
too: log_prior_cells caches it read-only, exact or the log of a histogram,
with its largest value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .families import FamilySpec, closed_form_logpdf, marginal_params, ratio_axes
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
    """m x m joint density values, one per cell (see density_grid); rows index x."""

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
    """Joint density of a family on the m x m grid.

    Closed forms (density at the midpoints) and AN5/AN8 vectors with exact
    cells (cell probability times m^2) ignore n_samples and rng
    (estimated=False, n_samples=0).  Other AN5/AN8 vectors need at least
    10^4 samples and an RngState; their histogram bins n_samples draws, so
    it estimates the same cell probabilities with no smoothing bandwidth.
    The counts are numpy's 2-D histogram of the draws, binned block by block.
    """
    if m < 2:
        raise ValueError(f"grid resolution m must be >= 2, got {m}")
    exact = _exact_log_cells(family, m)
    if exact is not None:
        # max-subtraction before exp keeps sharply concentrated densities
        # from underflowing on every cell
        cells = np.exp(exact.cells - exact.top)
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


# Exact cells by the trapezoid rule in tau, where t = log U_s = tau - exp(_KNEE
# - tau) is uniform above the knee and geometric below it, where shapes below 1
# spread their mass and the conditional cells vary over |t| ~ 1/shape.
_KNEE = -15.0
_TAIL_MASS = 1e-18  # mass of U_s left out at each end
_CELL_TV_TOL = 1e-12
_MAX_NODES = 1 << 14
_NODE_CHUNK = 256


def _cell_masses(family: FamilySpec, m: int) -> Optional[np.ndarray]:
    """Exact m x m cell probabilities, or None unless at most one live component is on both axes.

    Without a shared component the axes are independent betas: the outer
    product of betainc differences.  With one, U_s, each axis must have one
    other live component G, so that given U_s = u the axis is G/(G+u), with
    CDF gammainc(a_G, u x/(1-x)) at the edges, or u/(u+G), the same cells
    reversed.  The outer products of the two axes' cells are integrated over
    U_s, halving h until two rules agree to _CELL_TV_TOL in TV.  A cell past
    the median is a difference of complementary CDFs, so tail cells keep
    their relative accuracy.  scipy.special is imported only here.
    """
    a = family.alphas
    axes = [([i for i in num if a[i] > 0.0], [i for i in rest if a[i] > 0.0], flip)
            for num, rest, flip in ratio_axes(family.variant)]
    shared = set(sum(axes[0][:2], [])) & set(sum(axes[1][:2], []))
    if len(shared) > 1:
        return None
    sides = []  # per axis given U_s: the shape of G, and whether the cells are reversed
    if shared:
        for num, rest, flip in axes:
            others = [i for i in num + rest if i not in shared]
            if len(others) != 1:
                return None
            sides.append((a[others[0]], (others[0] in rest) != flip))
    import scipy.special as sc

    edges = np.linspace(0.0, 1.0, m + 1)

    def cells(p: np.ndarray, q: np.ndarray, reverse: bool) -> np.ndarray:
        c = np.where(p[..., 1:] < 0.5, np.diff(p), -np.diff(q))
        return c[..., ::-1] if reverse else c

    if not shared:
        # with the lower shape first, a complemented axis gives exactly reversed cells
        shapes = [(sorted((p.a, p.b)), p.a > p.b) for p in marginal_params(family)]
        return np.outer(*(cells(sc.betainc(*ab, edges), sc.betaincc(*ab, edges), rev) for ab, rev in shapes))
    with np.errstate(divide="ignore"):
        log_odds = np.log(edges) - np.log1p(-edges)

    def axis_cells(t: np.ndarray, shape: float, reverse: bool) -> np.ndarray:
        log_z = t[:, None] + log_odds
        z = np.exp(log_z)
        p, q = sc.gammainc(shape, z), sc.gammaincc(shape, z)
        tiny = log_z < -50.0  # P is z^a / Gamma(a+1) to 1e-21 here, also where z underflows
        lp = shape * log_z[tiny] - math.lgamma(shape + 1.0)
        p[tiny], q[tiny] = np.exp(lp), -np.expm1(lp)
        return cells(p, q, reverse)

    (s,) = shared
    a_s = a[s]
    z_lo = sc.gammaincinv(a_s, _TAIL_MASS)
    # where z_lo underflows, P(U < z) <= z^a / Gamma(a+1) bounds the lower tail
    t_lo = math.log(z_lo) if z_lo > 0.0 else (math.log(_TAIL_MASS) + math.lgamma(a_s + 1.0)) / a_s
    tau_lo = t_lo if t_lo > _KNEE else _KNEE - math.log1p(_KNEE - t_lo)
    tau_hi = math.log(sc.gammainccinv(a_s, _TAIL_MASS))
    h = min(0.5, (tau_hi - tau_lo) / 16)
    tau = np.arange(tau_lo, tau_hi + h, h)
    acc, total, prev, nodes = np.zeros((m, m)), 0.0, None, 0
    while True:
        for lo in range(0, tau.size, _NODE_CHUNK):
            tk = tau[lo:lo + _NODE_CHUNK]
            t = tk - np.exp(_KNEE - tk)
            # the density of tau up to a constant: U_s's gamma density in t times dt/dtau
            w = np.exp(a_s * (t - math.log(a_s)) - np.exp(t) + a_s + np.logaddexp(0.0, _KNEE - tk))
            x, y = (axis_cells(t, *side) for side in sides)
            acc += (x * w[:, None]).T @ y
            total += float(w.sum())
        nodes += tau.size
        grid = acc / total
        if prev is not None and 0.5 * float(np.abs(grid - prev).sum()) <= _CELL_TV_TOL:
            return grid
        if 2 * nodes > _MAX_NODES:
            raise ValueError(f"exact cells of {family.label()} did not converge within {_MAX_NODES} nodes")
        prev, h = grid, h / 2
        tau = tau_lo + h + 2 * h * np.arange(nodes)  # the midpoints of the previous rule


class LogCells(NamedTuple):
    """A read-only m x m log grid and its largest value, found once when the grid is made."""

    cells: np.ndarray
    top: float


# One exact evaluation per (family, m), shared by density grids and posteriors.
@lru_cache(maxsize=16)
def _exact_log_cells(family: FamilySpec, m: int) -> Optional[LogCells]:
    """Log midpoint density of a closed form, log _cell_masses, or None for a histogram."""
    if family.has_closed_form:
        mid = grid_midpoints(m)
        log_cells = closed_form_logpdf(family, mid[:, None], mid[None, :])
    else:
        masses = _cell_masses(family, m)
        if masses is None:
            return None
        with np.errstate(divide="ignore"):
            log_cells = np.log(masses)
    log_cells.flags.writeable = False
    return LogCells(log_cells, float(log_cells.max()))


# One histogram per (family, m, n_samples, seed, stream): posterior re-runs
# across different data must vary only through the likelihood.  Bounded so
# seed sweeps don't accumulate grids indefinitely.
@lru_cache(maxsize=16)
def _histogram_log_cells(family: FamilySpec, m: int, n_samples: int, seed: int, stream: int) -> LogCells:
    """Log histogram density of an AN5/AN8 family on the m x m grid."""
    grid = density_grid(family, m=m, n_samples=n_samples, rng=RngState(seed, stream))
    with np.errstate(divide="ignore"):
        log_cells = np.log(grid.cells)
    log_cells.flags.writeable = False
    return LogCells(log_cells, float(log_cells.max()))


def log_prior_cells(family: FamilySpec, m: int, n_samples: int, rng: Optional[RngState]) -> LogCells:
    """Read-only log prior on the m x m grid, up to a constant, and its max, cached.

    Closed forms and exact AN5/AN8 cells (see density_grid) are cached per
    (family, m) and ignore n_samples and rng.  Other AN5/AN8 vectors take
    the log of their histogram density, identified by the rng's (seed,
    stream); its generator is not consumed, so one state names one grid.
    """
    exact = _exact_log_cells(family, m)
    if exact is not None:
        return exact
    if rng is None:
        raise ValueError(f"a {family.variant} prior needs an RngState for its density grid")
    return _histogram_log_cells(family, m, n_samples, *rng.identity)
