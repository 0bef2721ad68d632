"""Density grids over the unit square.

A grid of resolution m holds one value per cell, indexed by the midpoints
((i+0.5)/m, (j+0.5)/m).  Closed-form families are evaluated exactly at the
midpoints, never at 0 or 1 where alpha < 1 exponents make densities
unbounded, and rescaled by the midpoint-rule mass (a factor 1 + O(1/m^2))
so every grid integrates to one.  AN5/AN8 grids hold cell probabilities
times m^2: exact (_cell_masses) where at most one live gamma component is
on both axes, else Monte Carlo histograms scaled by m^2 / n_samples.

The histogram (_histogram, which density_grid and a posterior's prior
both call) puts a coordinate c in bin min(floor(fl(c m)), m - 1) of [0, 1]
and drops pairs with a NaN, as numpy's 2-D histogram does but for values
within a rounding of its edges.  Each chunk of pairs is binned as it is
assembled and added under a lock to one table of counts, in any order.
density_grid and log_prior_cells (a posterior's prior) read every exact
grid, and log_prior_cells its histograms too, in log form with its largest
value, from one read-only cache, _log_cells.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .families import FamilySpec, closed_form_logpdf, marginal_params, ratio_axes
from .sampling import Chunks, RngState, pair_blocks
from .serialize import csv_chunks, json_chunks

MIN_ESTIMATED_SAMPLES = 10_000
DEFAULT_GRID_M = 100
DEFAULT_GRID_SAMPLES = 10_000_000


def grid_midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def _pair_cells(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Flat row-major cells of pairs, each axis at min(floor(fl(c m)), m - 1), dropping pairs with a NaN."""
    # a sampled coordinate N/(N+D), with finite N, D >= 0, is in [0, 1] or the NaN of 0/0, which is in no
    # cell; it is dropped before the integer cast, where it would warn
    flat = np.minimum(np.floor(x * m), m - 1) * m + np.minimum(np.floor(y * m), m - 1)  # exact below 2^53
    nan = np.isnan(flat)
    return (flat[~nan] if nan.any() else flat).astype(np.intp)


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

    def csv_chunks(self) -> Iterator[str]:
        """The text of to_csv in strings of whole rows, for writing a large grid without building it whole."""
        return csv_chunks(grid_midpoints(self.m).tolist(), self.cells)

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of to_json in strings, the cells a slice of rows at a time."""
        meta = {
            "variant": self.family.variant if self.family else None,
            "alphas": list(self.family.alphas) if self.family else None,
            "m": self.m,
            "n_samples": self.n_samples,
            "seed": list(self.seed) if self.seed else None,
            "estimated": self.estimated,
        }
        return json_chunks(meta, {"cells": self.cells})

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def _histogram(family: FamilySpec, m: int, n_samples: int, rng: Optional[RngState]) -> np.ndarray:
    """Counts of n_samples draws in the m x m cells of _pair_cells (NaN pairs in none), times m^2 / n_samples."""
    if n_samples < MIN_ESTIMATED_SAMPLES:
        raise ValueError(
            f"{family.variant} needs n_samples >= {MIN_ESTIMATED_SAMPLES} "
            f"for a histogram density, got {n_samples}"
        )
    if rng is None:
        raise ValueError(f"a {family.variant} histogram density needs an RngState")
    counts, lock = np.zeros(m * m, np.intp), threading.Lock()

    def add(lo: int, chunks: Chunks) -> None:
        for x, y in chunks:
            flat = _pair_cells(x, y, m)
            with lock:
                np.add.at(counts, flat, 1)

    for _ in pair_blocks(rng, family, n_samples, add):
        pass
    return counts.reshape(m, m) * (m * m / n_samples)


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
    10^4 samples and an RngState; their histogram bins n_samples draws at
    min(floor(c m), m - 1) on each axis, dropping pairs with a NaN, so it
    estimates the same cell probabilities with no smoothing bandwidth.
    """
    if m < 2:
        raise ValueError(f"grid resolution m must be >= 2, got {m}")
    exact = _log_cells(family, m)
    if exact is not None:
        # max-subtraction before exp keeps sharply concentrated densities
        # from underflowing on every cell
        cells = np.exp(exact.cells - exact.top)
        cells *= (m * m) / cells.sum()
        return DensityGrid(m=m, cells=cells, estimated=False, n_samples=0, family=family)
    cells = _histogram(family, m, n_samples, rng)
    return DensityGrid(m=m, cells=cells, estimated=True, n_samples=n_samples, family=family, seed=rng.identity)


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
    a, axes = family.alphas, ratio_axes(family)
    shared = set(sum(axes[0], ())) & set(sum(axes[1], ()))
    if len(shared) > 1:
        return None
    sides = []  # per axis given U_s: the shape of G, and whether the cells are reversed
    if shared:
        for num, rest in axes:
            others = [i for i in num + rest if i not in shared]
            if len(others) != 1:
                return None
            sides.append((a[others[0]], others[0] in rest))
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
    z_hi = sc.gammainccinv(a_s, _TAIL_MASS)  # under the knee below shape ~7e-20, 0 below ~1e-21
    t_hi = math.log(z_hi) if z_hi > 0.0 else -math.inf
    tau_lo, tau_hi = (t if t > _KNEE else _KNEE - math.log1p(_KNEE - t) for t in (t_lo, t_hi))
    if not -math.inf < tau_lo < tau_hi < math.inf:
        raise ValueError(f"exact cells of {family.label()} have an empty tau range [{tau_lo:g}, {tau_hi:g}]")
    h = min(0.5, (tau_hi - tau_lo) / 16)
    tau = np.arange(tau_lo, tau_hi + h, h)
    # three m x m buffers: the running sum, and the matmul scratch and last rule's grid, which swap; the
    # last grid starts at +inf, so that the first rule never passes the stop test
    acc, grid, prev, total, nodes = np.zeros((m, m)), np.empty((m, m)), np.full((m, m), np.inf), 0.0, 0
    while True:
        for lo in range(0, tau.size, _NODE_CHUNK):
            tk = tau[lo:lo + _NODE_CHUNK]
            t = tk - np.exp(_KNEE - tk)
            x, y = (axis_cells(t, *side) for side in sides)
            # the density of tau up to a constant: U_s's gamma density in t times dt/dtau.  Its log,
            # a_s (t - log a_s) - e^t + a_s, is written in d = t - log a_s, so that the terms of
            # size a_s log a_s cancel exactly: -a_s (expm1(d) - d) <= 0 keeps its digits at any shape
            d = t - math.log(a_s)
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.exp(-a_s * (np.expm1(d) - d) + np.logaddexp(0.0, _KNEE - tk))
                acc += np.matmul((x * w[:, None]).T, y, out=grid)
            total += float(w.sum())
        nodes += tau.size
        if not 0.0 < total < math.inf:
            raise ValueError(f"exact cells of {family.label()} have a total node weight of {total:g}")
        np.divide(acc, total, out=grid)
        if 0.5 * float(np.abs(np.subtract(grid, prev, out=prev), out=prev).sum()) <= _CELL_TV_TOL:
            return grid
        if 2 * nodes > _MAX_NODES:
            raise ValueError(f"exact cells of {family.label()} did not converge within {_MAX_NODES} nodes")
        prev, grid, h = grid, prev, h / 2
        tau = tau_lo + h + 2 * h * np.arange(nodes)  # the midpoints of the previous rule


class LogCells(NamedTuple):
    """A read-only m x m log grid and its largest value, found once when the grid is made."""

    cells: np.ndarray
    top: float


# The exact rules are keyed by (family, m), a histogram by (family, m,
# n_samples, (seed, stream)): posterior re-runs across different data vary
# only through the likelihood.  Bounded so seed sweeps don't accumulate grids.
@lru_cache(maxsize=32)
def _log_cells(
    family: FamilySpec, m: int, n_samples: Optional[int] = None, seed: Optional[Tuple[int, int]] = None
) -> Optional[LogCells]:
    """The log of a family's grid and its max: the exact rule, or None where there is none.

    With n_samples, the log of the histogram of that many draws of
    RngState(*seed); _histogram refuses a missing seed.
    """
    if family.has_closed_form:
        mid = grid_midpoints(m)
        log_cells = closed_form_logpdf(family, mid[:, None], mid[None, :])
    else:
        rng = RngState(*seed) if seed else None
        cells = _cell_masses(family, m) if n_samples is None else _histogram(family, m, n_samples, rng)
        if cells is None:
            return None
        with np.errstate(divide="ignore"):
            log_cells = np.log(cells)
    log_cells.flags.writeable = False
    return LogCells(log_cells, float(log_cells.max()))


def log_prior_cells(family: FamilySpec, m: int, n_samples: int, rng: Optional[RngState]) -> LogCells:
    """Read-only log prior on the m x m grid, up to a constant, and its max, cached.

    Closed forms and exact AN5/AN8 cells (see density_grid) ignore
    n_samples and rng.  Other AN5/AN8 vectors take the log of their
    histogram density, identified by the rng's (seed, stream); its
    generator is not consumed, so one state names one grid.
    """
    exact = _log_cells(family, m)
    return exact if exact is not None else _log_cells(family, m, n_samples, rng and rng.identity)
