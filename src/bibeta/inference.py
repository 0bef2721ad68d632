"""Grid-based Bayesian inference for screening-test sensitivity and specificity.

The data d = (n, n1, k1, k2) come from giving all n subjects a confirmatory
test (n1 positives) and then the screening test (k1 true positives among the
n1, k2 true negatives among the n - n1).  Conditional on (pi, eta, theta) the
likelihood is a product of three binomials; pi factors out and stays
conjugate, while (eta, theta) get an m x m grid posterior under a joint
prior from the bivariate families.

One wrinkle inherited from the source model: the (1-theta) exponent is
n - n1 - k2, the count of screen-positive healthy subjects, which follows
from Binomial(n - n1, theta) for k2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterator, Optional, Tuple

import numpy as np

from .families import FamilySpec
from .grids import DEFAULT_GRID_M, DEFAULT_GRID_SAMPLES, LogCells, grid_midpoints, log_prior_cells
from .sampling import RngState
from .special import BetaParams
from .serialize import csv_chunks, json_chunks


class DegeneratePosteriorError(RuntimeError):
    """Every grid cell has zero posterior weight (prior and likelihood disjoint)."""


@dataclass(frozen=True)
class DiagnosticData:
    """Observed counts from the confirmatory + screening test design."""

    n: int
    n1: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        ok = (
            0 <= self.n1 <= self.n
            and 0 <= self.k1 <= self.n1
            and 0 <= self.k2 <= self.n - self.n1
        )
        if not ok:
            raise ValueError(
                f"inconsistent diagnostic data (n={self.n}, n1={self.n1}, k1={self.k1}, k2={self.k2})"
            )

    @property
    def n2(self) -> int:
        return self.n - self.n1


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior on (eta, theta) plus an independent beta prior on pi."""

    eta_theta_prior: FamilySpec
    pi_prior: BetaParams


@dataclass(frozen=True)
class PosteriorSummary:
    mean_eta: float
    mean_theta: float
    mode_cell: Tuple[int, int]
    correlation: float


@dataclass(frozen=True)
class GridPosterior:
    """Normalized m x m posterior weights; rows index eta, columns theta."""

    m: int
    weights: np.ndarray
    eta_axis: np.ndarray
    theta_axis: np.ndarray
    prior: PriorSpec
    data: DiagnosticData

    @cached_property
    def marginals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only marginal masses of eta (row sums) and theta (column sums), summed on first use."""
        pe, pt = self.weights.sum(axis=1), self.weights.sum(axis=0)
        pe.flags.writeable = pt.flags.writeable = False
        return pe, pt

    def csv_chunks(self) -> Iterator[str]:
        """The text of to_csv in strings of whole rows, for writing a large grid without building it whole."""
        return csv_chunks(self.theta_axis.tolist(), self.weights)

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())

    def json_chunks(self, seed: Optional[Tuple[int, int]] = None) -> Iterator[str]:
        """The text of to_json in strings, the weights a slice of rows at a time."""
        prior, family = self.prior, self.prior.eta_theta_prior
        meta = {
            "m": self.m,
            "data": asdict(self.data),
            "prior_variant": family.variant,
            "prior_alphas": list(family.alphas),
            "pi_prior": [prior.pi_prior.a, prior.pi_prior.b],
            "seed": list(seed) if seed else None,
        }
        data = {
            "eta_axis": self.eta_axis,
            "theta_axis": self.theta_axis,
            "weights": self.weights,
        }
        return json_chunks(meta, data)

    def to_json(self, seed: Optional[Tuple[int, int]] = None) -> str:
        return "".join(self.json_chunks(seed))


def pi_posterior(d: DiagnosticData, prior: BetaParams) -> BetaParams:
    """Exact conjugate update: B(a + n1, b + n - n1)."""
    return BetaParams(prior.a + d.n1, prior.b + d.n2)


# exp(x) is exactly +0.0 below about -745.13
_ZERO_GAP = 760.0


def _nonzero_window(log_eta: np.ndarray, log_theta: np.ndarray, prior: LogCells) -> Tuple[slice, slice]:
    """Rows and columns outside which every posterior weight is exactly +0.0; see joint_posterior."""
    i, j = int(np.argmax(log_eta)), int(np.argmax(log_theta))
    floor = log_eta[i] + log_theta[j] + prior.cells[i, j]
    if not np.isfinite(floor):
        return slice(None), slice(None)
    # negated, so that a NaN bound keeps its line
    rows, cols = (np.flatnonzero(~((own + other) + prior.top - floor < -_ZERO_GAP))
                  for own, other in ((log_eta, log_theta[j]), (log_theta, log_eta[i])))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def joint_posterior(
    d: DiagnosticData,
    prior: PriorSpec,
    m: int = DEFAULT_GRID_M,
    rng: Optional[RngState] = None,
    prior_samples: int = DEFAULT_GRID_SAMPLES,
) -> GridPosterior:
    """Grid posterior of (eta, theta) with pi profiled out by conjugacy.

    Cell (i, j) holds the likelihood in (eta, theta) at the midpoints times
    the prior of the cell, normalized to sum to one.  The prior comes from
    grids.log_prior_cells, which caches it with its max: exact priors per
    (family, m), AN5/AN8 histograms per (family, m, prior_samples) and the
    rng's (seed, stream), the grid density_grid makes of them; rng is not
    advanced.  All arithmetic runs in log space with a single max
    subtraction: at n ~ 100 the linear-space likelihood underflows.

    Only a window is computed.  With (i, j) the argmax of the two likelihood
    factors, the peak is at least the log weight of cell (i, j), and as
    rounding is monotone no log weight in row r exceeds (log_eta[r] +
    log_theta[j]) + the prior's max in floating point.  A row whose bound is
    more than _ZERO_GAP under cell (i, j), and likewise a column, holds only
    cells that exp makes +0.0, so it is left at zero in a zero-filled grid
    normalized by its full sum.  The cells inside are computed as on the
    whole grid: the weights are the whole grid's bit for bit, subnormals
    included.  A non-finite cell (i, j) bounds nothing, and the window is
    the whole grid; at large n it is a few cells around the peak.
    """
    if m < 10:
        raise ValueError(f"posterior grid needs m >= 10, got {m}")
    mid = grid_midpoints(m)
    log_eta = d.k1 * np.log(mid) + (d.n1 - d.k1) * np.log1p(-mid)
    log_theta = d.k2 * np.log(mid) + (d.n2 - d.k2) * np.log1p(-mid)
    log_prior = log_prior_cells(prior.eta_theta_prior, m, prior_samples, rng)
    rows, cols = _nonzero_window(log_eta, log_theta, log_prior)
    w = np.zeros((m, m))
    # in place, in the order (log_eta + log_theta) + prior - peak
    log_w = w[rows, cols]
    np.add(log_eta[rows, None], log_theta[None, cols], out=log_w)
    log_w += log_prior.cells[rows, cols]
    peak = log_w.max()
    if not np.isfinite(peak):
        raise DegeneratePosteriorError("posterior weights vanish on every grid cell")
    log_w -= peak
    np.exp(log_w, out=log_w)
    log_w /= w.sum()
    return GridPosterior(
        m=m, weights=w, eta_axis=mid, theta_axis=mid, prior=prior, data=d
    )


def marginal_posterior(gp: GridPosterior, coord: str) -> np.ndarray:
    """Marginal posterior masses of eta (row sums) or theta (column sums), as a fresh array."""
    if coord == "eta":
        return gp.marginals[0].copy()
    if coord == "theta":
        return gp.marginals[1].copy()
    raise ValueError(f"coord must be 'eta' or 'theta', got {coord!r}")


def marginal_csv(gp: GridPosterior, coord: str) -> str:
    axis = gp.eta_axis if coord == "eta" else gp.theta_axis
    masses = marginal_posterior(gp, coord)
    return "".join(csv_chunks(["coordinate", "probability"], np.column_stack((axis, masses))))


def _marginal_means(gp: GridPosterior) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """Marginal masses of eta and theta, and their posterior means."""
    pe, pt = gp.marginals
    return pe, pt, float(pe @ gp.eta_axis), float(pt @ gp.theta_axis)


def posterior_summary(gp: GridPosterior) -> PosteriorSummary:
    """Grid-weighted means, argmax cell and Pearson correlation.

    The variances and the covariance are sums about the means: E[x^2] -
    mean^2 cancels to rounding noise when the posterior is narrow.  Argmax
    ties break toward the smaller (i, j) lexicographically.  A grid
    concentrated on a single cell has no correlation; 0 is reported.
    """
    w = gp.weights
    pe, pt, mean_eta, mean_theta = _marginal_means(gp)
    d_eta, d_theta = gp.eta_axis - mean_eta, gp.theta_axis - mean_theta
    var_eta, var_theta = float(pe @ d_eta**2), float(pt @ d_theta**2)
    flat = int(np.argmax(w))
    mode = (flat // gp.m, flat % gp.m)
    if var_eta <= 0.0 or var_theta <= 0.0:
        corr = 0.0
    else:
        # the product of two tiny variances can underflow to 0.0; the product of their roots does not
        scale = math.sqrt(var_eta * var_theta) or math.sqrt(var_eta) * math.sqrt(var_theta)
        corr = float(d_eta @ w @ d_theta) / scale
    return PosteriorSummary(mean_eta, mean_theta, mode, corr)


def predictive_values(pi: float, eta: float, theta: float) -> Tuple[float, float]:
    """Predictive values of a positive / negative screen under the probability
    interpretation:

        Lambda = eta pi / (eta pi + (1-theta)(1-pi))
        Psi    = theta (1-pi) / (theta (1-pi) + (1-eta) pi)
    """
    for name, value in (("pi", pi), ("eta", eta), ("theta", theta)):
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    lam = eta * pi / (eta * pi + (1.0 - theta) * (1.0 - pi))
    psi = theta * (1.0 - pi) / (theta * (1.0 - pi) + (1.0 - eta) * pi)
    return lam, psi


def predictive_propensity(
    gp: GridPosterior, pi_star: Optional[float] = None
) -> Tuple[float, float]:
    """Posterior predictive disease probabilities under the propensity reading.

    pi stays conjugate and independent of (eta, theta) a posteriori, so these
    are predictive_values at pi_star and the posterior means of eta and
    theta.  pi_star defaults to the posterior mean of the disease prevalence.
    """
    if pi_star is None:
        pi_star = pi_posterior(gp.data, gp.prior.pi_prior).mean
    if not (0.0 < pi_star < 1.0):
        raise ValueError(f"pi_star must lie in (0, 1), got {pi_star}")
    _, _, mean_eta, mean_theta = _marginal_means(gp)
    return predictive_values(pi_star, mean_eta, mean_theta)
