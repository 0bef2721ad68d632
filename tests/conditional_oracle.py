"""A conditional oracle for grid posteriors under priors with at most one shared live gamma component.

Under such a prior (indep and the OL variants) each coordinate is G/(G+u) or
u/(G+u), with G a Gamma draw of its own and U = u the shared component or,
for indep, the rest of the coordinate's own denominator.  Given U = u the two
coordinates are independent, so every posterior moment is a sum over a
uniform grid in log u of products of one-dimensional sums over a uniform
grid in log g.  Both integrands are smooth and vanish at both ends of their
ranges, so the sums converge faster than any power of the step.  The logs
are formed with softplus and the constants with math.lgamma: no scipy, and
no bibeta grid.

The ranges, log u and log g in [-24, 6] at a step of 0.04, leave out under
1e-14 of the mass for shapes of 2.5 to 10 and n up to 10^3 at any split: a
component whose posterior share is about 1/n has a lower tail that falls as
u^shape.  Smaller shapes or a larger n need ranges centred on the
posterior's Laplace point.
"""

import math
from typing import NamedTuple

import numpy as np

from bibeta.families import FamilySpec, ratio_axes

LOG_RANGE = (-24.0, 6.0)
STEP = 0.04


class Moments(NamedTuple):
    mean_eta: float
    mean_theta: float
    var_eta: float
    var_theta: float
    correlation: float


def _log_gamma_density(t: np.ndarray, shape: float) -> np.ndarray:
    """The log density of t = log G for G ~ Gamma(shape)."""
    return shape * t - np.exp(t) - math.lgamma(shape)


def conditional_posterior(family: FamilySpec, d) -> Moments:
    """The posterior moments of (eta, theta) given the counts d (n1, k1, n2, k2) under the prior family.

    A family out of scope, with two shared components or two others on a coordinate, fails to unpack.
    """
    axes, a = ratio_axes(family), family.alphas
    shared = set(sum(axes[0], ())) & set(sum(axes[1], ()))
    t = np.arange(LOG_RANGE[0], LOG_RANGE[1] + STEP / 2, STEP)
    log_ratio = t[:, None] - t[None, :]  # log(u / g), u down the rows and g along them
    log_g_share, log_u_share = -np.logaddexp(0.0, log_ratio), -np.logaddexp(0.0, -log_ratio)
    weights, coords, tops = [], [], []
    for (num, rest), k, n in zip(axes, (d.k1, d.k2), (d.n1, d.n2)):
        (u,) = shared or rest
        (g,) = [i for i in num + rest if i != u]
        log_c, log_rest = (log_u_share, log_g_share) if u in num else (log_g_share, log_u_share)
        log_w = _log_gamma_density(t, a[g]) + k * log_c + (n - k) * log_rest
        if not shared:
            log_w += _log_gamma_density(t, a[u])[:, None]
        top = log_w.max(axis=1)
        weights.append(np.exp(log_w - top[:, None]))
        coords.append(np.exp(log_c))
        tops.append(top)
    if shared:
        (s,) = shared
        log_p = _log_gamma_density(t, a[s]) + tops[0] + tops[1]
        p = np.diag(np.exp(log_p - log_p.max()))  # both coordinates see one u
    else:
        p = np.outer(*(np.exp(top - top.max()) for top in tops))  # each coordinate has its own u
    p /= weights[0].sum(axis=1) @ p @ weights[1].sum(axis=1)

    def expect(fx, fy) -> float:
        """The posterior mean of fx(eta) fy(theta), each given on the (u, g) nodes of its coordinate."""
        return float((weights[0] * fx).sum(axis=1) @ p @ (weights[1] * fy).sum(axis=1))

    mean_eta, mean_theta = expect(coords[0], 1.0), expect(1.0, coords[1])
    d_eta, d_theta = coords[0] - mean_eta, coords[1] - mean_theta
    var_eta, var_theta = expect(d_eta**2, 1.0), expect(1.0, d_theta**2)
    return Moments(mean_eta, mean_theta, var_eta, var_theta, expect(d_eta, d_theta) / math.sqrt(var_eta * var_theta))
