"""The earlier form of families.product_moment, kept as a test oracle.

It evaluates every rule afresh, over the node range ceil puts past each
rule's top, and forms each log with np.logaddexp on the whole node grid.
The package's rule nests its rules, evaluates each node once and forms the
logs with its vector softplus; tests compare the two within their reported
errors.
"""

import math

import numpy as np

from bibeta.families import _HALF_PI, _MAX_CELLS, _TAIL, FamilySpec, _total, ratio_axes


def _de_nodes(h, top):
    u = np.arange(math.floor(-4.0 / h), math.ceil(math.asinh(top / _HALF_PI) / h) + 1) * h
    return _HALF_PI * np.sinh(u), _HALF_PI * np.cosh(u)


def product_moment(family: FamilySpec):
    """E[XY] and its absolute error, as families.product_moment defines them."""
    a = family.alphas
    (num_x, rest_x), (num_y, rest_y) = ratio_axes(family)
    nx, ny = set(num_x), set(num_y)
    dx, dy = set(num_x + rest_x), set(num_y + rest_y)
    lo = np.array([[_total(a, dx - dy), _total(a, dy - dx)], [_total(a, nx - dy), _total(a, ny - dx)],
                   [_total(a, nx & dy), _total(a, ny & dx)]])[..., None, None]
    hi, both, shared = lo[:, ::-1], _total(a, dx & dy), _total(a, nx & ny)
    h, prev = 0.5, np.inf
    while True:
        sig, d_sig = _de_nodes(h, _TAIL / sum(a))
        g, d_g = _de_nodes(h, _TAIL + _TAIL / min(_total(a, dx), _total(a, dy)))
        if sig.size * g.size > _MAX_CELLS:
            raise ValueError(f"product_moment did not converge for {family.label()}")
        gap = np.logaddexp(0.0, g)
        d_gap = d_g * np.exp(g - gap)
        sig, d_sig = sig[:, None], d_sig[:, None]
        tau = sig + gap
        l_lo, l_hi = np.logaddexp(0.0, sig), np.logaddexp(0.0, tau)
        l_both = np.logaddexp(l_hi, sig)
        f = np.exp(-(lo[0] * l_lo + hi[0] * l_hi + both * l_both)) * (
            (lo[1] * np.exp(sig - l_lo) + lo[2] * np.exp(sig - l_both))
            * (hi[1] * np.exp(tau - l_hi) + hi[2] * np.exp(tau - l_both))
            + shared * np.exp(sig + tau - 2.0 * l_both)
        )
        f *= d_sig * d_gap
        e_xy, halves = h * h * float(np.sum(f)), h * h * f.sum(axis=(1, 2))
        err = float(np.abs(halves - prev).sum())
        if err <= 1e-10 * e_xy:
            break
        h, prev = h / 2, halves
    return e_xy, max(err, 2.0**-50 * e_xy)
