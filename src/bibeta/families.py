"""Gamma-ratio bivariate beta families on the unit square.

All families are built from independent unit-scale gamma variates
U_i ~ Gamma(alpha_i):

  OL+ :  (X, Y)      with X = U1/(U1+U3), Y = U2/(U2+U3)
  OL- :  (X, 1-Y)    negative dependence by complementing one coordinate
  OL* :  (1-X, 1-Y)  both coordinates complemented
  AN5 :  X = (U1+U3)/(U1+U3+U4+U5),  Y = (U2+U4)/(U2+U3+U4+U5)
  AN8 :  X = V/(1+V), Y = W/(1+W) with
         V = (U1+U5+U7)/(U3+U6+U8),  W = (U2+U5+U8)/(U4+U6+U7)
  indep: X = U1/(U1+U2), Y = U3/(U3+U4), the no-dependence baseline, with
         alphas (a_x, b_x, a_y, b_y) of its two beta marginals

AN8 contains the OL variants and indep as zero patterns, and these four
have a closed-form joint density; AN5/AN8 do not and are handled by Monte
Carlo histograms (see grids.density_grid).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence, Tuple, Union

import numpy as np

from .special import BetaParams, log_beta

OL_PLUS = "ol-plus"
OL_MINUS = "ol-minus"
OL_STAR = "ol-star"
AN5 = "an5"
AN8 = "an8"
INDEPENDENT = "indep"

_OL_ROLES = ("n-", "-n", "dd")
_NO_FLIP = (False, False)

# The constructions above in machine form, from which marginals, sampling,
# the OL closed form, the AN8 embedding and complementation are all read:
# variant -> (roles, flip).  Each gamma component has a two-letter role, its
# role in X then in Y: n numerator, d rest of the denominator, - absent.
# flip marks the coordinates complemented afterwards.  The independent
# variant's components are (a_x, b_x, a_y, b_y) of its two beta marginals.
STRUCTURE = {
    OL_PLUS: (_OL_ROLES, _NO_FLIP),
    OL_MINUS: (_OL_ROLES, (False, True)),
    OL_STAR: (_OL_ROLES, (True, True)),
    AN5: (("n-", "-n", "nd", "dn", "dd"), _NO_FLIP),
    AN8: (("n-", "-n", "d-", "-d", "nn", "dd", "nd", "dn"), _NO_FLIP),
    INDEPENDENT: (("n-", "d-", "-n", "-d"), _NO_FLIP),
}

VARIANTS = frozenset(STRUCTURE)
OL_VARIANTS = frozenset({OL_PLUS, OL_MINUS, OL_STAR})
CLOSED_FORM_VARIANTS = frozenset({OL_PLUS, OL_MINUS, OL_STAR, INDEPENDENT})

# coordinates complemented by each ``which`` of complement()
_WHICH = {"x": (True, False), "y": (False, True), "both": (True, True)}


class NotClosedError(ValueError):
    """Raised when a family is not closed under the requested complementation."""


@dataclass(frozen=True)
class FamilySpec:
    """One bivariate family: a variant tag plus the gamma shapes of its
    components, in the order STRUCTURE lists their roles."""

    variant: str
    alphas: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown family variant {self.variant!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        n = len(STRUCTURE[self.variant][0])
        if len(self.alphas) != n:
            raise ValueError(f"{self.variant} needs {n} alphas, got {len(self.alphas)}")
        if any(a < 0 or not math.isfinite(a) for a in self.alphas):
            raise ValueError(f"alphas must be finite and nonnegative, got {self.alphas}")
        if self.variant in OL_VARIANTS and any(a <= 0 for a in self.alphas):
            raise ValueError(f"{self.variant} needs strictly positive alphas, got {self.alphas}")
        # marginal_params validates positivity of every aggregate shape
        marginal_params(self)

    @classmethod
    def ol_plus(cls, a1: float, a2: float, a3: float) -> "FamilySpec":
        return cls(OL_PLUS, (a1, a2, a3))

    @classmethod
    def ol_minus(cls, a1: float, a2: float, a3: float) -> "FamilySpec":
        return cls(OL_MINUS, (a1, a2, a3))

    @classmethod
    def ol_star(cls, a1: float, a2: float, a3: float) -> "FamilySpec":
        return cls(OL_STAR, (a1, a2, a3))

    @classmethod
    def an5(cls, *alphas: float) -> "FamilySpec":
        return cls(AN5, tuple(alphas))

    @classmethod
    def an8(cls, *alphas: float) -> "FamilySpec":
        return cls(AN8, tuple(alphas))

    @classmethod
    def independent(cls, beta_x: BetaParams, beta_y: BetaParams) -> "FamilySpec":
        return cls(INDEPENDENT, (beta_x.a, beta_x.b, beta_y.a, beta_y.b))

    @property
    def has_closed_form(self) -> bool:
        return self.variant in CLOSED_FORM_VARIANTS

    def label(self) -> str:
        body = ",".join(f"{a:g}" for a in self.alphas)
        return f"{self.variant}({body})"


@lru_cache(maxsize=None)
def ratio_axes(variant: str) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], bool], ...]:
    """Per coordinate: numerator indices, rest-of-denominator indices, complemented.

    Coordinate k is sum(U[num]) / (sum(U[num]) + sum(U[rest])), replaced by
    one minus that when complemented.
    """
    roles, flip = STRUCTURE[variant]
    return tuple(
        (
            tuple(i for i, r in enumerate(roles) if r[axis] == "n"),
            tuple(i for i, r in enumerate(roles) if r[axis] == "d"),
            flipped,
        )
        for axis, flipped in enumerate(flip)
    )


def marginal_params(family: FamilySpec) -> Tuple[BetaParams, BetaParams]:
    """Exact beta parameters of the two marginals.

    Sum the shapes of each coordinate's numerator and rest-of-denominator
    components; complemented coordinates swap (a, b).  Both sums must be
    positive, so every axis keeps a nonzero-shape numerator and rest.
    """
    shapes = family.alphas
    out = []
    for num, rest, flipped in ratio_axes(family.variant):
        a = reduce(operator.add, (shapes[i] for i in num))
        b = reduce(operator.add, (shapes[i] for i in rest))
        out.append(BetaParams(b, a) if flipped else BetaParams(a, b))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Exact product moment
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_TAIL = 45.0  # e^-45 < 1e-19: the integrand beyond the node range is below rounding
_MAX_CELLS = 1 << 20  # nodes per half quadrant; bounds the memory of the finest rule


def _de_nodes(h: float, top: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes k h from u = -4 until u -> pi/2 sinh u passes top: the map and its derivative."""
    u = np.arange(math.floor(-4.0 / h), math.ceil(math.asinh(top / _HALF_PI) / h) + 1) * h
    return _HALF_PI * np.sinh(u), _HALF_PI * np.cosh(u)


def product_moment(family: FamilySpec) -> Tuple[float, float]:
    """E[XY] and its absolute error, by double-exponential quadrature.

    1/D = int_0^inf e^{-sD} ds turns E[N_x N_y / (D_x D_y)] into int int
    prod_i (1+c_i)^-a_i (A_x A_y + B) ds dt: c_i is s, t or s+t as U_i sits
    in D_x, D_y or both, A sums a_i/(1+c_i) over a coordinate's numerator
    and B sums a_i/(1+c_i)^2 over the numerator both share.  log(1+s+t)
    bends on s = t, so each half of the quadrant has nodes on log(smaller)
    and log(larger/smaller) > 0, never across the bend.  The step halves
    until two rules agree to 1e-10 relative; their difference, floored at
    rounding, is the error.
    """
    a = family.alphas
    (num_x, rest_x, flip_x), (num_y, rest_y, flip_y) = ratio_axes(family.variant)
    # 1 - N/(N+R) = R/(N+R): a complemented coordinate's numerator is its rest
    nx, ny = set(rest_x if flip_x else num_x), set(rest_y if flip_y else num_y)
    dx, dy = set(num_x + rest_x), set(num_y + rest_y)

    def total(idx) -> float:
        return sum(a[i] for i in sorted(idx))

    # for the smaller variable of each half (x, then y): shape in its denominator
    # only, numerator shape there only, numerator shape in both denominators
    lo = np.array([[total(dx - dy), total(dy - dx)], [total(nx - dy), total(ny - dx)],
                   [total(nx & dy), total(ny & dx)]])[..., None, None]
    hi, both, shared = lo[:, ::-1], total(dx & dy), total(nx & ny)
    h, prev = 0.5, None
    while True:
        sig, d_sig = _de_nodes(h, _TAIL / sum(a))
        g, d_g = _de_nodes(h, _TAIL + _TAIL / min(total(dx), total(dy)))
        if sig.size * g.size > _MAX_CELLS:
            raise ValueError(f"product_moment did not converge for {family.label()}")
        # gap = log(larger/smaller) = softplus(g): double-exponential near 0, like sig beyond
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
        )  # the Jacobian s t rides on s A_x, t A_y and s t B
        e_xy = h * h * float(np.sum(f * (d_sig * d_gap)))
        if prev is not None and abs(e_xy - prev) <= 1e-10 * e_xy:
            break
        h, prev = h / 2, e_xy
    return e_xy, max(abs(e_xy - prev), 2.0**-50 * e_xy)  # summing rounds to ~2^-52 e_xy


# ---------------------------------------------------------------------------
# Closed-form OL densities
# ---------------------------------------------------------------------------

ArrayLike = Union[float, np.ndarray]


def _ol_minus_logpdf(eta: ArrayLike, theta: ArrayLike, a1: float, a2: float, a3: float) -> ArrayLike:
    # eta^(a1-1) (1-eta)^(a2+a3-1) theta^(a1+a3-1) (1-theta)^(a2-1)
    #   / [1 - eta (1-theta)]^(a1+a2+a3), normalized by
    # Gamma(a1+a2+a3)/(Gamma(a1)Gamma(a2)Gamma(a3)).  The published density is
    # stated only up to proportionality; the constant follows from integrating
    # the shared gamma denominator out of the construction and is pinned by the
    # quadrature normalization tests.
    return (
        math.lgamma(a1 + a2 + a3) - math.lgamma(a1) - math.lgamma(a2) - math.lgamma(a3)
        + (a1 - 1.0) * np.log(eta)
        + (a2 + a3 - 1.0) * np.log1p(-eta)
        + (a1 + a3 - 1.0) * np.log(theta)
        + (a2 - 1.0) * np.log1p(-theta)
        - (a1 + a2 + a3) * np.log1p(-eta * (1.0 - theta))
    )


def closed_form_logpdf(family: FamilySpec, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Vectorized log joint density for the closed-form variants.

    Arguments must lie strictly inside the unit square.  Raises for AN5/AN8,
    whose joint density has no closed form.  Every OL variant is the OL-
    density evaluated with the coordinates complemented where its flips
    differ from those of OL-.
    """
    v = family.variant
    if v == INDEPENDENT:
        px, py = marginal_params(family)
        return (
            (px.a - 1.0) * np.log(x)
            + (px.b - 1.0) * np.log1p(-x)
            - log_beta(px.a, px.b)
            + (py.a - 1.0) * np.log(y)
            + (py.b - 1.0) * np.log1p(-y)
            - log_beta(py.a, py.b)
        )
    if v not in OL_VARIANTS:
        raise ValueError(f"{v} has no closed-form joint density")
    flip_x, flip_y = (f != g for f, g in zip(STRUCTURE[v][1], STRUCTURE[OL_MINUS][1]))
    if flip_x:
        x = 1.0 - np.asarray(x, dtype=float)
    if flip_y:
        y = 1.0 - np.asarray(y, dtype=float)
    return _ol_minus_logpdf(x, y, *family.alphas)


# ---------------------------------------------------------------------------
# Closure under complementation
# ---------------------------------------------------------------------------

_SWAP_ND = str.maketrans("nd", "dn")


def _an8_slots(roles: Sequence[str], flip: Tuple[bool, bool]) -> Tuple[int, ...]:
    """The AN8 index each component of a (roles, flip) description lands on.

    Complementing a coordinate exchanges its numerator and rest of the
    denominator (1 - N/(N+D) = D/(N+D)), so a component takes the AN8 slot
    whose role is its own with n and d swapped on every flipped axis.
    """
    an8_roles = STRUCTURE[AN8][0]
    return tuple(
        an8_roles.index("".join(c.translate(_SWAP_ND) if f else c for c, f in zip(role, flip)))
        for role in roles
    )


def _an8_vector(alphas: Sequence[float], slots: Sequence[int]) -> Tuple[float, ...]:
    vec = [0.0] * len(STRUCTURE[AN8][0])
    for slot, value in zip(slots, alphas):
        vec[slot] = value
    return tuple(vec)


def an8_embedding(family: FamilySpec) -> FamilySpec:
    """The AN8 spec equal in law to an OL variant or indep (an AN8 passes through)."""
    if family.variant == AN8:
        return family
    if family.variant == AN5:
        raise ValueError(f"no AN8 embedding for variant {family.variant}")
    return FamilySpec(AN8, _an8_vector(family.alphas, _an8_slots(*STRUCTURE[family.variant])))


def complement(family: FamilySpec, which: str) -> FamilySpec:
    """The FamilySpec whose law is that of the complemented pair.

    ``which`` selects the complemented coordinate(s): "x", "y" or "both".
    They are toggled in the family's flip pair, and the result is placed in
    AN8, which is closed under every complementation.  An AN8 vector whose
    support matches an OL or indep embedding is lowered back to that
    variant, so OL variants relabel in place where the three-variant
    taxonomy allows it, indep swaps the affected marginal's (a, b), and
    double complementation is an exact involution; the (1-X, Y)-type laws,
    which are not OL variants in this coordinate convention, stay in AN8.
    AN5 is not closed and raises.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be 'x', 'y' or 'both', got {which!r}")
    v = family.variant
    if v == AN5:
        raise NotClosedError("the AN5 family is not closed under complementation")
    roles, flip = STRUCTURE[v]
    flip = (flip[0] != _WHICH[which][0], flip[1] != _WHICH[which][1])
    vec = _an8_vector(family.alphas, _an8_slots(roles, flip))
    support = {i for i, a in enumerate(vec) if a != 0.0}
    for variant in (OL_PLUS, OL_MINUS, OL_STAR, INDEPENDENT):
        slots = _an8_slots(*STRUCTURE[variant])
        if support == set(slots):
            return FamilySpec(variant, tuple(vec[i] for i in slots))
    return FamilySpec(AN8, vec)
