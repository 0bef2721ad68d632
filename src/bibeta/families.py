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

AN8 contains the OL variants, indep and AN5 as zero patterns (see
an8_embedding).  The OL variants and indep have a closed-form joint
density; AN5/AN8 do not and get exact cell probabilities or Monte Carlo
histograms (see grids.density_grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .special import BetaParams, log_beta

OL_PLUS = "ol-plus"
OL_MINUS = "ol-minus"
OL_STAR = "ol-star"
AN5 = "an5"
AN8 = "an8"
INDEPENDENT = "indep"

# The constructions above in machine form, from which marginals, sampling,
# the OL closed form, the AN8 embedding and complementation are all read:
# variant -> roles.  Each gamma component has a two-letter role, its role in
# X then in Y: n numerator, d rest of the denominator, - absent.  A
# complemented coordinate is written with n and d exchanged, since
# 1 - N/(N+D) = D/(N+D): OL- is OL+ with Y's roles exchanged, OL* with both.
# The independent variant's components are (a_x, b_x, a_y, b_y) of its two
# beta marginals.
STRUCTURE = {
    OL_PLUS: ("n-", "-n", "dd"),
    OL_MINUS: ("n-", "-d", "dn"),
    OL_STAR: ("d-", "-d", "nn"),
    AN5: ("n-", "-n", "nd", "dn", "dd"),
    AN8: ("n-", "-n", "d-", "-d", "nn", "dd", "nd", "dn"),
    INDEPENDENT: ("n-", "d-", "-n", "-d"),
}

VARIANTS = frozenset(STRUCTURE)
CLOSED_FORM_VARIANTS = frozenset({OL_PLUS, OL_MINUS, OL_STAR, INDEPENDENT})

# Nonzero shapes lie in [MIN_SHAPE, MAX_SHAPE]: subnormal shapes make gamma
# draws NaN, and near 2.6e305 lgamma overflows.  No sum of eight shapes overflows.
MIN_SHAPE, MAX_SHAPE = 1e-300, 1e300

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
        # + 0.0 turns -0.0 into +0.0, so that equal specs write equal bytes
        object.__setattr__(self, "alphas", tuple(float(a) + 0.0 for a in self.alphas))
        n = len(STRUCTURE[self.variant])
        if len(self.alphas) != n:
            raise ValueError(f"{self.variant} needs {n} alphas, got {len(self.alphas)}")
        if not all(a == 0.0 or MIN_SHAPE <= a <= MAX_SHAPE for a in self.alphas):
            raise ValueError(
                f"{self.variant} shapes must be finite, 0 or in [{MIN_SHAPE}, {MAX_SHAPE}], got {self.alphas}"
            )
        if not all(num and rest for num, rest in ratio_axes(self)):
            raise ValueError(f"{self.variant} needs a live numerator and rest on each axis, got {self.alphas}")

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


def ratio_axes(family: FamilySpec) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """Per coordinate: the indices of its live (nonzero-shape) numerator and rest of the denominator.

    Coordinate k is sum(U[num]) / (sum(U[num]) + sum(U[rest])) for every
    variant, complemented ones included (STRUCTURE writes those with n and d
    exchanged).  A zero shape is absent.
    """
    roles, shapes = STRUCTURE[family.variant], family.alphas
    return tuple(
        tuple(tuple(i for i, r in enumerate(roles) if r[axis] == side and shapes[i] > 0.0) for side in "nd")
        for axis in (0, 1)
    )


def _total(shapes: Sequence[float], idx: Iterable[int]) -> float:
    """The shapes at idx added one at a time in index order (sum() compensates from Python 3.12)."""
    total = 0.0
    for i in sorted(idx):
        total += shapes[i]
    return total


def marginal_params(family: FamilySpec) -> Tuple[BetaParams, BetaParams]:
    """Exact beta parameters of the two marginals: per coordinate, the
    summed shapes of its numerator and of the rest of its denominator."""
    x, y = (BetaParams(_total(family.alphas, num), _total(family.alphas, rest)) for num, rest in ratio_axes(family))
    return x, y


# ---------------------------------------------------------------------------
# Exact product moment
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_TAIL = 45.0  # e^-45 < 1e-19: the integrand beyond the node range is below rounding
_MAX_CELLS = 1 << 20  # nodes per half quadrant; bounds the work of the finest rule
_BLOCK = 1 << 14  # nodes evaluated at once: their ten temporaries stay in a core's 2 MB L2 cache


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|), in numpy's vector exp and log1p.

    np.logaddexp is a scalar loop, some 30 times slower per element than np.exp.
    log1p, not log(1 + .): product_moment multiplies each log by a shape, and
    log(1 + .) errs by an ulp of 1 however small the log, which at a shape of
    1e6 is 1e-10 of the integrand; log1p errs by an ulp of the log.
    """
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def _de_nodes(h: float, u_hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes u = k h from -4 to u_hi: the map u -> pi/2 sinh u and its derivative."""
    u = np.arange(round(-4.0 / h), round(u_hi / h) + 1) * h
    return _HALF_PI * np.sinh(u), _HALF_PI * np.cosh(u)


def _node_sums(coef: tuple, sig: np.ndarray, d_sig: np.ndarray, g: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Per half of the quadrant, the integrand of product_moment summed over the nodes sig x g,
    in blocks of rows of at most _BLOCK nodes."""
    # gap = log(larger/smaller) = softplus(g): double-exponential near 0, like sig beyond
    gap = _softplus(g)
    d_gap = d_g * np.exp(g - gap)
    rows = max(1, _BLOCK // g.size)
    return sum(_block_sums(coef, sig[i:i + rows], d_sig[i:i + rows], gap, d_gap) for i in range(0, sig.size, rows))


def _block_sums(coef: tuple, sig: np.ndarray, d_sig: np.ndarray, gap: np.ndarray, d_gap: np.ndarray) -> np.ndarray:
    """_node_sums of one block.

    With s = e^sig, t = e^tau and the coefficients of product_moment, one half's integrand is
    (1+s)^-lo0 (1+t)^-hi0 (1+s+t)^-both ((lo1 s_lo + lo2 s_both)(hi1 t_hi + hi2 t_both) + shared s_both t_both)
    times d_sig d_gap, where s_lo = s/(1+s), t_hi = t/(1+t), s_both = s/(1+s+t) and t_both = t/(1+s+t):
    the Jacobian s t of ds dt rides on their numerators.  A row's factors are applied once per row,
    d_gap rides on t_hi and t_both, and terms with a zero coefficient are skipped.
    """
    lo, hi, both, shared = coef
    l_lo = _softplus(sig)
    s_lo = np.exp(sig - l_lo)
    col = sig[:, None]
    tau = col + gap
    l_hi = _softplus(tau)
    t_hi = np.subtract(tau, l_hi, out=tau)
    np.exp(t_hi, out=t_hi)
    t_hi *= d_gap
    mixed = lo[2].any() or shared  # some numerator sits in both denominators
    if both:
        r = np.subtract(col, l_hi)
        np.exp(r, out=r)  # s/(1+t)
        l_both = np.log1p(r)
        l_both += l_hi  # log(1+s+t) = l_hi + softplus(sig - l_hi), where sig < l_hi
        l_both *= both
        if mixed:
            t_both = np.add(r, 1.0)
            np.reciprocal(t_both, out=t_both)  # (1+t)/(1+s+t)
            s_both = r
            s_both *= t_both
            t_both *= t_hi
            st = shared * s_both * t_both if shared else None
    sums = np.empty(2)
    w, q = np.empty_like(l_hi), np.empty_like(l_hi)
    p = np.empty_like(l_hi) if mixed else None
    for k in range(2):
        row = np.exp(-lo[0, k] * l_lo) * d_sig
        np.multiply(-hi[0, k], l_hi, out=w)
        if both:
            w -= l_both
        np.exp(w, out=w)
        np.multiply(hi[1, k], t_hi, out=q)
        if hi[2, k]:
            q += np.multiply(hi[2, k], t_both, out=p)
        if lo[2, k]:
            np.multiply(lo[2, k], s_both, out=p)
            p += (lo[1, k] * s_lo)[:, None]
            q *= p
        else:
            row *= lo[1, k] * s_lo
        if shared:
            q += st
        w *= q
        sums[k] = w.sum(axis=1) @ row
    return sums


def product_moment(family: FamilySpec) -> Tuple[float, float]:
    """E[XY] and its absolute error, by double-exponential quadrature.

    1/D = int_0^inf e^{-sD} ds turns E[N_x N_y / (D_x D_y)] into int int
    prod_i (1+c_i)^-a_i (A_x A_y + B) ds dt: c_i is s, t or s+t as U_i sits
    in D_x, D_y or both, A sums a_i/(1+c_i) over a coordinate's numerator
    and B sums a_i/(1+c_i)^2 over the numerator both share.  log(1+s+t)
    bends on s = t, so each half of the quadrant has nodes on log(smaller)
    and log(larger/smaller) > 0, never across the bend.  The step halves
    until each half agrees with its previous rule: the error, the sum of
    the two halves' changes floored at rounding, must fall to 1e-10 of
    E[XY].  A stop test on the sum alone fires early where the halves move
    by opposite amounts.

    The rules are nested: the step is dyadic and the node range, fixed by
    the first rule, only fills in, so the nodes k h of one rule are the
    even-index nodes of the next.  Each halving adds to the running sums
    only the new nodes, odd rows by every column and even rows by odd
    columns, and evaluates each node once.  The logs are softplus in
    numpy's vector exp and log1p (_softplus), with no log(1 + .) that
    would lose the relative accuracy a large shape multiplies.
    """
    a = family.alphas
    (num_x, rest_x), (num_y, rest_y) = ratio_axes(family)
    nx, ny = set(num_x), set(num_y)
    dx, dy = set(num_x + rest_x), set(num_y + rest_y)
    # for the smaller variable of each half (x, then y): shape in its denominator
    # only, numerator shape there only, numerator shape in both denominators
    lo = np.array([[_total(a, dx - dy), _total(a, dy - dx)], [_total(a, nx - dy), _total(a, ny - dx)],
                   [_total(a, nx & dy), _total(a, ny & dx)]])
    coef = (lo, lo[:, ::-1], _total(a, dx & dy), _total(a, nx & ny))
    # each range ends on the first rule's last node past where pi/2 sinh u passes top
    tops = (_TAIL / sum(a), _TAIL + _TAIL / min(_total(a, dx), _total(a, dy)))
    u_sig, u_g = (math.ceil(2.0 * math.asinh(top / _HALF_PI)) / 2.0 for top in tops)
    h, sums, prev = 0.5, None, np.inf  # node sums and per-half integrals of the previous rule
    while True:
        sig, d_sig = _de_nodes(h, u_sig)
        g, d_g = _de_nodes(h, u_g)
        if sig.size * g.size > _MAX_CELLS:
            raise ValueError(f"product_moment did not converge for {family.label()}")
        if sums is None:
            sums = _node_sums(coef, sig, d_sig, g, d_g)
        else:
            sums = sums + _node_sums(coef, sig[1::2], d_sig[1::2], g, d_g)
            sums += _node_sums(coef, sig[::2], d_sig[::2], g[1::2], d_g[1::2])
        halves = h * h * sums
        e_xy, err = float(halves.sum()), float(np.abs(halves - prev).sum())
        if err <= 1e-10 * e_xy:
            break
        h, prev = h / 2, halves
    return e_xy, max(err, 2.0**-50 * e_xy)  # summing rounds to ~2^-52 e_xy


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
    density evaluated with the coordinates complemented where its role
    column differs from that of OL- (n and d exchanged).
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
    if not family.has_closed_form:
        raise ValueError(f"{v} has no closed-form joint density")
    columns, ol_minus_columns = zip(*STRUCTURE[v]), zip(*STRUCTURE[OL_MINUS])
    x, y = (c if col == ref else 1.0 - np.asarray(c, dtype=float)
            for c, col, ref in zip((x, y), columns, ol_minus_columns))
    return _ol_minus_logpdf(x, y, *family.alphas)


# ---------------------------------------------------------------------------
# Closure under complementation
# ---------------------------------------------------------------------------

_SWAP_ND = str.maketrans("nd", "dn")


def _an8_alphas(family: FamilySpec, flip: Tuple[bool, bool] = (False, False)) -> Tuple[float, ...]:
    """The AN8 vector of a family: each shape on the AN8 slot of its role,
    with n and d exchanged on the coordinates flip marks as complemented."""
    vec = [0.0] * len(STRUCTURE[AN8])
    for role, a in zip(STRUCTURE[family.variant], family.alphas):
        vec[STRUCTURE[AN8].index("".join(c.translate(_SWAP_ND) if f else c for c, f in zip(role, flip)))] = a
    return tuple(vec)


def an8_embedding(family: FamilySpec) -> FamilySpec:
    """The AN8 spec equal in law to any family: the OL variants, indep and AN5
    are AN8 zero patterns (an AN8 passes through)."""
    return FamilySpec(AN8, _an8_alphas(family))


def complement(family: FamilySpec, which: str) -> FamilySpec:
    """The FamilySpec whose law is that of the complemented pair.

    ``which`` selects the complemented coordinate(s): "x", "y" or "both".
    1 - N/(N+D) = D/(N+D), so n and d are exchanged in those columns of
    the family's roles and the result is placed in AN8, which is closed
    under every complementation.  An AN8 vector whose support matches an
    OL or indep embedding is lowered back to that variant, so OL variants
    relabel in place where the three-variant taxonomy allows it, indep
    swaps the affected marginal's (a, b), and double complementation is
    an exact involution; the (1-X, Y)-type laws, which are not OL variants
    in this coordinate convention, stay in AN8.  AN5 is not closed and raises.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be 'x', 'y' or 'both', got {which!r}")
    if family.variant == AN5:
        raise NotClosedError("the AN5 family is not closed under complementation")
    vec = _an8_alphas(family, _WHICH[which])
    support = {i for i, a in enumerate(vec) if a != 0.0}
    for variant in (OL_PLUS, OL_MINUS, OL_STAR, INDEPENDENT):
        slots = [STRUCTURE[AN8].index(role) for role in STRUCTURE[variant]]
        if support == set(slots):
            return FamilySpec(variant, tuple(vec[i] for i in slots))
    return FamilySpec(AN8, vec)
