"""Deterministic special functions underpinning all densities and moments.

Everything here is a pure function of its arguments and safe to call from
any number of threads.  Scalar contracts only; the grid code vectorizes
separately with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters (a, b) of a beta distribution of the first kind."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(f"beta shapes must be positive and finite, got ({self.a}, {self.b})")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))

    def raw_moment(self, k: int) -> float:
        """E[X^k] = prod_{r<k} (a+r)/(a+b+r)."""
        m = 1.0
        for r in range(k):
            m *= (self.a + r) / (self.a + self.b + r)
        return m

    def swapped(self) -> "BetaParams":
        """Parameters of the complement: X ~ B(a, b) implies 1-X ~ B(b, a)."""
        return BetaParams(self.b, self.a)

    def __str__(self) -> str:
        return f"B({self.a:g},{self.b:g})"


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_pdf(x: float, p: BetaParams) -> float:
    """Density x^(a-1) (1-x)^(b-1) / B(a, b) on (0, 1).

    Exact endpoints are defined where the limit is finite (0 when the
    exponent forces it, the finite limit when the exponent is zero) and
    raise when the limit is +inf.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError(f"beta_pdf requires x in [0, 1], got {x}")
    if x == 0.0:
        if p.a > 1.0:
            return 0.0
        if p.a == 1.0:
            return math.exp(-log_beta(p.a, p.b))
        raise ValueError("beta_pdf is unbounded at x=0 for a < 1")
    if x == 1.0:
        if p.b > 1.0:
            return 0.0
        if p.b == 1.0:
            return math.exp(-log_beta(p.a, p.b))
        raise ValueError("beta_pdf is unbounded at x=1 for b < 1")
    return math.exp(
        (p.a - 1.0) * math.log(x) + (p.b - 1.0) * math.log1p(-x) - log_beta(p.a, p.b)
    )


def beta2_pdf(x: float, p: BetaParams) -> float:
    """Beta-of-the-second-kind density on [0, inf).

    f(x; a, b) = Gamma(a+b)/(Gamma(a) Gamma(b)) * x^(a-1) (1+x)^-(a+b),
    the law of the ratio of two independent unit-scale gammas with shapes
    a and b.
    """
    if x < 0.0:
        raise ValueError(f"beta2_pdf requires x >= 0, got {x}")
    if x == 0.0:
        if p.a > 1.0:
            return 0.0
        if p.a == 1.0:
            return math.exp(-log_beta(p.a, p.b))
        raise ValueError("beta2_pdf is unbounded at x=0 for a < 1")
    return math.exp(
        (p.a - 1.0) * math.log(x) - (p.a + p.b) * math.log1p(x) - log_beta(p.a, p.b)
    )


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; keeps full accuracy in both tails.

    math.erfc carries the sign symmetry of erf, so
    std_normal_cdf(z) + std_normal_cdf(-z) stays at 1 to machine precision.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
