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

    def __str__(self) -> str:
        return f"B({self.a:g},{self.b:g})"


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; keeps full accuracy in both tails.

    math.erfc carries the sign symmetry of erf, so
    std_normal_cdf(z) + std_normal_cdf(-z) stays at 1 to machine precision.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
