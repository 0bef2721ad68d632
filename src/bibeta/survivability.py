"""Two-component system survivability under three propensity architectures.

Survivability is the personal probability that the system survives the
mission, i.e. component reliability averaged over parameter uncertainty:

  exchangeable      one shared theta ~ B(a, b) drives both lifetimes;
                    series survivability is E(theta^2) = E^2 + V
  hier. independent independent theta_1, theta_2; the product rule
                    E(theta_1) E(theta_2) -- the only architecture where
                    the conventional answer is justified
  interdependent    (theta_1, theta_2) jointly from a bivariate family;
                    E(theta_1 theta_2) by quadrature of its Laplace-transform
                    integral (families.product_moment), E and V analytic

A parallel redundant system survives unless both components fail:
1 - E((1-theta_1)(1-theta_2)) = 1 - [1 - E1 - E2 + E(theta_1 theta_2)],
so every architecture reduces to (E1, E2, E(theta_1 theta_2)).  Failed
components are neither repaired nor replaced; the mission time is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

from .families import FamilySpec, marginal_params, product_moment
from .special import BetaParams
from .serialize import csv_text

SERIES = "series"
PARALLEL = "parallel"


@dataclass(frozen=True)
class Exchangeable:
    prior: BetaParams


@dataclass(frozen=True)
class HierIndependent:
    prior_x: BetaParams
    prior_y: BetaParams


@dataclass(frozen=True)
class Interdependent:
    family: FamilySpec


Architecture = Union[Exchangeable, HierIndependent, Interdependent]


@dataclass(frozen=True)
class SurvivabilityScenario:
    architecture: Architecture
    system: str = SERIES

    def __post_init__(self) -> None:
        if self.system not in (SERIES, PARALLEL):
            raise ValueError(f"system must be '{SERIES}' or '{PARALLEL}', got {self.system!r}")


@dataclass(frozen=True)
class SurvivabilityReport:
    """One assessed scenario: per-component moments, dependence, system answer.

    ``correlation`` is the exact correlation between the two propensities of
    the interdependent architecture and ``corr_std_error`` its quadrature
    error; the analytic architectures do not use them and report 0.
    """

    component_survivability: Tuple[float, float]
    variances: Tuple[float, float]
    correlation: float
    system_survivability: float
    method: str
    corr_std_error: float = 0.0


def survivability(s: SurvivabilityScenario) -> SurvivabilityReport:
    """Assess one scenario from its marginals p1, p2 and product moment E12."""
    arch = s.architecture
    corr, corr_err, method = 0.0, 0.0, "analytic"
    if isinstance(arch, Exchangeable):
        p1 = p2 = arch.prior
        e12 = p1.raw_moment(2)
    elif isinstance(arch, HierIndependent):
        p1, p2 = arch.prior_x, arch.prior_y
        e12 = p1.mean * p2.mean
    elif isinstance(arch, Interdependent):
        p1, p2 = marginal_params(arch.family)
        e12, err = product_moment(arch.family)
        sd = math.sqrt(p1.variance * p2.variance)
        corr, corr_err, method = (e12 - p1.mean * p2.mean) / sd, err / sd, "quadrature"
    else:
        raise TypeError(f"unknown architecture {arch!r}")
    e1, e2 = p1.mean, p2.mean
    surv = e12 if s.system == SERIES else 1.0 - (1.0 - e1 - e2 + e12)
    return SurvivabilityReport((e1, e2), (p1.variance, p2.variance), corr, surv, method, corr_err)


# ---------------------------------------------------------------------------
# Published-table reproduction
# ---------------------------------------------------------------------------

# exchangeable beta parameters; the published table also lists a "(5.5, 6)"
# row whose printed E(theta) = 0.90 is inconsistent with those parameters
# (5.5/11.5 = 0.478), so it is omitted here
TABLE4_PARAMS: Tuple[Tuple[float, float], ...] = ((1, 1), (3, 1), (10.1, 1), (3, 0.3), (1, 0.1))

# OL+ marginals B(a, b) are matched by alphas (a, a, b)
TABLE5_MARGINALS: Tuple[Tuple[float, float], ...] = ((1, 1), (3, 1), (3, 0.3), (1, 0.1))

# the three AN5 parameter sets of the source discussion; the third has
# unequal marginals B(5.1, 0.6) and B(10.1, 0.6)
TABLE6_ALPHAS: Tuple[Tuple[float, ...], ...] = (
    (10, 10, 0.1, 0.1, 10),
    (10, 10, 0.1, 0.1, 1),
    (5, 10, 0.1, 0.1, 0.5),
)


@dataclass(frozen=True)
class TableRow:
    label: str
    report: SurvivabilityReport


def reproduce_table(table: Union[int, str]) -> List[TableRow]:
    """Recompute one of the three published survivability tables.

    Table 4 is purely analytic.  Tables 5 and 6 compute the product moment
    and correlation by quadrature instead of copying the externally
    tabulated values; every table is deterministic.
    """
    name = str(table).lower().removeprefix("table")
    if name == "4":
        archs = [Exchangeable(BetaParams(a, b)) for a, b in TABLE4_PARAMS]
    elif name == "5":
        archs = [Interdependent(FamilySpec.ol_plus(a, a, b)) for a, b in TABLE5_MARGINALS]
    elif name == "6":
        archs = [Interdependent(FamilySpec.an5(*alphas)) for alphas in TABLE6_ALPHAS]
    else:
        raise ValueError(f"unknown table {table!r}; expected 4, 5 or 6")
    rows = []
    for arch in archs:
        m1, m2 = (arch.prior, arch.prior) if name == "4" else marginal_params(arch.family)
        label = str(m1) if str(m1) == str(m2) else f"{m1}|{m2}"
        rows.append(TableRow(label, survivability(SurvivabilityScenario(arch, SERIES))))
    return rows


def table_csv(rows: List[TableRow]) -> str:
    header = [
        "distribution",
        "component_survivability_1",
        "component_survivability_2",
        "variance_1",
        "variance_2",
        "correlation",
        "system_survivability",
        "method",
        "corr_std_error",
    ]
    body = []
    for row in rows:
        r = row.report
        body.append((row.label, *r.component_survivability, *r.variances, r.correlation, r.system_survivability,
                     r.method, r.corr_std_error))
    return csv_text(header, body)
