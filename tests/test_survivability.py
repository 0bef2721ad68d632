"""Survivability assessment: closed forms, product-moment path, table rows."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibeta.families import FamilySpec
from bibeta.sampling import RngState, sample_pairs
from bibeta.special import BetaParams
from bibeta.survivability import (
    PARALLEL,
    SERIES,
    Exchangeable,
    HierIndependent,
    Interdependent,
    SurvivabilityScenario,
    reproduce_table,
    survivability,
    table_csv,
)

shape_floats = st.floats(min_value=0.1, max_value=20.0)

# Table 5 (OL+) correlations of perfbench/reference.json; the B(1,0.1) value
# there is itself about 3e-8 off the exact 0.68066309
TABLE5_RHO = (0.4784176049211881, 0.6835208714868557, 0.7777067378617297, 0.6806631267111133)
# Table 6 (AN5) correlations, quoted to 5 decimals
TABLE6_RHO = (0.48485, 0.75582, 0.67616)


class TestExchangeable:
    def test_uniform_series_is_one_third(self):
        rep = survivability(SurvivabilityScenario(Exchangeable(BetaParams(1, 1)), SERIES))
        assert rep.system_survivability == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert rep.component_survivability == (0.5, 0.5)
        assert rep.method == "analytic"
        assert rep.correlation == 0.0

    def test_uniform_parallel_is_two_thirds(self):
        rep = survivability(SurvivabilityScenario(Exchangeable(BetaParams(1, 1)), PARALLEL))
        assert rep.system_survivability == pytest.approx(2.0 / 3.0, rel=1e-14)

    @given(a=shape_floats, b=shape_floats)
    def test_series_gap_over_independence_is_the_variance(self, a, b):
        """E(theta^2) - E(theta)^2 = V(theta), the exchangeability premium."""
        p = BetaParams(a, b)
        exch = survivability(SurvivabilityScenario(Exchangeable(p), SERIES))
        ind = survivability(SurvivabilityScenario(HierIndependent(p, p), SERIES))
        gap = exch.system_survivability - ind.system_survivability
        assert gap == pytest.approx(p.variance, rel=1e-9)

    @given(a=shape_floats, b=shape_floats)
    def test_series_below_component_parallel_above(self, a, b):
        p = BetaParams(a, b)
        series = survivability(SurvivabilityScenario(Exchangeable(p), SERIES))
        parallel = survivability(SurvivabilityScenario(Exchangeable(p), PARALLEL))
        assert series.system_survivability <= p.mean + 1e-12
        assert parallel.system_survivability >= p.mean - 1e-12


class TestHierIndependent:
    def test_uniform_series_is_the_conventional_quarter(self):
        scenario = SurvivabilityScenario(
            HierIndependent(BetaParams(1, 1), BetaParams(1, 1)), SERIES
        )
        assert survivability(scenario).system_survivability == pytest.approx(0.25, rel=1e-14)

    def test_product_rule(self):
        scenario = SurvivabilityScenario(
            HierIndependent(BetaParams(3, 1), BetaParams(10.1, 1)), SERIES
        )
        rep = survivability(scenario)
        assert rep.system_survivability == pytest.approx(0.75 * (10.1 / 11.1), rel=1e-14)

    def test_parallel_complement_rule(self):
        p1, p2 = BetaParams(2, 3), BetaParams(4, 1)
        rep = survivability(SurvivabilityScenario(HierIndependent(p1, p2), PARALLEL))
        assert rep.system_survivability == pytest.approx(
            1 - (1 - p1.mean) * (1 - p2.mean), rel=1e-14
        )


class TestInterdependent:
    def test_requires_monte_carlo_settings(self):
        """No settings any more: the answer is deterministic, and passing some is an error."""
        scenario = SurvivabilityScenario(Interdependent(FamilySpec.ol_plus(1, 1, 1)), SERIES)
        assert survivability(scenario) == survivability(scenario)
        with pytest.raises(TypeError):
            survivability(scenario, (200_000, RngState(1)))

    def test_an5_survivability_prior(self):
        scenario = SurvivabilityScenario(
            Interdependent(FamilySpec.an5(10, 10, 0.1, 0.1, 10)), SERIES
        )
        rep = survivability(scenario)
        assert rep.system_survivability == pytest.approx(0.255, abs=0.005)
        assert rep.method == "quadrature"
        assert rep.corr_std_error > 0

    def test_zero_correlation_family_matches_hier_independent(self):
        p1, p2 = BetaParams(3, 1), BetaParams(2, 2)
        inter = survivability(
            SurvivabilityScenario(Interdependent(FamilySpec.independent(p1, p2)), SERIES)
        )
        hier = survivability(SurvivabilityScenario(HierIndependent(p1, p2), SERIES))
        tol = 4 * inter.corr_std_error * math.sqrt(p1.variance * p2.variance)
        assert abs(inter.system_survivability - hier.system_survivability) <= tol

    def test_monotone_in_dependence_for_matched_marginals(self):
        p = BetaParams(3, 1)
        dependent = survivability(
            SurvivabilityScenario(Interdependent(FamilySpec.ol_plus(3, 3, 1)), SERIES)
        )
        independent = survivability(
            SurvivabilityScenario(Interdependent(FamilySpec.independent(p, p)), SERIES)
        )
        assert dependent.correlation > independent.correlation
        assert dependent.system_survivability > independent.system_survivability

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec.ol_plus(3, 3, 1), FamilySpec.an5(10, 10, 0.1, 0.1, 10)],
    )
    def test_product_moment_path_against_direct_monte_carlo(self, spec):
        """rho sqrt(V1 V2) + E1 E2 agrees with the directly sampled E(xy)."""
        n = 1_000_000
        rep = survivability(SurvivabilityScenario(Interdependent(spec), SERIES))
        x, y = sample_pairs(RngState(86), spec, n)
        direct = float((x * y).mean())
        se = float((x * y).std() / math.sqrt(n))
        assert abs(rep.system_survivability - direct) <= 4 * se + 4 * rep.corr_std_error * math.sqrt(
            rep.variances[0] * rep.variances[1]
        )

    def test_parallel_against_direct_monte_carlo(self):
        spec = FamilySpec.ol_plus(3, 3, 1)
        n = 400_000
        rep = survivability(SurvivabilityScenario(Interdependent(spec), PARALLEL))
        x, y = sample_pairs(RngState(88), spec, n)
        direct = 1.0 - float(((1 - x) * (1 - y)).mean())
        se = float(((1 - x) * (1 - y)).std() / math.sqrt(n))
        assert abs(rep.system_survivability - direct) <= 4 * se + 1e-3

    def test_series_and_parallel_bracketed_by_components(self):
        spec = FamilySpec.ol_plus(3, 3, 0.3)
        series = survivability(SurvivabilityScenario(Interdependent(spec), SERIES))
        parallel = survivability(SurvivabilityScenario(Interdependent(spec), PARALLEL))
        slack = 4 * series.corr_std_error
        assert series.system_survivability <= min(series.component_survivability) + slack
        assert parallel.system_survivability >= max(parallel.component_survivability) - slack


class TestTables:
    def test_table4_values(self):
        rows = reproduce_table(4)
        assert [r.label for r in rows] == ["B(1,1)", "B(3,1)", "B(10.1,1)", "B(3,0.3)", "B(1,0.1)"]
        surv = [round(r.report.system_survivability, 3) for r in rows]
        assert surv == [0.333, 0.600, 0.835, 0.846, 0.866]
        means = [r.report.component_survivability[0] for r in rows]
        assert means == pytest.approx([0.5, 0.75, 10.1 / 11.1, 3 / 3.3, 1 / 1.1], rel=1e-12)
        assert rows[1].report.variances == (0.0375, 0.0375)
        # the B(1,1) variance is analytically 1/12, not the printed 0.080
        assert rows[0].report.variances[0] == pytest.approx(1 / 12, rel=1e-12)

    def test_table4_is_fast_and_deterministic(self):
        import time

        t0 = time.perf_counter()
        a = table_csv(reproduce_table(4))
        b = table_csv(reproduce_table(4))
        assert time.perf_counter() - t0 < 1.0
        assert a == b

    def test_tables_5_and_6_need_mc(self):
        """No settings any more: the tables are deterministic, and passing some is an error."""
        assert table_csv(reproduce_table(5)) == table_csv(reproduce_table(5))
        with pytest.raises(TypeError):
            reproduce_table(5, (100_000, RngState(91)))

    def test_table5_shape(self):
        rows = reproduce_table(5)
        assert [r.label for r in rows] == ["B(1,1)", "B(3,1)", "B(3,0.3)", "B(1,0.1)"]
        assert all(r.report.method == "quadrature" for r in rows)
        assert all(r.report.correlation > 0 for r in rows)

    def test_table6_shape(self):
        rows = reproduce_table("table6")
        assert [r.label for r in rows] == [
            "B(10.1,10.1)",
            "B(10.1,1.1)",
            "B(5.1,0.6)|B(10.1,0.6)",
        ]

    @pytest.mark.parametrize("table, rho, tol", [(5, TABLE5_RHO, 5e-8), (6, TABLE6_RHO, 5e-6)])
    def test_tables_5_and_6_exact_correlations(self, table, rho, tol):
        """Exact correlations; errors positive (perfbench/checks.py divides by them) and tiny."""
        rows = reproduce_table(table)
        assert [r.report.correlation for r in rows] == pytest.approx(rho, abs=tol)
        assert all(0 < r.report.corr_std_error <= 1e-8 for r in rows)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_table(7)

    def test_csv_layout(self):
        text = table_csv(reproduce_table(4))
        lines = text.strip().split("\n")
        assert lines[0].startswith("distribution,component_survivability_1")
        assert lines[0].endswith("method,corr_std_error")
        assert len(lines) == 6
