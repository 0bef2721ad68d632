"""Likelihood, grid posterior, summaries, and predictive quantities."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

import bibeta.inference as inference
from bibeta.families import FamilySpec, an8_embedding, closed_form_logpdf
from bibeta.grids import LogCells, density_grid, grid_midpoints
from bibeta.inference import (
    DegeneratePosteriorError,
    DiagnosticData,
    GridPosterior,
    PriorSpec,
    joint_posterior,
    marginal_csv,
    marginal_posterior,
    pi_posterior,
    posterior_summary,
    predictive_propensity,
    predictive_values,
)
from bibeta.sampling import RngState
from bibeta.special import BetaParams
from conditional_oracle import conditional_posterior

INDEP_PRIOR = PriorSpec(
    FamilySpec.independent(BetaParams(10, 5), BetaParams(5, 2.5)), BetaParams(1, 1)
)
OLM_PRIOR = PriorSpec(FamilySpec.ol_minus(10, 2.5, 5), BetaParams(1, 1))
AN5_PRIOR = PriorSpec(FamilySpec.an5(5, 5, 5, 5, 1e-4), BetaParams(1, 1))


def binom_oracle(pi, eta, theta, d):
    """Direct pmf-product evaluation through scipy."""
    return (
        sp_stats.binom.logpmf(d.n1, d.n, pi)
        + sp_stats.binom.logpmf(d.k1, d.n1, eta)
        + sp_stats.binom.logpmf(d.k2, d.n - d.n1, theta)
    )


def point_mass_grid(m, i, j, prior=INDEP_PRIOR, data=DiagnosticData(0, 0, 0, 0)):
    w = np.zeros((m, m))
    w[i, j] = 1.0
    mid = grid_midpoints(m)
    return GridPosterior(m=m, weights=w, eta_axis=mid, theta_axis=mid, prior=prior, data=data)


def full_grid_weights(d, prior, m, rng=None, prior_samples=0):
    """joint_posterior's weights evaluated on every cell, as before the zero window."""
    mid = grid_midpoints(m)
    log_eta = d.k1 * np.log(mid) + (d.n1 - d.k1) * np.log1p(-mid)
    log_theta = d.k2 * np.log(mid) + (d.n2 - d.k2) * np.log1p(-mid)
    log_w = log_eta[:, None] + log_theta[None, :]
    log_w += inference.log_prior_cells(prior.eta_theta_prior, m, prior_samples, rng).cells
    peak = log_w.max()
    if not np.isfinite(peak):
        raise DegeneratePosteriorError("posterior weights vanish on every grid cell")
    log_w -= peak
    w = np.exp(log_w, out=log_w)
    w /= w.sum()
    return w


@st.composite
def diagnostic_data(draw):
    n = draw(st.one_of(st.integers(0, 10**6), st.sampled_from([10**9, 10**12, 10**15])))
    n1 = draw(st.integers(0, n))
    return DiagnosticData(n, n1, draw(st.integers(0, n1)), draw(st.integers(0, n - n1)))


SHAPES = st.floats(0.5, 5.0)
OL_SHAPES = st.tuples(*[st.floats(0.3, 10.0)] * 3)
OL_FAMILIES = st.builds(lambda make, a: make(*a), st.sampled_from([FamilySpec.ol_minus, FamilySpec.ol_plus]), OL_SHAPES)
# (family, rng, prior_samples): closed forms, exact AN8 cells, and a 10^4-pair AN5 histogram with empty cells
POSTERIOR_PRIORS = st.one_of(
    st.builds(
        lambda a, b, c, e: (FamilySpec.independent(BetaParams(a, b), BetaParams(c, e)), None, 0),
        SHAPES, SHAPES, SHAPES, SHAPES,
    ),
    st.builds(lambda f: (f, None, 0), OL_FAMILIES),
    st.builds(lambda f: (an8_embedding(f), None, 0), OL_FAMILIES),
    st.builds(lambda seed: (AN5_PRIOR.eta_theta_prior, RngState(seed), 10**4), st.integers(0, 2)),
)


class TestDiagnosticData:
    @pytest.mark.parametrize(
        "bad", [(10, 11, 0, 0), (10, 5, 6, 0), (10, 5, 0, 6), (10, -1, 0, 0)]
    )
    def test_invalid_counts(self, bad):
        with pytest.raises(ValueError):
            DiagnosticData(*bad)

    def test_n2(self):
        assert DiagnosticData(100, 35, 27, 39).n2 == 65


UNIFORM_PRIOR = PriorSpec(
    FamilySpec.independent(BetaParams(1, 1), BetaParams(1, 1)), BetaParams(1, 1)
)
CENTER = (50, 50)


def assert_log_weights_match_oracle(d, cell, ref=CENTER, pi=0.5, m=100):
    """Under a uniform prior, log-weight differences between grid cells are
    log-likelihood differences; pi and the binomial coefficients cancel."""
    w = joint_posterior(d, UNIFORM_PRIOR, m=m).weights
    mid = grid_midpoints(m)
    want = binom_oracle(pi, mid[cell[0]], mid[cell[1]], d) - binom_oracle(
        pi, mid[ref[0]], mid[ref[1]], d
    )
    got = math.log(w[cell]) - math.log(w[ref])
    assert got == pytest.approx(want, rel=1e-12)


class TestLogLikelihood:
    def test_single_subject(self):
        assert_log_weights_match_oracle(DiagnosticData(1, 1, 1, 0), (80, 10), (20, 60))

    def test_two_subjects(self):
        assert_log_weights_match_oracle(DiagnosticData(2, 1, 1, 1), (80, 30), (20, 60))

    @pytest.mark.parametrize(
        "d,params",
        [
            (DiagnosticData(100, 35, 27, 39), (0.35, 0.773, 0.599)),
            (DiagnosticData(10, 4, 2, 3), (0.2, 0.9, 0.4)),
            (DiagnosticData(50, 20, 20, 30), (0.5, 0.99, 0.97)),
        ],
    )
    def test_pmf_product_oracle(self, d, params):
        pi, eta, theta = params
        assert_log_weights_match_oracle(d, (int(eta * 100), int(theta * 100)), pi=pi)

    def test_theta_exponent_counts_screen_positive_healthy(self):
        # n - n1 - k2 = 3 here, while n - k1 - k2 would be 5; the oracle
        # built on Binomial(n - n1, theta) arbitrates
        assert_log_weights_match_oracle(DiagnosticData(10, 4, 2, 3), (60, 70), pi=0.3)

    def test_boundary_with_zero_exponent_is_finite(self):
        d = DiagnosticData(10, 4, 4, 6)  # k1 = n1 and k2 = n - n1
        w = joint_posterior(d, UNIFORM_PRIOR, m=100).weights
        assert np.all(np.isfinite(np.log(w)))
        assert_log_weights_match_oracle(d, (99, 99))

    def test_boundary_with_positive_exponent_errors(self):
        """k1 < n1: the likelihood vanishes at eta = 1.  Midpoints never reach it,
        so the edge cell keeps a finite weight that matches the oracle."""
        d = DiagnosticData(10, 4, 3, 6)
        w = joint_posterior(d, UNIFORM_PRIOR, m=100).weights
        assert np.all(np.isfinite(np.log(w)))
        assert_log_weights_match_oracle(d, (99, 99))


class TestPiPosterior:
    def test_no_data(self):
        assert pi_posterior(DiagnosticData(0, 0, 0, 0), BetaParams(1, 1)) == BetaParams(1, 1)

    def test_count_addition(self):
        post = pi_posterior(DiagnosticData(100, 35, 27, 39), BetaParams(1, 1))
        assert post == BetaParams(36, 66)
        assert post.mean == pytest.approx(36 / 102, rel=1e-14)

    @given(
        n1=st.integers(0, 50),
        n2=st.integers(0, 50),
        k=st.integers(0, 30),
        m=st.integers(0, 30),
    )
    def test_conjugacy_split_equals_pooled(self, n1, n2, k, m):
        """Updating on two batches composes to the pooled update exactly."""
        prior = BetaParams(2.0, 3.0)
        d1 = DiagnosticData(n1 + k, n1, 0, 0)
        d2 = DiagnosticData(n2 + m, n2, 0, 0)
        pooled = DiagnosticData(n1 + n2 + k + m, n1 + n2, 0, 0)
        assert pi_posterior(d2, pi_posterior(d1, prior)) == pi_posterior(pooled, prior)


class TestJointPosterior:
    def test_prior_recovery_closed_form(self):
        """No data: weights are exactly the normalized prior density grid."""
        d = DiagnosticData(0, 0, 0, 0)
        for prior in (INDEP_PRIOR, OLM_PRIOR):
            gp = joint_posterior(d, prior, m=50)
            mid = grid_midpoints(50)
            e, t = np.meshgrid(mid, mid, indexing="ij")
            ref = np.exp(closed_form_logpdf(prior.eta_theta_prior, e, t))
            ref /= ref.sum()
            assert np.max(np.abs(gp.weights - ref) / ref) < 1e-9

    def test_prior_recovery_estimated(self):
        d = DiagnosticData(0, 0, 0, 0)
        gp = joint_posterior(d, AN5_PRIOR, m=40, rng=RngState(71), prior_samples=50_000)
        from bibeta.grids import density_grid

        ref = density_grid(AN5_PRIOR.eta_theta_prior, m=40, n_samples=50_000, rng=RngState(71))
        expected = ref.cells / ref.cells.sum()
        assert np.allclose(gp.weights, expected, rtol=1e-12, atol=1e-15)

    def test_weights_are_normalized_probabilities(self):
        d = DiagnosticData(100, 35, 27, 39)
        gp = joint_posterior(d, OLM_PRIOR, m=100)
        assert np.all(gp.weights >= 0)
        assert abs(gp.weights.sum() - 1.0) < 1e-12

    def test_posterior_tracks_likelihood_ratio(self):
        """Between two cells, posterior odds = likelihood odds x prior odds."""
        d = DiagnosticData(20, 8, 6, 9)
        gp = joint_posterior(d, INDEP_PRIOR, m=20)
        mid = grid_midpoints(20)
        spec = INDEP_PRIOR.eta_theta_prior

        def cell_log_weight(i, j):
            return (
                d.k1 * math.log(mid[i])
                + (d.n1 - d.k1) * math.log1p(-mid[i])
                + d.k2 * math.log(mid[j])
                + (d.n2 - d.k2) * math.log1p(-mid[j])
                + float(closed_form_logpdf(spec, mid[i], mid[j]))
            )

        lhs = math.log(gp.weights[12, 9] / gp.weights[5, 14])
        rhs = cell_log_weight(12, 9) - cell_log_weight(5, 14)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_reseeded_posteriors_identical(self):
        d = DiagnosticData(30, 10, 8, 13)
        a = joint_posterior(d, AN5_PRIOR, m=30, rng=RngState(72), prior_samples=100_000)
        b = joint_posterior(d, AN5_PRIOR, m=30, rng=RngState(72), prior_samples=100_000)
        assert np.array_equal(a.weights, b.weights)

    def test_extreme_interior_data_never_degenerates(self):
        # likelihood is finite on the open square, so even data pinned to a
        # corner keeps at least one positive cell
        d = DiagnosticData(4000, 2000, 2000, 2000)
        gp = joint_posterior(d, AN5_PRIOR, m=100, rng=RngState(73), prior_samples=10_000)
        assert abs(gp.weights.sum() - 1.0) < 1e-12

    def test_estimated_prior_grid_is_cached_read_only(self):
        import bibeta.grids as grids

        d = DiagnosticData(50, 20, 15, 25)
        rng = RngState(74)
        joint_posterior(d, AN5_PRIOR, m=20, rng=rng, prior_samples=10_000)
        hits = grids._log_cells.cache_info().hits
        joint_posterior(d, AN5_PRIOR, m=20, rng=rng, prior_samples=10_000)
        # one hit finds no exact rule, the other the histogram
        assert grids._log_cells.cache_info().hits == hits + 2
        grid = grids.log_prior_cells(AN5_PRIOR.eta_theta_prior, 20, 10_000, rng)
        assert not grid.cells.flags.writeable and grid.top == grid.cells.max()

    def test_histogram_prior_needs_an_rng_state(self):
        """A histogram prior is refused by density_grid's own checks, with the same message."""
        for n_samples, rng, message in [
            (10_000, None, "a an5 histogram density needs an RngState"),
            (9_999, RngState(75), "an5 needs n_samples >= 10000 for a histogram density, got 9999"),
        ]:
            with pytest.raises(ValueError) as direct:
                density_grid(AN5_PRIOR.eta_theta_prior, m=20, n_samples=n_samples, rng=rng)
            with pytest.raises(ValueError) as posterior:
                joint_posterior(DiagnosticData(50, 20, 15, 25), AN5_PRIOR, m=20, rng=rng, prior_samples=n_samples)
            assert str(posterior.value) == str(direct.value) == message

    def test_closed_form_prior_grid_is_cached_read_only(self):
        """The exact prior is built once per (family, m) and reused byte for byte."""
        import bibeta.grids as grids

        family, m = OLM_PRIOR.eta_theta_prior, 37
        first = joint_posterior(DiagnosticData(50, 20, 15, 25), OLM_PRIOR, m=m)
        hits = grids._log_cells.cache_info().hits
        again = joint_posterior(DiagnosticData(50, 20, 15, 25), OLM_PRIOR, m=m)
        assert grids._log_cells.cache_info().hits == hits + 1
        assert again.weights.tobytes() == first.weights.tobytes()
        grid = grids.log_prior_cells(family, m, 0, None).cells
        assert not grid.flags.writeable
        mid = grid_midpoints(m)
        assert grid.tobytes() == closed_form_logpdf(family, mid[:, None], mid[None, :]).tobytes()

    def test_degenerate_posterior_guard(self, monkeypatch):
        monkeypatch.setattr(
            inference, "log_prior_cells", lambda *a, **k: LogCells(np.full((10, 10), -np.inf), -np.inf)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegeneratePosteriorError):
                joint_posterior(DiagnosticData(0, 0, 0, 0), INDEP_PRIOR, m=10)

    def test_nan_prior_cell_is_degenerate(self, monkeypatch):
        """A NaN prior cell away from the likelihood peak makes the peak NaN, as on the whole grid."""
        cells = np.zeros((10, 10))
        cells[0, 9] = np.nan
        monkeypatch.setattr(inference, "log_prior_cells", lambda *a, **k: LogCells(cells, float(cells.max())))
        with pytest.raises(DegeneratePosteriorError):
            joint_posterior(DiagnosticData(10**6, 500_000, 400_000, 300_000), INDEP_PRIOR, m=10)

    @settings(max_examples=300, deadline=None)
    @given(d=diagnostic_data(), m=st.integers(10, 300), prior=POSTERIOR_PRIORS)
    def test_weights_equal_the_full_grid_bit_for_bit(self, d, m, prior):
        family, rng, samples = prior
        spec = PriorSpec(family, BetaParams(1, 1))
        got = joint_posterior(d, spec, m=m, rng=rng, prior_samples=samples).weights
        assert got.tobytes() == full_grid_weights(d, spec, m, rng, samples).tobytes()

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 10**15])
    def test_large_n_computes_a_small_window(self, n):
        """Every cell outside the window is zero in the full grid, and the window is small."""
        d, m = DiagnosticData(n, n // 3, n // 4, n // 2), 300
        mid = grid_midpoints(m)
        log_eta = d.k1 * np.log(mid) + (d.n1 - d.k1) * np.log1p(-mid)
        log_theta = d.k2 * np.log(mid) + (d.n2 - d.k2) * np.log1p(-mid)
        prior = inference.log_prior_cells(OLM_PRIOR.eta_theta_prior, m, 0, None)
        rows, cols = inference._nonzero_window(log_eta, log_theta, prior)
        full = full_grid_weights(d, OLM_PRIOR, m)
        outside = np.ones((m, m), dtype=bool)
        outside[rows, cols] = False
        assert outside.sum() > 0.9 * m * m
        assert not full[outside].any()
        assert joint_posterior(d, OLM_PRIOR, m=m).weights.tobytes() == full.tobytes()

    def test_prior_spike_far_from_the_likelihood_peak_stays_in_the_window(self, monkeypatch):
        """The bound adds the prior's max: a cell it lifts above the likelihood peak is kept."""
        d, m = DiagnosticData(10**4, 5000, 1500, 3000), 50
        mid = grid_midpoints(m)
        log_eta = d.k1 * np.log(mid) + (d.n1 - d.k1) * np.log1p(-mid)
        log_theta = d.k2 * np.log(mid) + (d.n2 - d.k2) * np.log1p(-mid)
        far = m - 1
        spike = float(log_eta.max() - log_eta[far]) + 10.0
        assert spike > 2 * inference._ZERO_GAP
        cells = np.zeros((m, m))
        cells[far, np.argmax(log_theta)] = spike
        monkeypatch.setattr(inference, "log_prior_cells", lambda *a, **k: LogCells(cells, spike))
        got = joint_posterior(d, OLM_PRIOR, m=m)
        assert got.weights.tobytes() == full_grid_weights(d, OLM_PRIOR, m).tobytes()
        assert posterior_summary(got).mode_cell[0] == far

    def test_empty_prior_cell_at_the_likelihood_peak_takes_the_whole_grid(self, monkeypatch):
        """A -inf prior at the likelihood's argmax cell gives no bound: the whole grid is computed."""
        d, m = DiagnosticData(10**6, 400_000, 300_000, 500_000), 50
        mid = grid_midpoints(m)
        log_eta = d.k1 * np.log(mid) + (d.n1 - d.k1) * np.log1p(-mid)
        log_theta = d.k2 * np.log(mid) + (d.n2 - d.k2) * np.log1p(-mid)
        real = inference.log_prior_cells(OLM_PRIOR.eta_theta_prior, m, 0, None)
        assert inference._nonzero_window(log_eta, log_theta, real) != (slice(None), slice(None))
        cells = real.cells.copy()
        cells[np.argmax(log_eta), np.argmax(log_theta)] = -np.inf
        patched = LogCells(cells, real.top)
        assert inference._nonzero_window(log_eta, log_theta, patched) == (slice(None), slice(None))
        monkeypatch.setattr(inference, "log_prior_cells", lambda *a, **k: patched)
        got = joint_posterior(d, OLM_PRIOR, m=m).weights
        assert got.tobytes() == full_grid_weights(d, OLM_PRIOR, m).tobytes()

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            joint_posterior(DiagnosticData(0, 0, 0, 0), INDEP_PRIOR, m=5)

    def test_synthetic_runs_land_near_truth_on_average(self):
        """n=100 datasets under the independent prior: replicate-mean
        absolute error of the posterior mean stays within 0.08 of the
        generating (eta, theta).  Single runs fluctuate more (the naive
        estimator's sampling sd is ~0.07), so this is a replicate check."""
        from bibeta.synth import SynthConfig, generate

        errs = []
        for seed in range(20):
            d = generate(SynthConfig(pi=0.35, n=100, mu0=3.0, mu1=4.0, t=3.25, rng=RngState(seed)))
            s = posterior_summary(joint_posterior(d, INDEP_PRIOR, m=100))
            errs.append(
                (abs(s.mean_eta - 0.7733726476231318), abs(s.mean_theta - 0.5987063256829237))
            )
        mae = np.array(errs).mean(axis=0)
        assert mae[0] <= 0.08 and mae[1] <= 0.08


class TestMarginals:
    def test_uniform_weights(self):
        gp = point_mass_grid(10, 0, 0)
        gp = GridPosterior(
            m=10,
            weights=np.full((10, 10), 0.01),
            eta_axis=gp.eta_axis,
            theta_axis=gp.theta_axis,
            prior=INDEP_PRIOR,
            data=gp.data,
        )
        assert np.allclose(marginal_posterior(gp, "eta"), 0.1, atol=1e-15)
        assert np.allclose(marginal_posterior(gp, "theta"), 0.1, atol=1e-15)

    def test_marginals_share_total_mass(self):
        gp = joint_posterior(DiagnosticData(50, 20, 15, 25), OLM_PRIOR, m=60)
        for coord in ("eta", "theta"):
            assert abs(marginal_posterior(gp, coord).sum() - 1.0) < 1e-12

    def test_prior_recovery_marginal_matches_beta(self):
        """The eta marginal of the no-data grid is the B(10, 5) prior, up to
        midpoint-rule bias."""
        m = 100
        gp = joint_posterior(DiagnosticData(0, 0, 0, 0), INDEP_PRIOR, m=m)
        marg = marginal_posterior(gp, "eta")
        mid = grid_midpoints(m)
        ref = np.array([math.exp(float(closed_form_logpdf(
            FamilySpec.independent(BetaParams(10, 5), BetaParams(1, 1)), x, 0.5
        ))) for x in mid]) / m
        assert np.max(np.abs(marg - ref)) < 2e-5

    def test_invalid_coordinate(self):
        with pytest.raises(ValueError):
            marginal_posterior(point_mass_grid(10, 1, 1), "pi")

    def test_marginals_are_the_weight_sums_read_only(self):
        gp = joint_posterior(DiagnosticData(50, 20, 15, 25), OLM_PRIOR, m=60)
        pe, pt = gp.marginals
        assert np.array_equal(pe, gp.weights.sum(axis=1)) and np.array_equal(pt, gp.weights.sum(axis=0))
        assert not pe.flags.writeable and not pt.flags.writeable
        assert gp.marginals[0] is pe
        with pytest.raises(ValueError):
            marginal_csv(gp, "pi")

    def test_results_do_not_depend_on_the_call_order(self):
        d = DiagnosticData(200, 80, 61, 97)
        calls = {
            "summary": posterior_summary,
            "predictive": predictive_propensity,
            "csv": lambda gp: marginal_csv(gp, "eta") + marginal_csv(gp, "theta"),
            "marginal": lambda gp: marginal_posterior(gp, "theta").tobytes(),
        }
        seen = {}
        for order in itertools.permutations(calls):
            gp = joint_posterior(d, OLM_PRIOR, m=40)
            for name in order:
                seen.setdefault(name, set()).add(repr(calls[name](gp)))
        assert all(len(values) == 1 for values in seen.values())

    def test_writing_a_returned_marginal_leaves_the_summary(self):
        gp = joint_posterior(DiagnosticData(50, 20, 15, 25), OLM_PRIOR, m=60)
        before = posterior_summary(gp), predictive_propensity(gp)
        for coord in ("eta", "theta"):
            marginal_posterior(gp, coord)[:] = 0.5
        assert (posterior_summary(gp), predictive_propensity(gp)) == before
        assert marginal_posterior(gp, "eta").sum() == pytest.approx(1.0)

    def test_marginal_csv_two_columns(self):
        gp = point_mass_grid(12, 3, 4)
        text = marginal_csv(gp, "theta")
        lines = text.strip().split("\n")
        assert lines[0] == "coordinate,probability"
        assert len(lines) == 13


class TestPosteriorSummary:
    def test_uniform_grid(self):
        m = 10
        gp = GridPosterior(
            m=m,
            weights=np.full((m, m), 1.0 / (m * m)),
            eta_axis=grid_midpoints(m),
            theta_axis=grid_midpoints(m),
            prior=INDEP_PRIOR,
            data=DiagnosticData(0, 0, 0, 0),
        )
        s = posterior_summary(gp)
        assert s.mean_eta == pytest.approx(0.5, abs=1e-14)
        assert s.mean_theta == pytest.approx(0.5, abs=1e-14)
        assert s.correlation == pytest.approx(0.0, abs=1e-12)
        assert s.mode_cell == (0, 0)  # all tied; lexicographically smallest wins

    def test_point_mass(self):
        gp = point_mass_grid(20, 7, 13)
        s = posterior_summary(gp)
        assert s.mean_eta == pytest.approx((7 + 0.5) / 20, abs=1e-15)
        assert s.mean_theta == pytest.approx((13 + 0.5) / 20, abs=1e-15)
        assert s.mode_cell == (7, 13)
        assert s.correlation == 0.0

    def test_tie_breaks_lexicographically(self):
        w = np.zeros((10, 10))
        w[4, 6] = 0.5
        w[4, 2] = 0.5
        gp = GridPosterior(
            m=10,
            weights=w,
            eta_axis=grid_midpoints(10),
            theta_axis=grid_midpoints(10),
            prior=INDEP_PRIOR,
            data=DiagnosticData(0, 0, 0, 0),
        )
        assert posterior_summary(gp).mode_cell == (4, 2)

    def test_independent_posterior_has_no_correlation(self):
        """A product prior times a product likelihood has correlation exactly 0.  At n = 10^7 the
        posterior sd is ~2e-4, so moments not taken about the mean would cancel to noise."""
        prior = PriorSpec(FamilySpec.independent(BetaParams(1, 1), BetaParams(1, 1)), BetaParams(1, 1))
        d = DiagnosticData(10**7, 3_500_000, 2_800_000, 5_000_000)
        assert abs(posterior_summary(joint_posterior(d, prior, m=1000)).correlation) <= 1e-10

    def test_an5_prior_grid_correlation(self):
        gp = joint_posterior(
            DiagnosticData(0, 0, 0, 0), AN5_PRIOR, m=100, rng=RngState(74), prior_samples=2_000_000
        )
        assert posterior_summary(gp).correlation == pytest.approx(-0.65, abs=0.03)


class TestConditionalOracle:
    """Posterior moments against tests/conditional_oracle.py, which integrates over the shared gamma draw."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 1000), data=st.data())
    def test_indep_matches_the_exact_beta_posteriors(self, n, data):
        """At any split of n <= 10^3, where the oracle's fixed ranges hold the posterior mass."""
        n1 = data.draw(st.integers(0, n))
        d = DiagnosticData(n, n1, data.draw(st.integers(0, n1)), data.draw(st.integers(0, n - n1)))
        got = conditional_posterior(INDEP_PRIOR.eta_theta_prior, d)
        for mean, var, (a, b) in [
            (got.mean_eta, got.var_eta, (10 + d.k1, 5 + d.n1 - d.k1)),
            (got.mean_theta, got.var_theta, (5 + d.k2, 2.5 + d.n2 - d.k2)),
        ]:
            assert abs(mean - a / (a + b)) <= 1e-12
            assert abs(var - a * b / ((a + b) ** 2 * (a + b + 1))) <= 1e-12

    @pytest.mark.parametrize("family, m", [
        (OLM_PRIOR.eta_theta_prior, 100),
        (OLM_PRIOR.eta_theta_prior, 1000),
        (FamilySpec.ol_plus(10, 2.5, 5), 1000),
        (FamilySpec.ol_star(10, 2.5, 5), 1000),
    ], ids=["ol-minus-100", "ol-minus-1000", "ol-plus-1000", "ol-star-1000"])
    def test_ol_grid_posterior_matches_the_oracle(self, family, m):
        """At n = 100 the posterior vanishes to high order at the edges of the square, so the grid's
        midpoint sums agree with the integrals to rounding."""
        d = DiagnosticData(100, 35, 28, 50)
        gp = joint_posterior(d, PriorSpec(family, BetaParams(1, 1)), m=m)
        s = posterior_summary(gp)
        var_eta, var_theta = (float(p @ (gp.eta_axis - mean) ** 2)
                              for p, mean in zip(gp.marginals, (s.mean_eta, s.mean_theta)))
        want = conditional_posterior(family, d)
        got = (s.mean_eta, s.mean_theta, var_eta, var_theta, s.correlation)
        assert np.abs(np.subtract(got, want)).max() <= 1e-12


class TestPredictiveValues:
    def test_symmetric_point(self):
        assert predictive_values(0.5, 0.5, 0.5) == (0.5, 0.5)

    def test_ground_truth_configuration(self):
        pi, eta, theta = 0.35, 0.773, 0.599
        lam, psi = predictive_values(pi, eta, theta)
        # direct arithmetic oracle
        assert lam == pytest.approx(eta * pi / (eta * pi + (1 - theta) * (1 - pi)), rel=1e-14)
        assert lam == pytest.approx(0.509, abs=5e-4)
        assert psi == pytest.approx(theta * (1 - pi) / (theta * (1 - pi) + (1 - eta) * pi), rel=1e-14)

    def test_perfect_test_limit(self):
        lam, psi = predictive_values(0.3, 1 - 1e-12, 1 - 1e-12)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert psi == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            predictive_values(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            predictive_values(0.5, 1.0, 0.5)


class TestPredictivePropensity:
    def test_point_mass_symmetric(self):
        gp = point_mass_grid(10, 4, 4)  # (0.45, 0.45)
        lam, psi = predictive_propensity(gp, 0.45)
        ref = predictive_values(0.45, 0.45, 0.45)
        assert lam == pytest.approx(ref[0], abs=1e-15)
        assert psi == pytest.approx(ref[1], abs=1e-15)

    @given(
        i=st.integers(0, 19),
        j=st.integers(0, 19),
        pi_star=st.floats(0.01, 0.99),
    )
    def test_point_mass_collapses_to_predictive_values(self, i, j, pi_star):
        gp = point_mass_grid(20, i, j)
        eta = (i + 0.5) / 20
        theta = (j + 0.5) / 20
        got = predictive_propensity(gp, pi_star)
        want = predictive_values(pi_star, eta, theta)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        d=diagnostic_data(),
        m=st.integers(10, 60),
        family=st.one_of(
            st.builds(lambda a: FamilySpec.ol_minus(*a), OL_SHAPES),
            st.builds(an8_embedding, OL_FAMILIES),
            st.builds(lambda a, b, c, e: FamilySpec.independent(BetaParams(a, b), BetaParams(c, e)),
                      SHAPES, SHAPES, SHAPES, SHAPES),
        ),
        pi_star=st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_equals_the_propensity_formula_bit_for_bit(self, d, m, family, pi_star):
        """predictive_values at the posterior means is the propensity formula as it was written out."""
        spec = PriorSpec(family, BetaParams(1, 1))
        gp = joint_posterior(d, spec, m=m)
        _, _, mean_eta, mean_theta = inference._marginal_means(gp)
        pi = pi_posterior(d, spec.pi_prior).mean if pi_star is None else pi_star
        pos = pi * mean_eta
        pos_bar = (1.0 - pi) * (1.0 - mean_theta)
        neg = (1.0 - pi) * mean_theta
        neg_bar = pi * (1.0 - mean_eta)
        want = pos / (pos + pos_bar), neg / (neg + neg_bar)
        assert tuple(map(float.hex, predictive_propensity(gp, pi_star))) == tuple(map(float.hex, want))

    def test_default_pi_star_is_posterior_mean(self):
        d = DiagnosticData(100, 35, 27, 39)
        gp = joint_posterior(d, INDEP_PRIOR, m=50)
        want = predictive_propensity(gp, pi_posterior(d, INDEP_PRIOR.pi_prior).mean)
        assert predictive_propensity(gp) == want

    def test_consistency_with_probability_interpretation(self):
        """A concentrated n=100 posterior lands near the plug-in formulas."""
        from bibeta.synth import SynthConfig, generate, true_params

        config = SynthConfig(pi=0.35, n=100, mu0=3.0, mu1=4.0, t=3.25, rng=RngState(75))
        d = generate(config)
        gp = joint_posterior(d, INDEP_PRIOR, m=100)
        eta, theta = true_params(config)
        pi_star = pi_posterior(d, INDEP_PRIOR.pi_prior).mean
        got = predictive_propensity(gp, pi_star)
        want = predictive_values(0.35, eta, theta)
        assert got[0] == pytest.approx(want[0], abs=0.05)
        assert got[1] == pytest.approx(want[1], abs=0.05)


class TestSerialization:
    def test_weights_csv_shape(self):
        gp = joint_posterior(DiagnosticData(10, 4, 3, 5), INDEP_PRIOR, m=20)
        lines = gp.to_csv().strip().split("\n")
        assert len(lines) == 21
        assert all(len(line.split(",")) == 20 for line in lines)

    def test_json_round_trip(self):
        gp = joint_posterior(DiagnosticData(10, 4, 3, 5), OLM_PRIOR, m=15)
        doc = json.loads(gp.to_json(seed=(9, 0)))
        assert doc["meta"]["m"] == 15
        assert doc["meta"]["data"] == {"n": 10, "n1": 4, "k1": 3, "k2": 5}
        assert doc["meta"]["prior_variant"] == "ol-minus"
        assert doc["meta"]["seed"] == [9, 0]
        w = np.array(doc["data"]["weights"])
        assert w.shape == (15, 15)
        assert abs(w.sum() - 1.0) < 1e-9
