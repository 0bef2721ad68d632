"""Sampler determinism, exactness at extreme shapes, and moment estimation."""

import concurrent.futures
import math
import os
import sys
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from bibeta import families, sampling
from bibeta.families import FamilySpec, an8_embedding
from bibeta.grids import density_grid
from bibeta.sampling import (
    BLOCK,
    LOG_SPACE_SHAPE,
    MomentEstimate,
    RngState,
    _boost_log_in_place,
    estimate_moments,
    sample_pairs,
)
from bibeta.special import BetaParams

# exact correlations of the OL construction, frozen from 2-D adaptive
# quadrature of the closed-form density (abs tol 1e-10)
OL_EXACT_CORR = {
    (1.0, 1.0, 1.0): 0.4784176043574391,
    (3.0, 3.0, 1.0): 0.6835208714941803,
    (10.0, 2.5, 5.0): 0.4647815666895259,
}


def reference_small_shape_gamma(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Independent rejection sampler for shape < 1 (Ahrens-Dieter GS).

    The accept test for the power branch runs on ln X, so draws far below
    the subnormal range underflow to zero instead of corrupting acceptance.
    """
    out = np.empty(n)
    b = 1.0 + shape / math.e
    for i in range(n):
        while True:
            p = b * rng.random()
            e = rng.standard_exponential()
            if p <= 0.0 or e <= 0.0:
                continue
            if p <= 1.0:
                log_x = math.log(p) / shape
                if log_x <= math.log(e):  # X <= E, compared in log space
                    out[i] = math.exp(log_x)
                    break
            else:
                x = -math.log((b - p) / shape)
                if e >= (1.0 - shape) * math.log(x):
                    out[i] = x
                    break
    return out


# every gamma component of this family has shape 2.5
SHAPE_2_5 = FamilySpec.independent(BetaParams(2.5, 2.5), BetaParams(2.5, 2.5))


class TestDeterminism:
    def test_gamma_sequences_bit_identical(self):
        a = sample_pairs(RngState(7, 3), SHAPE_2_5, 1000)
        b = sample_pairs(RngState(7, 3), SHAPE_2_5, 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_pairs(RngState(7, 0), SHAPE_2_5, 100)
        b = sample_pairs(RngState(7, 1), SHAPE_2_5, 100)
        assert not np.array_equal(a, b)

    def test_pair_sequences_bit_identical(self):
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        x1, y1 = sample_pairs(RngState(11), spec, 500)
        x2, y2 = sample_pairs(RngState(11), spec, 500)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_scalar_draw_advances_state(self):
        rng = RngState(5)
        x1, y1 = sample_pairs(rng, FamilySpec.ol_plus(1, 1, 1), 1)
        x2, y2 = sample_pairs(rng, FamilySpec.ol_plus(1, 1, 1), 1)
        assert (x1[0], y1[0]) != (x2[0], y2[0])


def tiny_gamma(seed: int, shape: float, n: int) -> np.ndarray:
    """Gamma(shape) draws through the log-space boost that sample_pairs uses below 0.02."""
    gen = RngState(seed).generator
    w = gen.standard_gamma(shape + 1.0, size=n)
    _boost_log_in_place(w, gen.random(n), shape)
    return np.exp(w)


def central_moment_4(p: BetaParams) -> float:
    m1, m2, m3, m4 = (p.raw_moment(k) for k in (1, 2, 3, 4))
    return m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4


class TestGammaSample:
    """Tiny shapes straight from the log-space boost; other shapes through
    sample_pairs, whose gamma ratios have exact beta laws."""

    def test_zero_shape_is_constant_zero(self):
        """AN8 zero slots draw nothing and add exactly 0: the AN8 embedding of
        OL+ reproduces OL+'s pairs bit for bit, on the linear and log paths."""
        for alphas in ((2.0, 3.0, 1.5), (1e-3, 2.0, 1e-3)):
            spec = FamilySpec.ol_plus(*alphas)
            a = sample_pairs(RngState(1), spec, 10)
            b = sample_pairs(RngState(1), an8_embedding(spec), 10)
            assert np.array_equal(a, b)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec.an8(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FamilySpec.independent(BetaParams(-1.0, 1.0), BetaParams(1.0, 1.0))

    def test_exponential_mean(self):
        """Shape-1 and shape-2 draws: X = U1/(U1+U2) ~ B(1, 2), at 5 SE."""
        n, p = 1_000_000, BetaParams(1.0, 2.0)
        x, _ = sample_pairs(RngState(21), FamilySpec.independent(p, p), n)
        assert abs(x.mean() - p.mean) < 5 * math.sqrt(p.variance / n)

    def test_shape_five_variance(self):
        """Shape-5 and shape-1 draws: X = U1/(U1+U2) ~ B(5, 1), variance at 5.59 SE."""
        n, p = 1_000_000, BetaParams(5.0, 1.0)
        x, _ = sample_pairs(RngState(22), FamilySpec.independent(p, p), n)
        se = math.sqrt((central_moment_4(p) - p.variance**2) / n)
        assert abs(x.var() - p.variance) < 5.59 * se

    def test_tiny_shape_mean(self):
        shape = 1e-4
        x = tiny_gamma(23, shape, 1_000_000)
        se = math.sqrt(shape / 1_000_000)  # gamma variance equals the shape
        assert abs(x.mean() - shape) < 3 * se

    def test_tiny_shape_distribution_against_incomplete_gamma(self):
        """Tail masses match Q(shape, t) = Gamma(shape, t)/Gamma(shape)."""
        shape, n = 1e-4, 1_000_000
        x = tiny_gamma(24, shape, n)
        for t in (1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0):
            q = float(sp_special.gammaincc(shape, t))
            se = math.sqrt(q * (1 - q) / n)
            assert abs((x > t).mean() - q) < 4 * se + 1e-9

    def test_tiny_shape_against_rejection_oracle(self):
        """Library draws and an independent GS rejection sampler agree in law."""
        shape, n = 1e-4, 120_000
        ours = tiny_gamma(25, shape, n)
        ref = reference_small_shape_gamma(np.random.default_rng(26), shape, n)
        for t in (1e-3, 0.05, 0.5):
            p_ours = (ours > t).mean()
            p_ref = (ref > t).mean()
            se = math.sqrt((p_ours * (1 - p_ours) + p_ref * (1 - p_ref)) / n)
            assert abs(p_ours - p_ref) < 4 * se + 1e-9
        se_mean = math.sqrt(2 * shape / n)
        assert abs(ours.mean() - ref.mean()) < 4 * se_mean


def moment_se(p: BetaParams, k: int, n: int) -> float:
    return math.sqrt(max(p.raw_moment(2 * k) - p.raw_moment(k) ** 2, 0.0) / n)


class TestSamplePairs:
    def test_ol_plus_uniform_marginal_mean(self):
        x, _ = sample_pairs(RngState(31), FamilySpec.ol_plus(1, 1, 1), 1_000_000)
        assert abs(x.mean() - 0.5) < 0.002

    def test_an5_screening_prior_means(self):
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        x, y = sample_pairs(RngState(32), spec, 1_000_000)
        assert abs(x.mean() - 2.0 / 3.0) < 0.003
        assert abs(y.mean() - 2.0 / 3.0) < 0.003

    def test_ol_minus_marginals_match_betas(self):
        spec = FamilySpec.ol_minus(10, 2.5, 5)
        n = 1_000_000
        x, y = sample_pairs(RngState(33), spec, n)
        for coord, p in ((x, BetaParams(10, 5)), (y, BetaParams(5, 2.5))):
            for k in (1, 2, 3, 4):
                assert abs((coord**k).mean() - p.raw_moment(k)) < 4 * moment_se(p, k, n)

    def test_draws_lie_in_unit_square(self):
        for spec in (FamilySpec.ol_star(3, 1, 1), FamilySpec.an8(1, 1, 1, 1, 1, 1, 1, 1)):
            x, y = sample_pairs(RngState(34), spec, 10_000)
            assert np.all((x >= 0) & (x <= 1) & (y >= 0) & (y <= 1))

    def test_independent_family_uncorrelated(self):
        spec = FamilySpec.independent(BetaParams(2, 3), BetaParams(4, 1))
        est = estimate_moments(spec, 400_000, RngState(35))
        assert abs(est.correlation) < 4 / math.sqrt(est.n_samples)

    def test_all_tiny_shapes_stay_well_defined(self):
        """Marginals like B(1e-4, 1e-4) concentrate on {0, 1}; the log-space
        ratio keeps the law intact where linear doubles would give 0/0."""
        n = 200_000
        spec = FamilySpec.independent(BetaParams(1e-4, 1e-4), BetaParams(1e-4, 2e-4))
        x, y = sample_pairs(RngState(36), spec, n)
        assert not np.any(np.isnan(x)) and not np.any(np.isnan(y))
        se = math.sqrt(0.25 / n)
        assert abs(x.mean() - 0.5) < 4 * se
        assert abs(y.mean() - 1e-4 / 3e-4) < 4 * math.sqrt(2.0 / 9.0 / n)
        spec = FamilySpec.an5(1e-4, 1e-4, 1e-4, 1e-4, 1e-4)
        x, y = sample_pairs(RngState(37), spec, n)
        assert not np.any(np.isnan(x)) and not np.any(np.isnan(y))
        assert abs(x.mean() - 0.5) < 4 * se


class TestCorrelationSigns:
    @pytest.mark.parametrize("alphas", [(1, 1, 1), (3, 1, 1), (10, 2.5, 5), (2, 5, 0.5)])
    def test_signs_at_four_standard_errors(self, alphas):
        n = 200_000
        plus = estimate_moments(FamilySpec.ol_plus(*alphas), n, RngState(41))
        minus = estimate_moments(FamilySpec.ol_minus(*alphas), n, RngState(42))
        star = estimate_moments(FamilySpec.ol_star(*alphas), n, RngState(43))
        assert plus.correlation > 4 * plus.std_error_corr
        assert minus.correlation < -4 * minus.std_error_corr
        assert star.correlation > 4 * star.std_error_corr


class TestEstimateMoments:
    def test_against_exact_ol_correlations(self):
        for alphas, rho in OL_EXACT_CORR.items():
            est = estimate_moments(FamilySpec.ol_plus(*alphas), 1_000_000, RngState(51))
            assert abs(est.correlation - rho) < 4 * est.std_error_corr

    def test_an5_survivability_prior_correlation(self):
        est = estimate_moments(FamilySpec.an5(10, 10, 0.1, 0.1, 10), 1_000_000, RngState(52))
        assert est.correlation == pytest.approx(0.484, abs=0.01)

    def test_variances_match_analytic_marginals(self):
        spec = FamilySpec.ol_minus(10, 2.5, 5)
        est = estimate_moments(spec, 1_000_000, RngState(53))
        assert est.var_x == pytest.approx(BetaParams(10, 5).variance, rel=0.02)
        assert est.var_y == pytest.approx(BetaParams(5, 2.5).variance, rel=0.02)

    def test_standard_error_formula(self):
        """The influence-function standard error, recomputed from the same draws."""
        n = 10_000
        est = estimate_moments(FamilySpec.ol_plus(1, 1, 1), n, RngState(54))
        x, y = sample_pairs(RngState(54), FamilySpec.ol_plus(1, 1, 1), n)
        zx = (x - x.mean()) / x.std(ddof=1)
        zy = (y - y.mean()) / y.std(ddof=1)
        r = est.correlation
        assert est.std_error_corr == pytest.approx(
            np.std(zx * zy - r / 2 * (zx**2 + zy**2)) / math.sqrt(n), rel=1e-12
        )
        assert isinstance(est, MomentEstimate)
        assert abs(est.correlation) <= 1.0

    def test_standard_error_matches_seed_to_seed_spread(self):
        """Slow-decay OL+(1,1,0.1): the normal-theory (1 - r^2)/sqrt(n) is 0.57x the spread."""
        ests = [estimate_moments(FamilySpec.ol_plus(1, 1, 0.1), 20_000, RngState(5500 + k)) for k in range(120)]
        spread = np.std([e.correlation for e in ests], ddof=1)
        ratio = np.mean([e.std_error_corr for e in ests]) / spread
        assert 0.8 <= ratio <= 1.25

    def test_requires_rng_and_two_samples(self):
        with pytest.raises(ValueError):
            estimate_moments(FamilySpec.ol_plus(1, 1, 1), 1, RngState(1))
        with pytest.raises(ValueError):
            estimate_moments(FamilySpec.ol_plus(1, 1, 1), 100)


def reference_pairs(rng: RngState, family: FamilySpec, n: int):
    """Whole-array assembly, one ratio per coordinate over all n draws at once.

    The block-parallel sampler must reproduce these bytes for any n and any
    core count; the code is the single-threaded assembly it replaced.
    """
    shapes = family.alphas
    gen = rng.generator
    if any(0.0 < s < LOG_SPACE_SHAPE for s in shapes):
        def log_gamma(s):
            w = gen.standard_gamma(s + 1.0, size=n)
            u = gen.random(n)
            return np.log(w) + np.log(u) / s

        neg_inf = np.full(n, -np.inf)
        with np.errstate(divide="ignore"):
            draws = [
                neg_inf if s == 0.0 else (log_gamma(s) if s < LOG_SPACE_SHAPE else np.log(gen.standard_gamma(s, size=n)))
                for s in shapes
            ]

        def ratio(num, rest):
            top = reduce(np.logaddexp, num)
            return np.exp(top - reduce(np.logaddexp, rest, top))
    else:
        draws = [np.zeros(n) if s == 0.0 else gen.standard_gamma(s, size=n) for s in shapes]

        def ratio(num, rest):
            top = reduce(np.add, num)
            return top / reduce(np.add, rest, top)
    coords = []
    for num, rest, flipped in families.ratio_axes(family.variant):
        c = ratio([draws[i] for i in num], [draws[i] for i in rest])
        coords.append(1.0 - c if flipped else c)
    return coords[0], coords[1]


BLOCK_FAMILIES = {
    "ol_plus": FamilySpec.ol_plus(2, 3, 1.5),
    "ol_minus": FamilySpec.ol_minus(10, 2.5, 5),
    "ol_star": FamilySpec.ol_star(3, 1, 1),
    "ol_minus_log": FamilySpec.ol_minus(1e-3, 2, 1e-3),
    "ol_star_log": FamilySpec.ol_star(1e-4, 1e-4, 3),
    "an5_log": FamilySpec.an5(5, 5, 5, 5, 1e-4),
    "an5_all_tiny": FamilySpec.an5(*[1e-4] * 5),
    "an8": FamilySpec.an8(1, 2, 3, 4, 5, 6, 7, 8),
    "an8_zeros": FamilySpec.an8(10, 0, 0, 2.5, 0, 0, 0, 5),
    "an8_zeros_log": FamilySpec.an8(1e-3, 0, 2, 0, 0, 1, 0, 3),
    "indep_log": FamilySpec(families.INDEPENDENT, (2, 3, 1e-4, 4)),
}
# a small block keeps the many-block cases cheap; one test runs at BLOCK itself
SMALL_BLOCK = 1024
# zero, log-path and linear-path shapes, so zeros land in numerators and rests of both paths
ZERO_PATTERN_SHAPE = st.sampled_from([0.0, 1e-4, 0.05, 1.0, 10.0])


class TestBlockAssembly:
    def test_every_variant_is_covered(self):
        assert {f.variant for f in BLOCK_FAMILIES.values()} == families.VARIANTS

    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_pairs_equal_whole_array_assembly(self, monkeypatch, name):
        family, b = BLOCK_FAMILIES[name], SMALL_BLOCK
        monkeypatch.setattr(sampling, "BLOCK", b)
        for n in (0, 1, b - 1, b, b + 1, 3 * b + 5):
            x, y = sample_pairs(RngState(81, 2), family, n)
            rx, ry = reference_pairs(RngState(81, 2), family, n)
            assert x.dtype == rx.dtype and x.shape == rx.shape == (n,)
            assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes(), n

    @settings(deadline=None)
    @given(
        alphas=st.one_of(
            st.tuples(st.just(families.AN5), st.lists(ZERO_PATTERN_SHAPE, min_size=5, max_size=5)),
            st.tuples(st.just(families.AN8), st.lists(ZERO_PATTERN_SHAPE, min_size=8, max_size=8)),
        ),
        n=st.sampled_from([1, SMALL_BLOCK - 1, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_patterns_equal_whole_array_assembly(self, alphas, n, seed):
        """Zero shapes anywhere in AN5/AN8 leave the bytes of the whole-array assembly."""
        variant, shapes = alphas
        try:
            family = FamilySpec(variant, tuple(shapes))
        except ValueError:
            reject()
        with mock.patch.object(sampling, "BLOCK", SMALL_BLOCK):
            x, y = sample_pairs(RngState(seed), family, n)
        rx, ry = reference_pairs(RngState(seed), family, n)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()

    def test_pairs_equal_whole_array_assembly_at_block_size(self):
        family, n = BLOCK_FAMILIES["an5_log"], 3 * BLOCK + 5
        x, y = sample_pairs(RngState(85), family, n)
        rx, ry = reference_pairs(RngState(85), family, n)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()

    @pytest.mark.parametrize("name", ["an5_log", "an8_zeros"])
    def test_one_core_gives_the_same_bytes(self, monkeypatch, name):
        """One core gives the default run's samples and grid, byte for byte."""
        family, n = BLOCK_FAMILIES[name], 3 * 4096 + 5
        monkeypatch.setattr(sampling, "BLOCK", 4096)
        pairs = sample_pairs(RngState(82), family, n)
        cells = density_grid(family, m=50, n_samples=n, rng=RngState(83)).cells
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_x, one_y = sample_pairs(RngState(82), family, n)
        assert one_x.tobytes() == pairs[0].tobytes() and one_y.tobytes() == pairs[1].tobytes()
        assert density_grid(family, m=50, n_samples=n, rng=RngState(83)).cells.tobytes() == cells.tobytes()

    @pytest.mark.parametrize("cpu_count", [None, 1, 3])
    def test_platform_without_affinity_gives_the_same_bytes(self, monkeypatch, cpu_count):
        """Where os has no sched_getaffinity, the core count comes from os.cpu_count; bytes are unchanged."""
        family, n = BLOCK_FAMILIES["an5_log"], 3 * 4096 + 5
        monkeypatch.setattr(sampling, "BLOCK", 4096)
        pairs = sample_pairs(RngState(87), family, n)
        cells = density_grid(family, m=50, n_samples=n, rng=RngState(88)).cells
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert sampling._usable_cores() == (cpu_count or 1)
        x, y = sample_pairs(RngState(87), family, n)
        assert x.tobytes() == pairs[0].tobytes() and y.tobytes() == pairs[1].tobytes()
        assert density_grid(family, m=50, n_samples=n, rng=RngState(88)).cells.tobytes() == cells.tobytes()

    def test_log_transforms_take_zero_draws_silently_on_a_thread(self):
        """A gamma draw that underflows to 0 has log -inf, as at one thread, with no warning."""
        g, w, u = np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.array([0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                pool.submit(sampling._log_in_place, g).result()
                pool.submit(sampling._boost_log_in_place, w, u, 1e-4).result()
        assert g.tolist() == [-np.inf, 0.0]
        assert w.tolist() == [-np.inf, -np.inf]

    def test_more_workers_than_cores(self, monkeypatch):
        """Four threads on fewer cores, switching often, still fill every slot exactly once."""
        monkeypatch.setattr(sampling, "BLOCK", 512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        family, n = BLOCK_FAMILIES["an5_log"], 40 * 512 + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            x, y = sample_pairs(RngState(86), family, n)
        finally:
            sys.setswitchinterval(interval)
        rx, ry = reference_pairs(RngState(86), family, n)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()

    @pytest.mark.parametrize(
        "family",
        [
            FamilySpec.an5(5, 5, 5, 5, 1e-4),
            FamilySpec.an5(*[1e-4] * 5),
            FamilySpec.an8(*[1e-4] * 8),
            FamilySpec.an8(0.05, 0, 0.05, 0.05, 0, 0, 0.05, 0.05),
            BLOCK_FAMILIES["an8_zeros_log"],
        ],
        ids=["an5_log", "an5_all_tiny", "an8_all_tiny", "an8_small_zeros", "an8_zeros_log"],
    )
    def test_no_warning_escapes_a_worker(self, monkeypatch, family):
        """Worker threads do not inherit np.errstate; the log transforms set their own."""
        monkeypatch.setattr(sampling, "BLOCK", 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_pairs(RngState(84), family, 20_000)
            density_grid(family, m=20, n_samples=20_000, rng=RngState(84))
