"""Sampler determinism, exactness at extreme shapes, and the sampled law's moments.

Correlation checks take the Pearson correlation of sample_pairs draws and
its influence-function standard error (sample_correlation below) and hold
it to exact values at a few standard errors.
"""

import concurrent.futures
import math
import os
import sys
import tracemalloc
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy import special as sp_special
from scipy import stats

import launcher
from bibeta import families, sampling
from bibeta.cli import main
from bibeta.families import FamilySpec, an8_embedding
from bibeta.grids import MIN_ESTIMATED_SAMPLES, density_grid
from bibeta.sampling import (
    BLOCK,
    LOG_SPACE_SHAPE,
    RngState,
    sample_pairs,
)
from bibeta.special import BetaParams
from flip_table import flip_axes

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
    rng = RngState(seed)
    return np.exp(sampling._boosted(rng.child(0).random(n), rng.child(1), shape, log_path=True))


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

    @pytest.mark.parametrize("variant", [families.OL_MINUS, families.OL_STAR])
    def test_complemented_embedding_gives_the_same_pairs(self, variant):
        """A complemented coordinate is rest / (num + rest), so OL- and OL* equal
        their AN8 embeddings bit for bit too, on the linear and log paths."""
        for alphas in ((2.0, 3.0, 1.5), (1e-3, 2.0, 1e-3)):
            spec = FamilySpec(variant, alphas)
            a = sample_pairs(RngState(2), spec, 1000)
            b = sample_pairs(RngState(2), an8_embedding(spec), 1000)
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

    @settings(deadline=None, max_examples=10)
    @given(
        log_shape=st.floats(math.log(1e-4), math.log(LOG_SPACE_SHAPE), exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_path_skips_only_draws_that_are_zero(self, log_shape, seed):
        """On the linear path a tiny shape draws Gamma(s+1) only where log(U)/s > UNDERFLOW_LOG,
        and its draws keep the Gamma(s) law rounded to doubles.  Three checks, each with a
        false-alarm rate of at most 1e-6 per example: the Gamma(s+1) draws number
        Binomial(n, 1 - e^(UNDERFLOW_LOG s)); the nonzero draws number Binomial(n, 1 - P(s, 2^-1075)),
        as Gamma(s) rounds to +0.0 below half the least subnormal, where P(s, x) = x^s / Gamma(s+1)
        to within a relative s x; and the nonzero draws pass a KS test against P(s, .) conditioned
        on exceeding 2^-1075."""
        shape, n, floor = math.exp(log_shape), 200_000, 1e-6
        assume(shape < LOG_SPACE_SHAPE)
        rng = RngState(seed)

        class Counted:
            drawn, gen = 0, rng.child(1)

            def standard_gamma(self, a, size):
                self.drawn += size
                return self.gen.standard_gamma(a, size)

        boost = Counted()
        g = sampling._boosted(rng.child(0).random(n), boost, shape, log_path=False)
        p_drawn = -math.expm1(sampling.UNDERFLOW_LOG * shape)
        assert stats.binomtest(boost.drawn, n, p_drawn).pvalue >= floor
        p_zero = math.exp(-1075 * math.log(2.0) * shape - math.lgamma(shape + 1.0))
        nonzero = g[g > 0.0]
        assert stats.binomtest(nonzero.size, n, 1.0 - p_zero).pvalue >= floor
        cdf = lambda v: (sp_special.gammainc(shape, v) - p_zero) / (1.0 - p_zero)  # noqa: E731
        assert stats.kstest(nonzero, cdf).pvalue >= floor


def sample_correlation(family: FamilySpec, n: int, rng: RngState):
    """Pearson correlation of n sampled pairs and its standard error.

    The standard error is the influence-function (delta method) one,
    sd(zx zy - r (zx^2 + zy^2) / 2) / sqrt(n) over the standardized draws,
    which holds for any law; the normal-theory (1 - r^2) / sqrt(n) gives
    only 0.57x the seed-to-seed spread for OL+(1,1,0.1).
    """
    x, y = sample_pairs(rng, family, n)
    dx, dy = x - float(x.mean()), y - float(y.mean())
    sd_x, sd_y = math.sqrt(float(x.var(ddof=1))), math.sqrt(float(y.var(ddof=1)))
    r = float((dx * dy).sum() / (n - 1)) / (sd_x * sd_y)
    dx /= sd_x
    dy /= sd_y
    return r, float(np.std(dx * dy - 0.5 * r * (dx * dx + dy * dy))) / math.sqrt(n)


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
        n = 400_000
        r, _ = sample_correlation(spec, n, RngState(35))
        assert abs(r) < 4 / math.sqrt(n)

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

    @pytest.mark.parametrize("variant", [families.OL_MINUS, families.OL_STAR])
    @pytest.mark.parametrize("shape", [1e-3, 1e-4])
    def test_complemented_tail_near_zero(self, variant, shape):
        """Complemented coordinates keep their law far below 1e-16, where 1 - c
        would round to 0: the empirical CDF at 1e-300, 1e-100 and 1e-10 is
        within 5 SE of the exact regularized incomplete beta."""
        n = 400_000
        family = FamilySpec(variant, (shape, 2.0, shape))
        xy = sample_pairs(RngState(38), family, n)
        for coord, p in zip(xy, families.marginal_params(family)):
            for t in (1e-300, 1e-100, 1e-10):
                exact = float(sp_special.betainc(p.a, p.b, t))
                se = math.sqrt(exact * (1.0 - exact) / n)
                assert abs((coord < t).mean() - exact) < 5 * se, (p, t)


class TestCorrelationSigns:
    @pytest.mark.parametrize("alphas", [(1, 1, 1), (3, 1, 1), (10, 2.5, 5), (2, 5, 0.5)])
    def test_signs_at_four_standard_errors(self, alphas):
        n = 200_000
        plus, plus_se = sample_correlation(FamilySpec.ol_plus(*alphas), n, RngState(41))
        minus, minus_se = sample_correlation(FamilySpec.ol_minus(*alphas), n, RngState(42))
        star, star_se = sample_correlation(FamilySpec.ol_star(*alphas), n, RngState(43))
        assert plus > 4 * plus_se
        assert minus < -4 * minus_se
        assert star > 4 * star_se


class TestEstimateMoments:
    """Sampled moments against exact values, with honest standard errors."""

    def test_against_exact_ol_correlations(self):
        for alphas, rho in OL_EXACT_CORR.items():
            r, se = sample_correlation(FamilySpec.ol_plus(*alphas), 1_000_000, RngState(51))
            assert abs(r - rho) < 4 * se

    def test_an5_survivability_prior_correlation(self):
        r, _ = sample_correlation(FamilySpec.an5(10, 10, 0.1, 0.1, 10), 1_000_000, RngState(52))
        assert r == pytest.approx(0.484, abs=0.01)

    def test_variances_match_analytic_marginals(self):
        x, y = sample_pairs(RngState(53), FamilySpec.ol_minus(10, 2.5, 5), 1_000_000)
        assert x.var(ddof=1) == pytest.approx(BetaParams(10, 5).variance, rel=0.02)
        assert y.var(ddof=1) == pytest.approx(BetaParams(5, 2.5).variance, rel=0.02)

    def test_standard_error_matches_seed_to_seed_spread(self):
        """Slow-decay OL+(1,1,0.1): the normal-theory (1 - r^2)/sqrt(n) is 0.57x the spread."""
        spec = FamilySpec.ol_plus(1, 1, 0.1)
        ests = [sample_correlation(spec, 20_000, RngState(5500 + k)) for k in range(120)]
        spread = np.std([r for r, _ in ests], ddof=1)
        ratio = np.mean([se for _, se in ests]) / spread
        assert 0.8 <= ratio <= 1.25


def takes_log_path(family: FamilySpec) -> bool:
    """Some axis's live numerator or live rest has only shapes below LOG_SPACE_SHAPE."""
    shapes = family.alphas
    return any(
        all(shapes[i] < LOG_SPACE_SHAPE for i in side if shapes[i] > 0.0)
        for num, rest, _ in flip_axes(family.variant)
        for side in (num, rest)
    )


def reference_pairs(rng: RngState, family: FamilySpec, n: int, log_path=None, dtype=np.float64):
    """Whole-array oracle of the block stream layout.

    Each nonzero-shape component j is drawn block by block from its
    sub-stream rng.child(call_key, j, k) and the blocks are concatenated.
    A shape s below LOG_SPACE_SHAPE takes its uniforms U from that stream
    and its Gamma(s+1) draws G, in order, from rng.child(call_key, j, k, 1),
    and its log draw is log G + log(U)/s.  Where the family takes the linear
    path (takes_log_path), G is drawn only where log(U)/s > UNDERFLOW_LOG and
    the draw is +0.0 elsewhere.  Both ratios are then assembled once over all
    n draws from the (roles, flip) table of flip_table, a complemented
    coordinate dividing its rest, in log space where takes_log_path says so
    (or log_path forces; the draws keep the family's layout).  Sums add in
    index order, as the sampler's do, and the ratio's denominator top + rem
    equals rem + top bit for bit, so the block-parallel sampler must
    reproduce these bytes for any n, any CHUNK and any core count.  With
    dtype=np.longdouble the same draws are assembled in extended precision.
    """
    shapes, b = family.alphas, sampling.BLOCK
    layout_log = takes_log_path(family)
    if log_path is None:
        log_path = layout_log
    call_key = int(rng.generator.integers(1 << 63))
    sizes = [min(b, n - lo) for lo in range(0, n, b)]
    live = [i for i, s in enumerate(shapes) if s > 0.0]

    def cat(parts, dtype=float):
        return np.concatenate([np.empty(0, dtype)] + parts)

    draws = {}
    for j, i in enumerate(live):
        s = shapes[i]
        gens = [rng.child(call_key, j, k) for k in range(len(sizes))]
        with np.errstate(divide="ignore"):
            if s < LOG_SPACE_SHAPE:
                t = [np.log(gen.random(size)) / s for gen, size in zip(gens, sizes)]
                kept = [np.full(v.size, True) if layout_log else v > sampling.UNDERFLOW_LOG for v in t]
                w = [rng.child(call_key, j, k, 1).standard_gamma(s + 1.0, np.count_nonzero(c))
                     for k, c in enumerate(kept)]
                t, kept, w = cat(t), cat(kept, bool), cat(w)
                logs = np.full(n, -np.inf)
                logs[kept] = np.log(w) + t[kept]
                draws[i] = logs if log_path else np.exp(logs)
            else:
                g = cat([gen.standard_gamma(s, size=size) for gen, size in zip(gens, sizes)])
                draws[i] = np.log(g) if log_path else g
        draws[i] = draws[i].astype(dtype)
    coords = []
    for num, rest, flipped in flip_axes(family.variant):
        num = [draws[i] for i in num if i in draws]
        rest = [draws[i] for i in rest if i in draws]
        if log_path:
            shift = reduce(np.maximum, num + rest)
            num = [np.exp(v - shift) for v in num]
            rest = [np.exp(v - shift) for v in rest]
        top, rem = reduce(np.add, num), reduce(np.add, rest)
        coords.append((rem if flipped else top) / (top + rem))
    return coords[0], coords[1]


BLOCK_FAMILIES = {
    "ol_plus": FamilySpec.ol_plus(2, 3, 1.5),
    "ol_minus": FamilySpec.ol_minus(10, 2.5, 5),
    "ol_star": FamilySpec.ol_star(3, 1, 1),
    "ol_minus_log": FamilySpec.ol_minus(1e-3, 2, 1e-3),
    "ol_star_log": FamilySpec.ol_star(1e-4, 1e-4, 3),
    "an5_log": FamilySpec.an5(5, 5, 5, 1e-4, 1e-4),
    "an5_linear_tiny": FamilySpec.an5(5, 5, 5, 5, 1e-4),
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
# the shapes of the linear-path accuracy property
LINEAR_RULE_SHAPE = st.sampled_from([1e-4, 0.05, 1.0, 10.0])
# histogram grids for the one-core and memory tests: an8_zeros has exact cells,
# so its grid half bins a vector with two components on both axes instead
BINNED_FAMILIES = {"an5_log": BLOCK_FAMILIES["an5_log"], "an8_zeros": BLOCK_FAMILIES["an8_zeros_log"]}


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

    def test_log_path_only_where_a_sum_needs_it(self):
        """The block families cover both paths: AN5(5,5,5,1e-4,1e-4) has an X rest of tiny shapes
        alone; AN5(5,5,5,5,1e-4) puts a shape-5 term beside its tiny one on every side."""
        assert takes_log_path(BLOCK_FAMILIES["an5_log"]) and takes_log_path(BLOCK_FAMILIES["an5_all_tiny"])
        assert not takes_log_path(BLOCK_FAMILIES["an5_linear_tiny"])

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended-precision long double")
    @settings(deadline=None, max_examples=60)
    @given(
        alphas=st.one_of(
            st.tuples(st.just(families.AN5), st.lists(LINEAR_RULE_SHAPE, min_size=5, max_size=5)),
            st.tuples(st.just(families.AN8), st.lists(LINEAR_RULE_SHAPE, min_size=8, max_size=8)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_path_is_exact_to_four_ulps(self, alphas, seed):
        """Where the rule sums tiny draws in linear space, every coordinate is within 4 ulps of
        the ratio of the same draws assembled in extended precision."""
        family = FamilySpec(*alphas)
        if takes_log_path(family):
            reject()
        x, y = sample_pairs(RngState(seed), family, 2000)
        rx, ry = reference_pairs(RngState(seed), family, 2000, log_path=False, dtype=np.longdouble)
        for c, r in ((x, rx), (y, ry)):
            assert np.all(np.abs(c - r) <= 4 * np.spacing(np.abs(r).astype(float)))

    def test_an5_prior_pairs_within_four_ulps_of_the_log_assembly(self):
        """AN5(5,5,5,5,1e-4), now summed in linear space, stays within 4 ulps of its log-space pairs."""
        family, n = BLOCK_FAMILIES["an5_linear_tiny"], 300_000
        x, y = sample_pairs(RngState(90), family, n)
        lx, ly = reference_pairs(RngState(90), family, n, log_path=True)
        for c, log_c in ((x, lx), (y, ly)):
            assert np.all(np.abs(c - log_c) <= 4 * np.spacing(np.maximum(c, log_c)))

    def test_pairs_equal_whole_array_assembly_at_block_size(self):
        family, n = BLOCK_FAMILIES["an5_log"], 3 * BLOCK + 5
        x, y = sample_pairs(RngState(85), family, n)
        rx, ry = reference_pairs(RngState(85), family, n)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()

    @pytest.mark.parametrize("name", ["an5_log", "an8_zeros"])
    def test_one_core_gives_the_same_bytes(self, monkeypatch, name):
        """One core gives the default run's samples and grid, byte for byte."""
        family, binned, n = BLOCK_FAMILIES[name], BINNED_FAMILIES[name], 3 * 4096 + 5
        monkeypatch.setattr(sampling, "BLOCK", 4096)
        pairs = sample_pairs(RngState(82), family, n)
        grid = density_grid(binned, m=50, n_samples=n, rng=RngState(83))
        assert grid.estimated
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_x, one_y = sample_pairs(RngState(82), family, n)
        assert one_x.tobytes() == pairs[0].tobytes() and one_y.tobytes() == pairs[1].tobytes()
        assert density_grid(binned, m=50, n_samples=n, rng=RngState(83)).cells.tobytes() == grid.cells.tobytes()

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

    @pytest.mark.parametrize("name", ["an5_log", "an8_zeros"])
    def test_grid_memory_does_not_grow_with_n(self, monkeypatch, name):
        """density_grid holds only per-block temporaries: its traced peak at
        32 blocks is under twice its peak at 4 blocks.  One worker, so the
        peak does not depend on how the blocks happen to overlap."""
        monkeypatch.setattr(sampling, "BLOCK", 1 << 14)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        peaks = []
        for blocks in (4, 32):
            tracemalloc.start()
            try:
                density_grid(BINNED_FAMILIES[name], m=20, n_samples=blocks * sampling.BLOCK, rng=RngState(89))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_log_transforms_take_zero_draws_silently_on_a_thread(self):
        """A gamma draw or uniform that underflows to 0 has log -inf, as at one thread, with no
        warning, and a boosted draw on the linear path is then +0.0."""

        class Zeros:  # Gamma(s+1) draws that underflowed to 0
            def standard_gamma(self, a, size):
                return np.zeros(size)

        g = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                pool.submit(sampling._log_in_place, g).result()
                w = pool.submit(sampling._boosted, np.array([0.5, 0.0]), Zeros(), 1e-4, True).result()
                lin = pool.submit(sampling._boosted, np.array([1.0, 0.0]), Zeros(), 1e-4, False).result()
        assert g.tolist() == [-np.inf, 0.0]
        assert w.tolist() == [-np.inf, -np.inf]
        assert lin.tolist() == [0.0, 0.0]

    def test_more_workers_than_cores(self, monkeypatch):
        """Four threads on fewer cores, switching often, still fill every slot exactly once
        and add every chunk's cells to the shared histogram exactly once."""
        monkeypatch.setattr(sampling, "BLOCK", 512)
        monkeypatch.setattr(sampling, "CHUNK", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        family, n, m = BLOCK_FAMILIES["an5_log"], 40 * 512 + 3, 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            x, y = sample_pairs(RngState(86), family, n)
            cells = density_grid(family, m=m, n_samples=n, rng=RngState(86)).cells
        finally:
            sys.setswitchinterval(interval)
        rx, ry = reference_pairs(RngState(86), family, n)
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()
        counts = np.histogram2d(rx, ry, bins=m, range=[[0.0, 1.0], [0.0, 1.0]])[0]
        assert cells.tobytes() == (counts * (m * m / n)).tobytes()

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


def chunked_outputs(tmp_path, family: FamilySpec, ns) -> list:
    """sample_pairs bytes and streamed `sample` CSV bytes at each n and, where the family has
    a histogram grid, density_grid cells of at least 10 blocks and its sample floor."""
    out, csv = [], tmp_path / "sample.csv"
    argv = ["sample", "--family", family.variant, "--alphas", ",".join(map(repr, family.alphas)), "--seed", "5"]
    for n in ns:
        x, y = sample_pairs(RngState(5, 1), family, n)
        assert main([*argv, "--n", str(n), "--out", str(csv)]) == 0
        out += [x.tobytes(), y.tobytes(), csv.read_bytes()]
    n = max(10 * sampling.BLOCK, MIN_ESTIMATED_SAMPLES) + 5
    grid = density_grid(family, m=30, n_samples=n, rng=RngState(6))
    return out + [grid.cells.tobytes() if grid.estimated else None]


class TestChunks:
    @pytest.mark.parametrize("chunk, b", [(1, 256), (7, SMALL_BLOCK), (4096, 16384)], ids=["1", "7", "4096"])
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_bytes_do_not_depend_on_chunk(self, monkeypatch, tmp_path, name, chunk, b):
        """CHUNK only sizes the working set: pairs, CSV and grid equal the CHUNK = BLOCK run."""
        family, ns = BLOCK_FAMILIES[name], [1, chunk - 1, chunk + 1, b + 1, 3 * b + 5]
        monkeypatch.setattr(sampling, "BLOCK", b)
        monkeypatch.setattr(sampling, "CHUNK", b)
        whole = chunked_outputs(tmp_path, family, ns)
        monkeypatch.setattr(sampling, "CHUNK", chunk)
        assert chunked_outputs(tmp_path, family, ns) == whole

    @pytest.mark.parametrize("name", ["an5_linear_tiny", "an5_log"])
    def test_tiny_paths_do_not_depend_on_chunk_at_block_size(self, monkeypatch, name):
        """At the default BLOCK, CHUNK = 2^10 and 2^14 give the same pairs on the linear and the
        log tiny path, whose Gamma(s+1) streams are taken a chunk at a time."""
        family, n = BLOCK_FAMILIES[name], BLOCK + 3 * 1024 + 5
        runs = []
        for chunk in (1 << 10, 1 << 14):
            monkeypatch.setattr(sampling, "CHUNK", chunk)
            runs.append([c.tobytes() for c in sample_pairs(RngState(91), family, n)])
        assert runs[0] == runs[1]

    def test_tiny_shape_working_set_is_per_chunk(self, monkeypatch):
        """Log-path AN5(5,5,5,1e-4,1e-4) blocks of 2^16 pairs, drawn a 2^10-pair chunk at a time
        on one worker, peak under 32 chunk-sized float arrays (256 KB) of traced memory.  Holding
        each block's Gamma(s+1) draws of its two tiny shapes (1 MB) peaked at 142 of them."""
        monkeypatch.setattr(sampling, "BLOCK", 1 << 16)
        monkeypatch.setattr(sampling, "CHUNK", 1 << 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def draw() -> None:
            family, n = BLOCK_FAMILIES["an5_log"], 4 * sampling.BLOCK
            for _ in sampling.pair_blocks(RngState(92), family, n, lambda lo, chunks: sum(1 for _ in chunks)):
                pass

        draw()  # the first call allocates what later calls reuse
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * sampling.CHUNK * 8, peak / (sampling.CHUNK * 8)

    # density_grid's tracemalloc peak in a child on at most two cores, so at most two blocks
    # are in flight on any machine.  At m=100, holding a whole block's pairs peaked at 30-35 MB
    # and CHUNK pairs at 7.4 MB.  At m=1000 the counts and the grid are 8 MB arrays: the grid
    # peaked at 16.6 MB, and with counts returned per block at 46-53 MB.
    PEAK_SCRIPT = """
import sys, tracemalloc
from bibeta import sampling
from bibeta.families import FamilySpec
from bibeta.grids import density_grid
tracemalloc.start()
density_grid(FamilySpec.an5(5, 5, 5, 5, 1e-4), m=int(sys.argv[1]), n_samples=4 * sampling.BLOCK,
             rng=sampling.RngState(3))
print(tracemalloc.get_traced_memory()[1])
"""

    @pytest.mark.parametrize("m, bound_mb", [(100, 16), (1000, 32)])
    def test_grid_peak_is_per_chunk(self, m, bound_mb):
        out, _ = launcher.run_python(["-c", self.PEAK_SCRIPT, str(m)])
        assert int(out) < bound_mb * 2**20, int(out) / 2**20
