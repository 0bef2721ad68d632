"""Family specs, closed-form OL densities, and closure under complementation."""

import json
import math
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sp_stats

from bibeta import sampling
from bibeta.cli import _closure_oracle
from bibeta.families import (
    AN5,
    AN8,
    INDEPENDENT,
    OL_MINUS,
    OL_PLUS,
    OL_STAR,
    FamilySpec,
    NotClosedError,
    an8_embedding,
    closed_form_logpdf,
    complement,
    _softplus,
    marginal_params,
    product_moment,
    ratio_axes,
)
from bibeta.grids import MIN_ESTIMATED_SAMPLES, density_grid
from bibeta.inference import DiagnosticData, PriorSpec, joint_posterior
from bibeta.sampling import RngState, sample_pairs
from bibeta.special import BetaParams
from bibeta.survivability import TABLE6_ALPHAS, Interdependent, SurvivabilityScenario, survivability
import de_reference
from flip_table import (
    FLIP_STRUCTURE,
    flip_an8_embedding,
    flip_axes,
    flip_complement,
    flip_marginal_params,
    flip_valid,
)

ALPHA_SETS_3 = [(1.0, 1.0, 1.0), (3.0, 1.0, 1.0), (10.0, 2.5, 5.0)]
# the OL densities under test, named after the density they evaluate
OL_DENSITIES = pytest.mark.parametrize(
    "variant", [OL_MINUS, OL_PLUS, OL_STAR], ids=["ol_minus_pdf", "ol_plus_pdf", "ol_star_pdf"]
)

# Hand-written index tables the structure table replaced, kept as oracles.
# Component index sets (0-indexed) of each coordinate's numerator and rest
# of the denominator, before complementation.
RATIO_STRUCTURE = {
    OL_PLUS: (((0,), (2,)), ((1,), (2,))),
    OL_MINUS: (((0,), (2,)), ((1,), (2,))),
    OL_STAR: (((0,), (2,)), ((1,), (2,))),
    AN5: (((0, 2), (3, 4)), ((1, 3), (2, 4))),
    AN8: (((0, 4, 6), (2, 5, 7)), ((1, 4, 7), (3, 5, 6))),
    INDEPENDENT: (((0,), (1,)), ((2,), (3,))),
}
# coordinates each variant complements; ratio_axes exchanges their numerator and rest
RATIO_COMPLEMENTED = {OL_MINUS: (False, True), OL_STAR: (True, True)}
# valid alpha vectors with zero shapes, which ratio_axes leaves out
ZERO_SHAPE_CASES = {
    AN5: [(0, 0, 1, 1, 1), (1e-4, 2, 0, 0, 0.05), (1, 1, 0, 0, 1), (0, 0, 2, 3, 0)],
    AN8: [(10, 0, 0, 2.5, 0, 0, 0, 5), (2, 0.5, 3, 4, 0, 0, 0, 0), (1e-3, 0, 2, 0, 0, 1, 0, 3),
          (0, 1, 2, 0, 0, 0, 3, 0), (0, 0, 0, 0, 1, 1, 1, 1), (0, 0, 2, 3, 4, 0, 0, 0)],
}
# AN8 index permutations induced by V -> 1/V (complement x) and W -> 1/W
# (complement y): the complemented vector is alphas[perm[i]]
AN8_COMPLEMENT_PERMS = {
    "x": (2, 1, 0, 3, 7, 6, 5, 4),
    "y": (0, 3, 2, 1, 6, 7, 4, 5),
    "both": (2, 3, 0, 1, 5, 4, 7, 6),
}
# nonzero AN8 slots of each OL embedding, in OL component order
OL_EMBED_SLOTS = {OL_PLUS: (0, 1, 5), OL_MINUS: (0, 3, 7), OL_STAR: (2, 3, 4)}
# AN8 slots of indep's (a_x, b_x, a_y, b_y): U1/(U1+U3) and U2/(U2+U4)
INDEP_EMBED_SLOTS = (0, 2, 1, 3)
COMPLEMENTED = {"x": (True, False), "y": (False, True), "both": (True, True)}


def ol_density(variant, alphas):
    """The closed-form joint density of an OL variant as a scalar function of (x, y)."""
    spec = FamilySpec(variant, alphas)
    return lambda x, y: float(np.exp(closed_form_logpdf(spec, x, y)))


def olkin_liu_pdf(x, y, alphas):
    """The published OL+ density, written out independently of the package."""
    a, b, c = alphas
    log_norm = math.lgamma(a + b + c) - math.lgamma(a) - math.lgamma(b) - math.lgamma(c)
    return math.exp(
        log_norm
        + (a - 1) * math.log(x)
        + (b - 1) * math.log(y)
        + (b + c - 1) * math.log(1 - x)
        + (a + c - 1) * math.log(1 - y)
        - (a + b + c) * math.log(1 - x * y)
    )


def quad_unit_square(pdf, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(lambda y, x: pdf(x, y), 0.0, 1.0, 0.0, 1.0, **kwargs)
    return val


class TestFamilySpec:
    def test_variant_length_agreement(self):
        with pytest.raises(ValueError):
            FamilySpec("ol-plus", (1.0, 2.0))
        with pytest.raises(ValueError):
            FamilySpec("an5", (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            FamilySpec("nope", (1.0, 2.0, 3.0))

    def test_ol_needs_positive_alphas(self):
        with pytest.raises(ValueError):
            FamilySpec.ol_plus(1.0, 0.0, 1.0)

    def test_an5_allows_zeros_with_positive_marginals(self):
        spec = FamilySpec.an5(0.0, 0.0, 1.0, 1.0, 1.0)  # the Dirichlet reduction
        mx, my = marginal_params(spec)
        assert mx == BetaParams(1.0, 2.0)
        assert my == BetaParams(1.0, 2.0)

    def test_an5_rejects_degenerate_marginal(self):
        with pytest.raises(ValueError):
            FamilySpec.an5(0.0, 1.0, 0.0, 1.0, 0.0)  # x numerator shape would be 0

    def test_independent_needs_two_marginals(self):
        for alphas in ((1.0, 2.0, 3.0), (1, 2, math.inf, 1), (1, 2, 1, math.nan), (1, 0, 1, 1)):
            with pytest.raises(ValueError):
                FamilySpec("indep", alphas)
        spec = FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 1))
        assert marginal_params(spec) == (BetaParams(2, 3), BetaParams(1, 1))

    @pytest.mark.parametrize("shape", [1e-310, 1e-308, 5e-324, 1e306, 2.56e305, 5e307, -1e-300, math.inf, math.nan])
    def test_shapes_out_of_range_rejected(self, shape):
        """Subnormal shapes made sample NaN and huge ones overflowed lgamma; both are refused by name."""
        for variant, alphas in (("ol-plus", (shape, 1.0, 1.0)), ("indep", (1.0, 1.0, 1.0, shape))):
            with pytest.raises(ValueError, match=variant):
                FamilySpec(variant, alphas)

    @pytest.mark.parametrize("shape", [1e-300, 1e300])
    def test_shape_range_ends_accepted(self, shape):
        spec = FamilySpec.ol_plus(shape, shape, shape)
        assert marginal_params(spec)[0] == BetaParams(shape, shape)
        assert FamilySpec.an8(*[shape] * 8).alphas == (shape,) * 8

    def test_independent_is_an_alpha_vector(self):
        spec = FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 4))
        assert spec == FamilySpec(INDEPENDENT, (2, 3, 1, 4))
        assert spec.label() == "indep(2,3,1,4)"

    def test_negative_zero_shape_writes_as_zero(self):
        """-0.0 == 0.0, so the specs are equal and hash alike; they must also write the same bytes."""
        plus, minus = FamilySpec.an8(10, 0, 0, 2.5, 0.0, 0, 0, 5), FamilySpec.an8(10, 0, 0, 2.5, -0.0, 0, 0, 5)
        assert minus == plus and hash(minus) == hash(plus)
        assert minus.label() == plus.label() == "an8(10,0,0,2.5,0,0,0,5)"
        assert json.dumps(minus.alphas) == json.dumps(plus.alphas)


class TestMarginalParams:
    def test_ol_minus_screening_prior(self):
        mx, my = marginal_params(FamilySpec.ol_minus(10, 2.5, 5))
        assert mx == BetaParams(10, 5)
        assert my == BetaParams(5, 2.5)

    def test_an5_symmetric_survivability_prior(self):
        mx, my = marginal_params(FamilySpec.an5(10, 10, 0.1, 0.1, 10))
        assert mx == BetaParams(10.1, 10.1)
        assert my == BetaParams(10.1, 10.1)

    def test_ol_star_swaps_both(self):
        a, b, c = 4.0, 2.0, 7.0
        mx, my = marginal_params(FamilySpec.ol_star(a, b, c))
        assert mx == BetaParams(c, a)
        assert my == BetaParams(c, b)

    def test_an8_reads_off_ratio_memberships(self):
        a = (1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 0.7, 1.2)
        mx, my = marginal_params(FamilySpec.an8(*a))
        assert mx == BetaParams(1.0 + 1.5 + 0.7, 3.0 + 2.5 + 1.2)
        assert my == BetaParams(2.0 + 1.5 + 1.2, 0.5 + 2.5 + 0.7)


class TestOlDensities:
    def test_symmetric_point_value(self):
        # alpha=(1,1,1): 2 * eta(1-eta) style terms collapse to
        # 2 * 0.5 * 0.5 / 0.75^3 = 32/27; normalization pinned below
        assert ol_density(OL_MINUS, (1, 1, 1))(0.5, 0.5) == pytest.approx(32.0 / 27.0, rel=1e-12)

    def test_plus_is_minus_with_complemented_theta(self):
        rng = np.random.default_rng(42)
        plus = ol_density(OL_PLUS, (10, 2.5, 5))
        minus = ol_density(OL_MINUS, (10, 2.5, 5))
        for _ in range(100):
            x, y = rng.uniform(0.01, 0.99, size=2)
            assert plus(x, y) == minus(x, 1.0 - y)

    def test_star_is_plus_of_complemented_pair(self):
        rng = np.random.default_rng(43)
        star = ol_density(OL_STAR, (3, 1, 1))
        plus = ol_density(OL_PLUS, (3, 1, 1))
        minus = ol_density(OL_MINUS, (3, 1, 1))
        for _ in range(100):
            x, y = rng.uniform(0.01, 0.99, size=2)
            assert star(x, y) == minus(1.0 - x, y)
            # 1 - (1 - y) rounds away from y, so OL+ agrees to rounding only
            assert star(x, y) == pytest.approx(plus(1.0 - x, 1.0 - y), rel=1e-12)

    @pytest.mark.parametrize("alphas", ALPHA_SETS_3)
    @OL_DENSITIES
    def test_normalization(self, variant, alphas):
        val = quad_unit_square(ol_density(variant, alphas))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_minus_marginal_is_beta(self):
        """Integrating theta out of the joint recovers the B(10, 5) marginal."""
        pdf = ol_density(OL_MINUS, (10.0, 2.5, 5.0))
        for eta in (0.2, 0.5, 0.8):
            val, _ = integrate.quad(lambda t: pdf(eta, t), 0.0, 1.0, limit=200)
            assert val == pytest.approx(sp_stats.beta.pdf(eta, 10, 5), abs=1e-4)

    def test_domain_errors(self):
        """Alpha vectors are validated where the density's family is built."""
        for alphas in ((1, 1), (1, 0, 1), (1, -1, 1), (1, math.inf, 1), (1, math.nan, 1)):
            with pytest.raises(ValueError):
                FamilySpec(OL_MINUS, alphas)

    def test_closed_form_logpdf_matches_scalar_api(self):
        """Vectorized and per-point evaluation agree with the published OL formula."""
        x = np.array([0.2, 0.6])
        y = np.array([0.3, 0.9])
        spec = FamilySpec.ol_star(3, 1, 1)
        vec = np.exp(closed_form_logpdf(spec, x, y))
        for i in range(2):
            scalar = np.exp(closed_form_logpdf(spec, float(x[i]), float(y[i])))
            assert vec[i] == pytest.approx(scalar, rel=1e-14)
            assert vec[i] == pytest.approx(olkin_liu_pdf(1 - x[i], 1 - y[i], (3, 1, 1)), rel=1e-12)

    def test_closed_form_logpdf_rejects_an5(self):
        with pytest.raises(ValueError):
            closed_form_logpdf(FamilySpec.an5(1, 1, 1, 1, 1), 0.5, 0.5)

    @pytest.mark.parametrize("alphas", ALPHA_SETS_3)
    def test_plus_matches_published_formula(self, alphas):
        rng = np.random.default_rng(44)
        plus = ol_density(OL_PLUS, alphas)
        for x, y in rng.uniform(0.01, 0.99, size=(50, 2)):
            assert plus(x, y) == pytest.approx(olkin_liu_pdf(x, y, alphas), rel=1e-12)


def law_distance_ok(x1, y1, x2, y2, n):
    """Moment-based equality-in-law oracle at four combined standard errors."""
    checks = []
    for a, b in ((x1, x2), (y1, y2)):
        se = np.sqrt((a.var() + b.var()) / n)
        checks.append(abs(a.mean() - b.mean()) <= 4 * se)
        se2 = np.sqrt(((a - a.mean()) ** 2).var() / n + ((b - b.mean()) ** 2).var() / n)
        checks.append(abs(a.var() - b.var()) <= 4 * se2)
    r1 = np.corrcoef(x1, y1)[0, 1]
    r2 = np.corrcoef(x2, y2)[0, 1]
    se_r = np.sqrt((1 - r1**2) ** 2 + (1 - r2**2) ** 2) / np.sqrt(n)
    checks.append(abs(r1 - r2) <= 4 * se_r)
    return all(checks)


class TestComplement:
    def test_ol_plus_y_is_ol_minus(self):
        spec = FamilySpec.ol_plus(10, 2.5, 5)
        assert complement(spec, "y") == FamilySpec.ol_minus(10, 2.5, 5)

    def test_relabel_table(self):
        a = (3.0, 1.0, 2.0)
        assert complement(FamilySpec.ol_plus(*a), "both") == FamilySpec.ol_star(*a)
        assert complement(FamilySpec.ol_minus(*a), "y") == FamilySpec.ol_plus(*a)
        assert complement(FamilySpec.ol_minus(*a), "x") == FamilySpec.ol_star(*a)
        assert complement(FamilySpec.ol_star(*a), "x") == FamilySpec.ol_minus(*a)
        assert complement(FamilySpec.ol_star(*a), "both") == FamilySpec.ol_plus(*a)

    def test_unrepresentable_cases_fall_back_to_an8(self):
        spec = complement(FamilySpec.ol_plus(1, 2, 3), "x")
        assert spec.variant == AN8
        mx, my = marginal_params(spec)
        assert mx == BetaParams(3, 1)  # 1-X of X ~ B(1, 3)
        assert my == BetaParams(2, 3)

    @pytest.mark.parametrize("which", ["x", "y", "both"])
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.ol_plus(1.0, 2.0, 3.0),
            FamilySpec.ol_minus(10.0, 2.5, 5.0),
            FamilySpec.ol_star(3.0, 1.0, 1.0),
            FamilySpec.an8(1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 0.7, 1.2),
            FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 4)),
        ],
    )
    def test_involution(self, spec, which):
        assert complement(complement(spec, which), which) == spec

    def test_an5_not_closed(self):
        with pytest.raises(NotClosedError):
            complement(FamilySpec.an5(1, 1, 1, 1, 1), "y")

    def test_an8_reduction_matches_indep_law(self):
        """Zeroing AN8 slots 4-7 reproduces the independent law."""
        n = 400_000
        target = FamilySpec.independent(BetaParams(2, 3), BetaParams(1.5, 0.7))
        embedded = an8_embedding(target)
        assert marginal_params(embedded) == marginal_params(target)
        x, y = sample_pairs(RngState(141), target, n)
        x2, y2 = sample_pairs(RngState(142), embedded, n)
        assert law_distance_ok(x, y, x2, y2, n)

    def test_independent_swaps_affected_marginal(self):
        spec = FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 4))
        assert complement(spec, "x") == FamilySpec.independent(BetaParams(3, 2), BetaParams(1, 4))
        assert complement(spec, "both") == FamilySpec.independent(
            BetaParams(3, 2), BetaParams(4, 1)
        )

    @pytest.mark.parametrize("which", ["x", "y", "both"])
    def test_an8_complement_equality_in_law(self, which):
        """Complemented samples of the original match samples of the returned spec."""
        n = 400_000
        spec = FamilySpec.an8(1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 0.7, 1.2)
        x, y = sample_pairs(RngState(101), spec, n)
        if which in ("x", "both"):
            x = 1.0 - x
        if which in ("y", "both"):
            y = 1.0 - y
        flipped = complement(spec, which)
        x2, y2 = sample_pairs(RngState(102), flipped, n)
        assert law_distance_ok(x, y, x2, y2, n)

    def test_an8_reductions_match_ol_laws(self):
        """Zeroing the right AN8 slots reproduces each OL variant's law."""
        n = 400_000
        triple = (2.0, 3.0, 1.5)
        targets = [
            FamilySpec.ol_plus(*triple),
            FamilySpec.ol_minus(*triple),
            FamilySpec.ol_star(*triple),
        ]
        for i, target in enumerate(targets):
            embedded = an8_embedding(target)
            assert marginal_params(embedded) == marginal_params(target)
            x, y = sample_pairs(RngState(110 + i), target, n)
            x2, y2 = sample_pairs(RngState(120 + i), embedded, n)
            assert law_distance_ok(x, y, x2, y2, n)

    def test_correlation_sign_flips_once_per_coordinate(self):
        spec = FamilySpec.ol_plus(3, 3, 1)
        base, comp, both = (
            survivability(SurvivabilityScenario(Interdependent(s))).correlation
            for s in (spec, complement(spec, "y"), complement(spec, "both"))
        )
        assert base > 0 and comp < 0 and both > 0
        assert abs(base + comp) < 0.01
        assert abs(base - both) < 0.01


POSITIVE = st.floats(min_value=1e-3, max_value=50.0)
ZERO_OR_SHAPE = st.one_of(
    st.just(0.0), st.sampled_from([1e-4, 0.05, 1.0]), st.floats(min_value=1e-4, max_value=50.0)
)
DYADIC = st.integers(min_value=1, max_value=3200).map(lambda k: k / 64)


@st.composite
def an8_specs(draw, positive):
    """AN8 specs with zeros allowed, often on an OL or indep embedding's support."""
    support = draw(
        st.sampled_from([None, *OL_EMBED_SLOTS.values(), INDEP_EMBED_SLOTS, (1, 2, 6)])
    )
    if support is None:
        alphas = draw(st.tuples(*[st.one_of(st.just(0.0), positive, positive)] * 8))
    else:
        alphas = [draw(positive) if i in support else 0.0 for i in range(8)]
    try:
        return FamilySpec.an8(*alphas)
    except ValueError:  # some marginal shape sums to zero
        reject()


@st.composite
def closed_specs(draw, positive):
    """Specs of the families closed under complementation: OL, AN8 and indep."""
    variant = draw(st.sampled_from([OL_PLUS, OL_MINUS, OL_STAR, AN8, INDEPENDENT]))
    if variant == AN8:
        return draw(an8_specs(positive))
    if variant == INDEPENDENT:
        a, b, c, d = draw(st.tuples(*[positive] * 4))
        return FamilySpec.independent(BetaParams(a, b), BetaParams(c, d))
    return FamilySpec(variant, draw(st.tuples(*[positive] * 3)))


def swapped_marginals(spec, which):
    return tuple(
        BetaParams(p.b, p.a) if flipped else p
        for p, flipped in zip(marginal_params(spec), COMPLEMENTED[which])
    )


class TestStructureTable:
    """The structure table reproduces the hand-written index tables it replaced."""

    @pytest.mark.parametrize("variant", sorted(RATIO_STRUCTURE))
    def test_ratio_axes_match_index_sets(self, variant):
        """ratio_axes is RATIO_STRUCTURE with n and d exchanged on the complemented
        coordinates, less the zero shapes."""
        flips = RATIO_COMPLEMENTED.get(variant, (False, False))
        n = 1 + max(i for axis in RATIO_STRUCTURE[variant] for side in axis for i in side)
        for alphas in [(1.0,) * n, *ZERO_SHAPE_CASES.get(variant, [])]:
            spec = FamilySpec(variant, alphas)
            expected = tuple(
                tuple(tuple(i for i in side if spec.alphas[i] > 0.0) for side in (sides[::-1] if flip else sides))
                for sides, flip in zip(RATIO_STRUCTURE[variant], flips)
            )
            assert ratio_axes(spec) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_role_table_reproduces_the_flip_table(self, data):
        """Every variant, zero shapes included: validity, coordinates (linear and log path,
        bit for bit), marginals, AN8 embedding and complements equal the (roles, flip) table's."""
        variant = data.draw(st.sampled_from(sorted(FLIP_STRUCTURE)))
        alphas = data.draw(st.tuples(*[ZERO_OR_SHAPE] * len(FLIP_STRUCTURE[variant][0])))
        if not flip_valid(variant, alphas):
            with pytest.raises(ValueError, match=variant):
                FamilySpec(variant, alphas)
            return
        spec = FamilySpec(variant, alphas)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        logs = rng.uniform(-300.0, 300.0, (len(alphas), 64))
        u = np.exp(logs)
        for (num, rest), (old_num, old_rest, flipped) in zip(ratio_axes(spec), flip_axes(variant)):
            old_num, old_rest = [i for i in old_num if alphas[i] > 0.0], [i for i in old_rest if alphas[i] > 0.0]
            shift = reduce(np.maximum, [logs[i] for i in old_num + old_rest])
            for source, log_path in ((u, False), (logs, True)):
                term = (lambda i: np.exp(logs[i] - shift)) if log_path else u.__getitem__
                top, rem = reduce(np.add, map(term, old_num)), reduce(np.add, map(term, old_rest))
                expected = (rem if flipped else top) / (top + rem)
                got = sampling._ratio([source[i] for i in num], [source[i] for i in rest], log_path)
                assert got.tobytes() == expected.tobytes()
        assert marginal_params(spec) == flip_marginal_params(spec)
        if variant == AN5:
            return
        assert an8_embedding(spec) == flip_an8_embedding(spec)
        for which in COMPLEMENTED:
            assert complement(spec, which) == flip_complement(spec, which)

    @pytest.mark.parametrize("variant", sorted(OL_EMBED_SLOTS))
    def test_an8_embedding_slots(self, variant):
        alphas = (2.0, 3.0, 1.5)
        expected = [0.0] * 8
        for slot, a in zip(OL_EMBED_SLOTS[variant], alphas):
            expected[slot] = a
        assert an8_embedding(FamilySpec(variant, alphas)) == FamilySpec.an8(*expected)

    def test_indep_embeds_at_an8_slots(self):
        indep = FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 4))
        assert an8_embedding(indep) == FamilySpec.an8(2, 1, 3, 4, 0, 0, 0, 0)
        assert complement(FamilySpec.an8(2, 1, 3, 4, 0, 0, 0, 0), "x") == (
            FamilySpec.independent(BetaParams(3, 2), BetaParams(1, 4))
        )

    def test_an5_embeds_as_an8_zero_pattern(self):
        """AN5(a1..a5) is AN8(a1, a2, 0, 0, 0, a5, a3, a4) in law: the same marginals and E[XY].

        The error of E[XY] sums three shared shapes in another order, so it agrees to rounding."""
        for alphas in [*TABLE6_ALPHAS, (5, 5, 5, 5, 1e-4), (1e-4, 2, 0, 0, 0.05), (0, 0, 1, 1, 1)]:
            a1, a2, a3, a4, a5 = alphas
            spec = FamilySpec.an5(*alphas)
            embedded = an8_embedding(spec)
            assert embedded == FamilySpec.an8(a1, a2, 0, 0, 0, a5, a3, a4)
            assert marginal_params(embedded) == marginal_params(spec)
            (e_xy, err), (e_xy_8, err_8) = product_moment(spec), product_moment(embedded)
            assert e_xy_8 == e_xy and abs(err_8 - err) <= 2.0**-50 * e_xy

    @given(st.data(), st.sampled_from(sorted(COMPLEMENTED)))
    def test_an8_complement_permutes_alphas(self, data, which):
        """Complementing permutes the AN8 vector; twice is the identity in law."""
        spec = data.draw(an8_specs(POSITIVE))
        flipped = complement(spec, which)
        perm = AN8_COMPLEMENT_PERMS[which]
        assert an8_embedding(flipped).alphas == tuple(spec.alphas[i] for i in perm)
        assert an8_embedding(complement(flipped, which)) == spec

    @given(st.data(), st.sampled_from(sorted(COMPLEMENTED)))
    def test_complement_swaps_marginals_exactly(self, data, which):
        """Shapes on a 1/64 grid keep every marginal sum exact in any order."""
        spec = data.draw(closed_specs(DYADIC))
        assert marginal_params(complement(spec, which)) == swapped_marginals(spec, which)

    @given(st.data(), st.sampled_from(sorted(COMPLEMENTED)))
    def test_complement_swaps_marginals(self, data, which):
        """General shapes: AN8 sums shapes in index order, and complementing
        reorders a sum's terms, so agreement is to rounding."""
        spec = data.draw(closed_specs(POSITIVE))
        got = marginal_params(complement(spec, which))
        for p, q in zip(got, swapped_marginals(spec, which)):
            assert (p.a, p.b) == (pytest.approx(q.a, rel=1e-15), pytest.approx(q.b, rel=1e-15))


MOMENT_SHAPES = st.floats(min_value=0.05, max_value=20.0)
WIDE_SHAPES = st.floats(min_value=-4.0, max_value=6.0).map(lambda e: 10.0**e)
# exact correlations: OL+ Table 5 rows to 7 decimals, OL- and AN5 to 5
EXACT_CORRELATIONS = [
    (FamilySpec.ol_plus(1, 1, 1), 0.4784176, 5e-8),
    (FamilySpec.ol_plus(3, 3, 1), 0.6835209, 5e-8),
    (FamilySpec.ol_plus(3, 3, 0.3), 0.7777067, 5e-8),
    (FamilySpec.ol_plus(1, 1, 0.1), 0.6806631, 5e-8),  # slow decay at (1, 1)
    (FamilySpec.ol_minus(10, 2.5, 5), -0.46478, 5e-6),
    (FamilySpec.an5(5, 5, 5, 5, 1e-4), -0.65012, 5e-6),
    (FamilySpec.an5(10, 10, 0.1, 0.1, 10), 0.48485, 5e-6),
    (FamilySpec.an5(10, 10, 0.1, 0.1, 1), 0.75582, 5e-6),
    (FamilySpec.an5(5, 10, 0.1, 0.1, 0.5), 0.67616, 5e-6),
]


def correlation(spec, e_xy):
    px, py = marginal_params(spec)
    return (e_xy - px.mean * py.mean) / math.sqrt(px.variance * py.variance)


@st.composite
def moment_specs(draw):
    """Every variant: OL, AN8 with zeros and indep, or AN5."""
    if draw(st.booleans()):
        return draw(closed_specs(MOMENT_SHAPES))
    return FamilySpec.an5(*draw(st.tuples(*[MOMENT_SHAPES] * 5)))


AN8_VECTOR = FamilySpec.an8(1, 2, 3, 0.5, 1.5, 2.5, 0.7, 1.2)
INDEP = FamilySpec.independent(BetaParams(2, 3), BetaParams(1, 4))
# OL+ shapes whose two quadrant halves move by -1.14e-9 and +1.14e-9 from
# step 1/8 to 1/16: a stop test on their sum fires 2.2e-11 from the answer
OPPOSITE_HALVES = (1.509765625, 1.3236149787687748, 11.076271596619062)
# E[XY] there to 21 digits: mpmath at 40 digits, nested quadrature over U3
# of E[U1/(U1+u)] E[U2/(U2+u)], each 1 - u hyperu(1, 2 - a, u)
OPPOSITE_HALVES_E_XY = Fraction("0.013691919531046797594")


class TestProductMoment:
    @settings(max_examples=40, deadline=None)
    @given(moment_specs(), st.integers(min_value=0, max_value=2**32 - 1))
    @example(FamilySpec.ol_minus(10, 2.5, 5), 1)
    @example(FamilySpec.ol_star(3, 1, 1), 2)
    @example(complement(AN8_VECTOR, "y"), 3)
    @example(complement(INDEP, "x"), 4)
    def test_agrees_with_sample_mean(self, spec, seed):
        """The CLT error of a sample mean of xy is exact, unlike a correlation's;
        the sampler's coordinate flips also show in the marginal means."""
        n = 20_000
        x, y = sample_pairs(RngState(seed), spec, n)
        e_xy, err = product_moment(spec)
        assert abs(e_xy - (x * y).mean()) <= 4 * (x * y).std() / math.sqrt(n) + err
        for sample, p in zip((x, y), marginal_params(spec)):
            assert abs(sample.mean() - p.mean) <= 4 * math.sqrt(p.variance / n)

    @settings(deadline=None)
    @given(st.tuples(*[MOMENT_SHAPES] * 4))
    def test_independent_is_product_of_means(self, shapes):
        """Against E1 E2 in exact rational arithmetic, so the error covers rounding too."""
        a, b, c, d = map(Fraction, shapes)
        spec = FamilySpec.independent(BetaParams(*shapes[:2]), BetaParams(*shapes[2:]))
        e_xy, err = product_moment(spec)
        assert 0 < err
        assert abs(Fraction(e_xy) - a / (a + b) * c / (c + d)) <= err

    @settings(max_examples=40, deadline=None)
    @given(closed_specs(MOMENT_SHAPES))
    @example(FamilySpec.ol_plus(*OPPOSITE_HALVES))
    def test_complement_y_is_mean_minus_product(self, spec):
        """E[X(1-Y)] = E[X] - E[XY], with the complemented law's own quadrature."""
        e_xy, err = product_moment(spec)
        e_comp, err_comp = product_moment(complement(spec, "y"))
        assert abs(e_comp - (marginal_params(spec)[0].mean - e_xy)) <= err + err_comp

    def test_halves_converge_separately(self):
        """Cancelling changes of the two halves do not stop the step halving early."""
        e_xy, err = product_moment(FamilySpec.ol_plus(*OPPOSITE_HALVES))
        assert abs(Fraction(e_xy) - OPPOSITE_HALVES_E_XY) <= err <= 1e-15

    @pytest.mark.parametrize(
        "spec, rho, tol", EXACT_CORRELATIONS, ids=[s.label() for s, _, _ in EXACT_CORRELATIONS]
    )
    def test_exact_correlations(self, spec, rho, tol):
        e_xy, err = product_moment(spec)
        assert abs(correlation(spec, e_xy) - rho) <= tol
        assert 0 < err <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(closed_specs(WIDE_SHAPES), st.tuples(*[WIDE_SHAPES] * 5).map(lambda a: FamilySpec.an5(*a))))
    @example(FamilySpec.an8(1, 2, 3, 0.5, 1.5, 2.5, 0.7, 1.2))
    @example(FamilySpec.an5(5, 10, 0.1, 0.1, 0.5))
    @example(FamilySpec.independent(BetaParams(1, 1e6), BetaParams(20, 20)))
    def test_agrees_with_rules_evaluated_afresh(self, spec):
        """The nested rule against the earlier one, which evaluates every rule afresh with
        np.logaddexp (tests/de_reference.py), at shapes 1e-4 to 1e6: the two agree within
        each one's reported error, and refuse the same families."""
        try:
            ref, ref_err = de_reference.product_moment(spec)
        except ValueError:
            with pytest.raises(ValueError, match="did not converge"):
                product_moment(spec)
            return
        e_xy, err = product_moment(spec)
        assert abs(e_xy - ref) <= min(err, ref_err)

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.ol_plus(1e-4, 1e-4, 1e-4),
            FamilySpec.an5(1e-4, 1e-4, 1e-4, 1e-4, 1e-4),
            FamilySpec.an8(*[1e-4] * 8),
            FamilySpec.independent(BetaParams(1e-4, 1e-4), BetaParams(1e-4, 2e-4)),
            FamilySpec.ol_plus(1e-5, 1e-5, 1e-5),
        ],
        ids=lambda spec: spec.label(),
    )
    def test_tiny_shapes_converge_or_raise(self, spec):
        """At shapes of 1e-4 the answer agrees with Monte Carlo or is refused by name."""
        try:
            e_xy, err = product_moment(spec)
        except ValueError as exc:
            assert spec.label() in str(exc)
            return
        n = 200_000
        x, y = sample_pairs(RngState(140), spec, n)
        assert abs(e_xy - (x * y).mean()) <= 4 * (x * y).std() / math.sqrt(n) + err


class TestSoftplus:
    """product_moment's softplus against np.logaddexp(0, x), the scalar loop it replaces."""

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.floats(min_value=-1e308, max_value=1e308), st.floats(min_value=-750.0, max_value=50.0)),
                    min_size=1, max_size=64))
    @example([-745.2, -745.0, -720.0, -37.5, -36.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 36.0, 37.5, 710.0, 1e308])
    @example([-1e308, -800.0, -40.0, 40.0, 800.0])
    def test_agrees_with_logaddexp(self, values):
        """Within 2 ulp relative over the finite range; where the result is subnormal
        (x below about -708), within one subnormal ulp, 2^-1074."""
        x = np.array(values)
        got, ref = _softplus(x), np.logaddexp(0.0, x)
        assert np.all(np.abs(got - ref) <= np.maximum(2 * 2.0**-52 * ref, 2.0**-1074))

    def test_tails(self):
        """Below -37 the result is e^x to rounding (and +0.0 below -745.14), above 37 it is x."""
        low = np.array([-745.2, -745.0, -700.0, -300.0, -37.5])
        assert np.all(np.abs(_softplus(low) - np.exp(low)) <= np.maximum(2.0**-52 * np.exp(low), 2.0**-1074))
        assert _softplus(np.array([-745.2]))[0] == 0.0
        high = np.array([37.5, 100.0, 1e6, 1e308])
        assert np.array_equal(_softplus(high), high)


class TestClosureOracle:
    """The exact moment oracle that closure-check runs on complement()."""

    @settings(max_examples=40, deadline=None)
    @given(closed_specs(MOMENT_SHAPES), st.sampled_from(sorted(COMPLEMENTED)))
    def test_oracle_passes(self, spec, which):
        checks = _closure_oracle(spec, complement(spec, which), which)
        assert sorted(checks) == ["correlation", "mean_x", "mean_y"]
        for original, returned, tol in checks.values():
            assert abs(original - returned) <= tol


# closed_specs covers OL, AN8 and indep; AN5 vectors complete the variants
ANY_SPEC = st.one_of(
    closed_specs(POSITIVE), st.tuples(*[POSITIVE] * 5).map(lambda a: FamilySpec.an5(*a))
)


class TestJsonRoundTrip:
    """Every JSON output names its family as (variant, alphas), enough to rebuild it."""

    @settings(max_examples=40, deadline=None)
    @given(ANY_SPEC)
    @example(INDEP)
    @example(AN8_VECTOR)
    def test_density_meta_rebuilds_spec(self, spec):
        grid = density_grid(spec, m=2, n_samples=MIN_ESTIMATED_SAMPLES, rng=RngState(150))
        meta = json.loads(grid.to_json())["meta"]
        assert FamilySpec(meta["variant"], meta["alphas"]) == spec

    @settings(max_examples=40, deadline=None)
    @given(ANY_SPEC)
    @example(INDEP)
    @example(AN8_VECTOR)
    def test_posterior_meta_rebuilds_spec(self, spec):
        gp = joint_posterior(
            DiagnosticData(0, 0, 0, 0), PriorSpec(spec, BetaParams(1, 1)), m=10,
            rng=RngState(151), prior_samples=MIN_ESTIMATED_SAMPLES,
        )
        meta = json.loads(gp.to_json())["meta"]
        assert FamilySpec(meta["prior_variant"], meta["prior_alphas"]) == spec
