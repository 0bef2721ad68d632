"""Density grids: exact midpoint evaluation, exact cell probabilities, histogram estimation, serialization."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from bibeta import families, grids, sampling
from bibeta.families import FamilySpec, an8_embedding, closed_form_logpdf
from bibeta.grids import DensityGrid, density_grid, grid_midpoints
from bibeta.sampling import RngState, sample_pairs
from bibeta.special import BetaParams


class TestClosedFormGrids:
    def test_uniform_product_is_all_ones(self):
        spec = FamilySpec.independent(BetaParams(1, 1), BetaParams(1, 1))
        grid = density_grid(spec, m=10)
        assert grid.estimated is False
        assert grid.n_samples == 0
        assert np.all(grid.cells == 1.0)

    def test_mass_is_one_to_machine_precision(self):
        grid = density_grid(FamilySpec.ol_minus(10, 2.5, 5), m=100)
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_cells_proportional_to_density(self):
        """Rescaling by the midpoint mass keeps cell ratios exactly those of the pdf."""
        spec = FamilySpec.ol_plus(3, 1, 1)
        grid = density_grid(spec, m=20)
        mid = grid_midpoints(20)
        ref = np.exp(closed_form_logpdf(spec, mid[5], mid[7])) / np.exp(
            closed_form_logpdf(spec, mid[2], mid[9])
        )
        assert grid.cells[5, 7] / grid.cells[2, 9] == pytest.approx(float(ref), rel=1e-12)

    def test_rescale_factor_is_small(self):
        spec = FamilySpec.ol_minus(10, 2.5, 5)
        grid = density_grid(spec, m=100)
        mid = grid_midpoints(100)
        e, t = np.meshgrid(mid, mid, indexing="ij")
        raw = np.exp(closed_form_logpdf(spec, e, t))
        factor = grid.cells[50, 50] / raw[50, 50]
        assert factor == pytest.approx(1.0, abs=2e-3)

    def test_density_and_prior_share_one_evaluation(self):
        """A density grid and a posterior prior of one (family, m) evaluate the pdf once."""
        spec = FamilySpec.ol_star(2, 3, 0.5)
        first = density_grid(spec, m=23)
        hits = grids._log_cells.cache_info().hits
        prior = grids.log_prior_cells(spec, 23, 0, None)
        again = density_grid(spec, m=23)
        assert grids._log_cells.cache_info().hits == hits + 2
        assert again.cells.tobytes() == first.cells.tobytes()
        assert prior.top == prior.cells.max()
        cells = np.exp(prior.cells - prior.cells.max())
        cells *= (23 * 23) / cells.sum()
        assert cells.tobytes() == first.cells.tobytes()


class TestEstimatedGrids:
    def test_histogram_mass_is_exactly_one(self):
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        grid = density_grid(spec, m=50, n_samples=200_000, rng=RngState(61))
        assert grid.estimated is True
        assert grid.n_samples == 200_000
        assert grid.seed == (61, 0)
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError):
            density_grid(FamilySpec.an5(1, 1, 1, 1, 1), m=10, n_samples=9_999, rng=RngState(1))

    def test_rng_required(self):
        with pytest.raises(ValueError):
            density_grid(FamilySpec.an8(1, 1, 1, 1, 1, 1, 1, 1), m=10, n_samples=10_000)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            density_grid(FamilySpec.ol_plus(1, 1, 1), m=1)

    def test_histogram_convergence_monitor(self):
        """Doubling n_samples should not worsen agreement with a finer reference.

        Monitored rather than hard-asserted: a single seed pair can go either
        way cellwise, so only a loose ratio guard is enforced and the
        numbers are printed for inspection.
        """
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        m = 30
        ref = density_grid(spec, m=m, n_samples=4_000_000, rng=RngState(65)).cells
        dev = {}
        for n in (100_000, 200_000, 400_000):
            cells = density_grid(spec, m=m, n_samples=n, rng=RngState(66)).cells
            dev[n] = float(np.max(np.abs(cells - ref)))
        print(f"max cellwise deviation vs 4e6-sample reference: {dev}")
        assert dev[400_000] < 1.5 * dev[100_000]

    def test_an5_grid_marginal_matches_analytic_beta(self):
        """Row masses agree with the B(10, 5.0001) marginal at 4 SE per cell."""
        m, n = 100, 10_000_000
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        grid = density_grid(spec, m=m, n_samples=n, rng=RngState(62))
        row_mass = grid.cells.sum(axis=1) / (m * m)
        edges = np.linspace(0.0, 1.0, m + 1)
        a, b = 10.0, 5.0001
        cdf = sp_special.betainc(a, b, edges)
        cell_p = np.diff(cdf)
        se = np.sqrt(cell_p * (1 - cell_p) / n)
        assert np.all(np.abs(row_mass - cell_p) <= 4 * se + 1e-12)

    def test_histogram_matches_closed_form_cellwise(self):
        """Sampled OL+(3,3,1) against the exact cells of its AN8 embedding (_cell_masses):
        Pearson's chi-square over the 50x50 cells, those expected below 5 pooled into one,
        at a p-value floor of 1e-6.  The same test rejects the cells of OL+(3,3,1.02): with
        the cells pooled as that test pools them, the noncentrality is 575 on 2007 degrees
        of freedom, a power of 0.9996 at the floor."""
        from scipy import stats

        m, n = 50, 1_000_000
        x, y = sample_pairs(RngState(63), FamilySpec.ol_plus(3, 3, 1), n)
        counts = np.histogram2d(x, y, bins=m, range=[[0, 1], [0, 1]])[0].ravel()

        def p_value(alphas) -> float:
            expected = grids._cell_masses(an8_embedding(FamilySpec.ol_plus(*alphas)), m).ravel() * n
            small = expected < 5.0
            obs = np.append(counts[~small], counts[small].sum())
            exp = np.append(expected[~small], expected[small].sum())
            return float(stats.chi2.sf(float(((obs - exp) ** 2 / exp).sum()), obs.size - 1))

        assert p_value((3, 3, 1)) >= 1e-6
        assert p_value((3, 3, 1.02)) < 1e-6


BIN_COUNTS = (2, 3, 7, 100, 1000)


def histogram2d_counts(x, y, m):
    counts, _, _ = np.histogram2d(x, y, bins=m, range=[[0.0, 1.0], [0.0, 1.0]])
    return counts


def hard_values(m):
    """0, 1, every bin edge and its +-1 ulp neighbours inside [0, 1], and NaN."""
    edges = np.linspace(0.0, 1.0, m + 1)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return np.append(near[(near >= 0.0) & (near <= 1.0)], np.nan)


def pair_counts(x, y, m):
    return np.bincount(grids._pair_cells(x, y, m), minlength=m * m).reshape(m, m)


def assert_floor_rule(x, y, m):
    """_pair_cells puts each coordinate c in bin min(floor(fl(c m)), m - 1), in order, drops the pairs with
    a NaN, and counts as np.histogram2d does the pairs whose coordinates lie more than 4 ulps from every edge."""
    pairs = [(a, b) for a, b in zip(x.tolist(), y.tolist()) if not (math.isnan(a) or math.isnan(b))]
    floor_rule = [min(math.floor(a * m), m - 1) * m + min(math.floor(b * m), m - 1) for a, b in pairs]
    assert grids._pair_cells(x, y, m).tolist() == floor_rule
    edges = np.linspace(0.0, 1.0, m + 1)
    far = np.logical_and(*((np.abs(c[:, None] - edges) > 4 * np.spacing(edges)).all(axis=1) for c in (x, y)))
    assert np.array_equal(pair_counts(x[far], y[far], m), histogram2d_counts(x[far], y[far], m))


class TestExactBinning:
    """Each axis of a histogram cell is min(floor(fl(c m)), m - 1): np.histogram2d's bin on m equal bins of
    [0, 1] but within a rounding of an edge, where numpy compares with its np.linspace edges."""

    @pytest.mark.parametrize("m", BIN_COUNTS)
    def test_every_edge_and_neighbour(self, m):
        values = hard_values(m)
        shuffled = np.random.default_rng(m).permutation(values)
        for x, y in ((values, shuffled), (shuffled, values), (values, np.full(values.size, 0.5))):
            assert_floor_rule(x, y, m)

    @settings(max_examples=100, deadline=None)
    @given(m=st.one_of(st.sampled_from(BIN_COUNTS), st.integers(2, 2000)), data=st.data())
    def test_floor_rule(self, m, data):
        value = st.one_of(st.sampled_from(hard_values(m).tolist()), st.floats(min_value=0.0, max_value=1.0))
        x = data.draw(st.lists(value, max_size=60))
        y = data.draw(st.lists(value, min_size=len(x), max_size=len(x)))
        assert_floor_rule(np.array(x, dtype=float), np.array(y, dtype=float), m)

    @pytest.mark.parametrize("m", [2, 37])
    def test_grid_is_histogram2d_of_the_sampled_pairs(self, monkeypatch, m):
        """Blocks binned apart and summed give histogram2d of the whole sample, byte for byte."""
        monkeypatch.setattr(sampling, "BLOCK", 4096)
        spec, n = FamilySpec.an5(5, 5, 5, 5, 1e-4), 3 * 4096 + 5
        cells = density_grid(spec, m=m, n_samples=n, rng=RngState(67)).cells
        x, y = sample_pairs(RngState(67), spec, n)
        assert cells.tobytes() == (histogram2d_counts(x, y, m) * (m * m / n)).tobytes()


def complement_an8(spec: FamilySpec, flip) -> FamilySpec:
    """The AN8 vector of (1-X, Y), (X, 1-Y) or (1-X, 1-Y) for flip (x, y), never lowered to OL or indep."""
    which = {(True, False): "x", (False, True): "y", (True, True): "both"}[flip]
    return an8_embedding(families.complement(spec, which))


def beta_cells(a: float, b: float, m: int) -> np.ndarray:
    """Beta(a, b) cell probabilities on m equal cells; cells past the median from the complementary CDF."""
    edges = np.linspace(0.0, 1.0, m + 1)
    p, q = sp_special.betainc(a, b, edges), sp_special.betaincc(a, b, edges)
    return np.where(p[1:] < 0.5, np.diff(p), -np.diff(q))


def ol_cell_oracle(alphas, flip, m: int) -> np.ndarray:
    """Cell probabilities of (U1/(U1+U3), U2/(U2+U3)), complemented where flipped, by adaptive
    quadrature (scipy quad_vec) over t = log U3 of the two conditional cell vectors' outer product."""
    from scipy.integrate import quad_vec

    a1, a2, a3 = alphas
    inner = np.linspace(0.0, 1.0, m + 1)[1:-1]

    def axis(a, u, flipped):
        # P(U/(U+u) <= x) = P(U <= u x/(1-x));  P(u/(U+u) <= x) = P(U >= u (1-x)/x)
        cdf = sp_special.gammaincc(a, u * (1 - inner) / inner) if flipped else sp_special.gammainc(a, u * inner / (1 - inner))
        return np.diff(np.concatenate([[0.0], cdf, [1.0]]))

    def integrand(t):
        u = np.exp(t)
        weight = np.exp(a3 * t - u - sp_special.gammaln(a3))
        return weight * np.outer(axis(a1, u, flip[0]), axis(a2, u, flip[1])).ravel()

    lo = np.log(sp_special.gammaincinv(a3, 1e-17))
    hi = np.log(sp_special.gammainccinv(a3, 1e-17))
    cells, _ = quad_vec(integrand, lo, hi, epsabs=1e-14, epsrel=0.0, limit=2000)
    return cells.reshape(m, m)


def histogram_cells(family: FamilySpec, m: int, n: int, seed: int) -> np.ndarray:
    """Counts of n sampled pairs on the m x m grid, binned chunk by chunk as they are drawn."""
    blocks = sampling.pair_blocks(RngState(seed), family, n,
                                  lambda lo, chunks: sum(pair_counts(x, y, m) for x, y in chunks))
    return sum(blocks)


OL_EMBEDDINGS = [
    (FamilySpec.ol_minus(10, 2.5, 5), (False, True)),
    (FamilySpec.ol_plus(1, 1, 1), (False, False)),
    (FamilySpec.ol_star(0.5, 0.5, 0.5), (True, True)),
]
ONE_SHARED = FamilySpec.an8(3, 0, 0, 0.5, 0, 0, 0, 2)  # AN8 embedding of OL-(3, 0.5, 2)
INDEP_SUPPORT = FamilySpec.an8(2, 0.5, 3, 4, 0, 0, 0, 0)


class TestExactCells:
    """AN5/AN8 vectors with at most one live component on both axes have exact, seed-free cells."""

    def test_indep_support_cells_are_the_betainc_outer_product(self):
        m = 40
        cells = grids._cell_masses(INDEP_SUPPORT, m)
        expected = np.outer(beta_cells(2, 3, m), beta_cells(0.5, 4, m))
        np.testing.assert_allclose(cells, expected, rtol=1e-15, atol=0.0)
        grid = density_grid(INDEP_SUPPORT, m=m, n_samples=10**4, rng=RngState(1))
        assert grid.estimated is False and grid.n_samples == 0 and grid.seed is None

    @pytest.mark.parametrize("spec, flip", OL_EMBEDDINGS, ids=["ol_minus", "ol_plus", "ol_star"])
    def test_ol_embeddings_match_a_quadrature_oracle(self, spec, flip):
        m = 30
        cells = grids._cell_masses(an8_embedding(spec), m)
        assert abs(cells.sum() - 1.0) <= 1e-14
        assert 0.5 * np.abs(cells - ol_cell_oracle(spec.alphas, flip, m)).sum() <= 1e-9

    @pytest.mark.parametrize(
        "family",
        [
            an8_embedding(FamilySpec.ol_minus(10, 2.5, 5)),
            FamilySpec.an5(1e-4, 2, 0, 0, 0.05),
            FamilySpec.an8(0, 1, 0.05, 0, 0, 0, 1e-4, 0),
            FamilySpec.an8(0.05, 0, 0, 3, 0, 0, 0, 0.5),
        ],
        ids=["an8_ol_minus", "an5_tiny", "an8_tiny_shared", "an8_small"],
    )
    def test_cells_agree_with_sampled_histograms(self, family):
        """10^7 sampled pairs land within 5 SE of every cell of mass above 1e-6."""
        m, n = 40, 10_000_000
        p = grids._cell_masses(family, m)
        counts = histogram_cells(family, m, n, seed=91)
        big = p > 1e-6
        se = np.sqrt(n * p * (1.0 - p))
        assert np.all(np.abs(counts - n * p)[big] <= 5 * se[big])

    @pytest.mark.parametrize("flip", [(True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("spec", [ONE_SHARED, INDEP_SUPPORT], ids=["one_shared", "indep_support"])
    def test_complementing_a_coordinate_reverses_the_cells(self, spec, flip):
        m = 25
        cells = grids._cell_masses(spec, m)
        flipped = grids._cell_masses(complement_an8(spec, flip), m)
        expected = cells[::-1] if flip[0] else cells
        expected = expected[:, ::-1] if flip[1] else expected
        assert flipped.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_grids_are_identical_across_seeds_and_sample_counts(self):
        first = density_grid(ONE_SHARED, m=30, n_samples=10**4, rng=RngState(1))
        other = density_grid(ONE_SHARED, m=30, n_samples=10**6, rng=RngState(2, 5))
        assert first.estimated is False and first.cells.tobytes() == other.cells.tobytes()
        assert grids.log_prior_cells(ONE_SHARED, 30, 0, None).cells.tobytes() == grids.log_prior_cells(
            ONE_SHARED, 30, 10**7, RngState(3)
        ).cells.tobytes()

    def test_two_shared_components_keep_the_histogram(self):
        assert grids._cell_masses(FamilySpec.an5(5, 5, 5, 5, 1e-4), 10) is None
        assert grids._cell_masses(FamilySpec.an8(1e-3, 0, 2, 0, 0, 1, 0, 3), 10) is None
        # one shared component, but X has axis-only components in both roles
        assert grids._cell_masses(FamilySpec.an8(1, 0, 1, 1, 0, 0, 0, 1), 10) is None

    @settings(deadline=None, max_examples=40)
    @given(
        shared=st.sampled_from([None, 4, 5, 6, 7]),
        shapes=st.lists(st.sampled_from([1e-4, 0.05, 1.0, 10.0, 1e3]), min_size=4, max_size=4),
    )
    def test_tiny_shapes_converge_to_the_exact_marginals(self, shared, shapes):
        """Down to shape 1e-4, cells sum to 1 and their row and column sums are the beta marginals' cells.

        shared is the AN8 slot on both axes (None: indep support); each axis gets the axis-only
        slot of the other role."""
        roles = families.STRUCTURE[families.AN8]
        if shared is None:
            slots = (0, 2, 1, 3)
        else:
            slots = (shared, 2 if roles[shared][0] == "n" else 0, 3 if roles[shared][1] == "n" else 1)
        vec = [0.0] * 8
        for slot, a in zip(slots, shapes):
            vec[slot] = a
        family = FamilySpec.an8(*vec)
        cells = grids._cell_masses(family, 20)
        assert np.all(cells >= 0.0) and abs(cells.sum() - 1.0) <= 1e-13
        px, py = families.marginal_params(family)
        assert np.abs(cells.sum(axis=1) - beta_cells(px.a, px.b, 20)).sum() <= 1e-10
        assert np.abs(cells.sum(axis=0) - beta_cells(py.a, py.b, 20)).sum() <= 1e-10

    def test_node_budget_raises_naming_the_family(self, monkeypatch):
        monkeypatch.setattr(grids, "_MAX_NODES", 32)
        family = an8_embedding(FamilySpec.ol_minus(10, 2.5, 5))
        with pytest.raises(ValueError, match=re.escape(family.label())):
            grids._cell_masses(family, 20)

    @pytest.mark.parametrize("shared", [1e-20, 5e-20, 1e-19])
    def test_upper_tau_end_below_the_knee(self, shared):
        """Below ~7e-20 the upper tail quantile of the shared component lies under the knee too."""
        family = FamilySpec.an8(1, 0, 0, 1, 0, 0, 0, shared)
        cells = grids._cell_masses(family, 8)
        assert np.all(cells >= 0.0) and abs(cells.sum() - 1.0) <= 1e-13
        px, py = families.marginal_params(family)
        assert np.abs(cells.sum(axis=1) - beta_cells(px.a, px.b, 8)).sum() <= 1e-10
        assert np.abs(cells.sum(axis=0) - beta_cells(py.a, py.b, 8)).sum() <= 1e-10

    @pytest.mark.parametrize("shared", [1e-300, 1e-21, 1e31, 1e300], ids=["tiny", "underflow", "collapsed", "huge"])
    def test_empty_tau_range_raises_naming_the_family(self, shared):
        """Below ~1e-21 the upper tau end underflows to -inf; from 1e31 the range is one float."""
        family = FamilySpec.an8(1, 0, 0, 1, 0, 0, 0, shared)
        with pytest.raises(ValueError, match=re.escape(family.label()) + ".*tau range"):
            grids._cell_masses(family, 4)

    @pytest.mark.parametrize("shared", [1e18, 1e20, 1e30], ids=["overflow", "underflow", "overflow_1e30"])
    def test_lost_node_weights_raise_naming_the_family(self, shared):
        """Shared shapes whose node weights once over- or underflowed (from ~1e18) now give the right cells.

        The log weight is written without the cancelling a_s log a_s terms.  X is about 0 and Y about 1,
        so all the mass is in cell (0, m-1), and the marginals are the exact beta cells.
        """
        family = FamilySpec.an8(1, 0, 0, 1, 0, 0, 0, shared)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cells = grids._cell_masses(family, 4)
        assert np.all(cells >= 0.0) and abs(cells[0, 3] - 1.0) <= 1e-12
        px, py = families.marginal_params(family)
        assert np.abs(cells.sum(axis=1) - beta_cells(px.a, px.b, 4)).sum() <= 1e-12
        assert np.abs(cells.sum(axis=0) - beta_cells(py.a, py.b, 4)).sum() <= 1e-12

    def test_memory_does_not_grow_with_the_node_count(self, monkeypatch):
        """Nodes are accumulated in chunks: 8192 nodes peak under 1.5x the peak of 1024."""
        monkeypatch.setattr(grids, "_CELL_TV_TOL", -1.0)  # never converges, so every level runs
        peaks = []
        for nodes in (1 << 10, 1 << 13):
            monkeypatch.setattr(grids, "_MAX_NODES", nodes)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError):
                    grids._cell_masses(ONE_SHARED, 50)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_convergence_holds_three_grids(self):
        """At m=1000 the exact OL- cells peak under 36 MB, 4.5 grids of 8 MB: the running sum, the matmul
        scratch and the last rule's grid, and the node chunk's temporaries.  With the scratch, the new
        grid, their difference and its abs as fresh arrays, the peak was 41.6 MB."""
        family = an8_embedding(FamilySpec.ol_minus(10, 2.5, 5))
        tracemalloc.start()
        try:
            grids._cell_masses(family, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36e6, peak

    @settings(deadline=None, max_examples=60)
    @given(shapes=st.lists(st.sampled_from([1e-4, 1.0, 1e6, 1e10, 1e12, 1e13, 1e14, 1e16]), min_size=3, max_size=3))
    def test_large_shapes_converge_to_the_exact_marginals_or_raise(self, shapes):
        """AN8(a, 0, 0, b, 0, 0, 0, s) with shapes up to 1e16: the cells' marginals are within 1e-9 in TV
        of the beta marginals' cells, or the rule is refused with a ValueError naming the family.

        Over all 512 vectors of these shapes at m=50, 467 converge (the largest TV is 2.8e-10, at
        1e12 in every slot) and 45 are refused for want of convergence."""
        a, b, s = shapes
        family = FamilySpec.an8(a, 0, 0, b, 0, 0, 0, s)
        try:
            cells = grids._cell_masses(family, 50)
        except ValueError as exc:
            assert family.label() in str(exc)
            return
        px, py = families.marginal_params(family)
        assert 0.5 * np.abs(cells.sum(axis=1) - beta_cells(px.a, px.b, 50)).sum() <= 1e-9
        assert 0.5 * np.abs(cells.sum(axis=0) - beta_cells(py.a, py.b, 50)).sum() <= 1e-9


class TestSerialization:
    def test_csv_shape_and_determinism(self):
        grid = density_grid(FamilySpec.ol_star(3, 1, 1), m=5)
        text = grid.to_csv()
        lines = text.strip().split("\n")
        assert len(lines) == 6  # header + 5 rows
        assert all(len(line.split(",")) == 5 for line in lines)
        assert text == density_grid(FamilySpec.ol_star(3, 1, 1), m=5).to_csv()

    def test_json_metadata(self):
        spec = FamilySpec.an5(5, 5, 5, 5, 1e-4)
        grid = density_grid(spec, m=10, n_samples=10_000, rng=RngState(64, 2))
        doc = json.loads(grid.to_json())
        assert doc["meta"]["variant"] == "an5"
        assert doc["meta"]["alphas"] == [5, 5, 5, 5, 1e-4]
        assert doc["meta"]["m"] == 10
        assert doc["meta"]["n_samples"] == 10_000
        assert doc["meta"]["seed"] == [64, 2]
        assert doc["meta"]["estimated"] is True
        assert len(doc["data"]["cells"]) == 10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DensityGrid(m=3, cells=np.ones((2, 2)), estimated=False, n_samples=0)
