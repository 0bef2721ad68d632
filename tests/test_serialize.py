"""Numeric writers: the CSV and JSON kernels and layouts equal the per-cell writers of
serialize_oracle byte for byte, `sample` and dense grids stream their output, and their memory does
not grow with --n or with the grid."""

import math
import os
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import launcher
import serialize_oracle as oracle
from bibeta import serialize
from bibeta.cli import main
from bibeta.families import FamilySpec
from bibeta.inference import DiagnosticData, PriorSpec, joint_posterior
from bibeta.sampling import BLOCK, RngState, sample_pairs
from bibeta.grids import density_grid
from bibeta.serialize import _JSON_SLICE, _SLICE, csv_chunks, csv_rows, csv_text, json_chunks, json_text
from bibeta.special import BetaParams

SPECIAL = [-0.0, 0.0, 1.0, 5e-324, 2.5e-310, 1e-300, 1e300, 3.0, -42.0, 2.0**53, 0.1, 1 / 3,
           np.nan, np.inf, -np.inf]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
EDGE_SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (7, 1)]
META = {"m": 3, "alphas": [10.0, 2.5, 5.0], "seed": None, "variant": "ol-minus"}


def arrays(dims):
    shapes = st.one_of(st.sampled_from([s[:dims] for s in EDGE_SHAPES]),
                       hnp.array_shapes(min_dims=dims, max_dims=dims, min_side=0, max_side=8))
    return hnp.arrays(np.float64, shapes, elements=VALUES)


# Values that put -0.0 and NaN on a block's border, or whole +0.0 rows and columns inside it,
# more often than VALUES alone.
BLOCK_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan]), VALUES)


@st.composite
def bordered(draw, dims):
    """A block of values at a random offset in a +0.0 array.

    The block may touch any edges or none, hold one cell, or hold only +0.0, which
    leaves an all-+0.0 array: the cases of the writers' +0.0 box.
    """
    shape = draw(hnp.array_shapes(min_dims=dims, max_dims=dims, min_side=1, max_side=8))
    lo = [draw(st.integers(0, n - 1)) for n in shape]
    block = tuple(slice(i, draw(st.integers(i + 1, n))) for i, n in zip(lo, shape))
    a = np.zeros(shape)
    a[block] = draw(hnp.arrays(np.float64, a[block].shape, elements=BLOCK_VALUES))
    return a


def ulps(x: float, k: int) -> float:
    """x moved k units in the last place (toward +-inf as k is positive or negative)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# the half-way points (d + 0.5) 10^(e-11) between two 12-digit decimals d and d + 1, over the whole
# exponent range, where "%.12g" rounds half to even on the exact binary value
HALF_WAYS = st.builds(lambda d, e: float(f"{d}5e{e - 12}"), st.integers(10**11, 10**12 - 1), st.integers(-312, 307))
# powers of ten (where log10 may land in the wrong decade), the fixed/scientific switches at
# 1e-5/1e-4 and 1e11/1e12 and values that round across them, carries such as 999999999999.5,
# and integers with trailing zeros in the integer part
BOUNDARY_POINTS = [float(f"1e{k}") for k in range(-310, 309)] + [
    9.99999999999e-6, 9.999999999995e-5, 99999999999.95, 999999999999.5, 999999999999.4999,
    9.999999999995, 0.9999999999995, 1200.0, 120000000000.0, 100000000000.0, 10.0, 100.0, 123456789000.0]
BOUNDARIES = st.builds(lambda x, k, sign: sign * ulps(x, k),
                       st.one_of(HALF_WAYS, st.sampled_from(BOUNDARY_POINTS)), st.integers(-3, 3),
                       st.sampled_from([1.0, -1.0]))


def boundary_arrays():
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                      elements=BOUNDARIES)


def boundary_values() -> np.ndarray:
    """Every boundary point and +-3 ulp, and half-way points of five 12-digit decimals at every exponent."""
    values = [ulps(x, k) for x in BOUNDARY_POINTS for k in range(-3, 4)]
    for d in (10**11, 123456789012, 314159265358, 500000000000, 10**12 - 1):
        values += [ulps(float(f"{d}5e{e - 12}"), k) for e in range(-312, 308) for k in (-2, -1, 0, 1, 2)]
    values = np.array(values)
    return np.concatenate([values, -values[::7]])


def binades() -> list:
    """Both ends of each binade, subnormal ones included: 2^e and the largest float below 2^(e+1)."""
    ends = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    return ends + [math.nextafter(x, 0.0) for x in ends[1:]] + [sys.float_info.max]


def digit_counts(rng) -> list:
    """Decimals of 1 to 17 significant digits at random exponents, 40 of each."""
    values = []
    for n in range(1, 18):
        lead = rng.integers(1, 10, 40)
        rest = rng.integers(0, 10**(n - 1), 40) if n > 1 else np.zeros(40, int)
        for d, r, e in zip(lead.tolist(), rest.tolist(), rng.integers(-320, 290, 40).tolist()):
            values.append(float(f"{d}{r:0{n - 1}d}e{e}" if n > 1 else f"{d}e{e}"))
    return values


def interval_edges() -> list:
    """Pairs of floats with a decimal exactly on the edge between their rounding intervals.

    The edge between c 2^q and (c + 1) 2^q is (2c + 1) 2^(q-1).  It is a decimal D 2^t 10^k, with D
    odd, where D 5^k = 2c + 1 has 54 bits: only for 1 <= k <= 23.  Where the intervals, 2^(k+1+t)
    wide, are narrower than 10^k, no other decimal as short lies in them, so the float with the even
    c, which reads back from its edges, writes the edge, and the odd one does not.
    """
    values = []
    for k in range(1, 24):
        lo = -(-2**53 // 5**k) | 1
        for d in range(lo, min(lo + 40, 2**54 // 5**k), 2):
            c = (d * 5**k - 1) // 2
            values += [math.ldexp(c + i, k + 1 + t) for t in range(4) if 2**(k + 1 + t) < 10**k for i in (0, 1)]
    return values


def repr_values() -> np.ndarray:
    """Floats where a shortest-repr kernel can go wrong, and their neighbours."""
    rng = np.random.default_rng(24)
    two53, tiny, big = 2.0**53, 5e-324, sys.float_info.max
    tens = [float(f"1e{k}") for k in range(-323, 309)]  # repr's notation switches at 1e-4 and 1e16
    points = (binades() + digit_counts(rng) + interval_edges() + tens
              + [two53 + k for k in range(-64, 65)] + [k * tiny for k in range(1, 64)] + [2.0**54 + 2, 2.0**63])
    values = [ulps(x, k) for x in points for k in (-2, -1, 0, 1, 2) if math.isfinite(ulps(x, k))]
    values += [big, -big, 0.0, -0.0, math.nan, math.inf, -math.inf]
    values = np.array(values)
    return np.concatenate([values, -values[::5]])


def edge_array(shape):
    size = int(np.prod(shape))
    return np.resize(np.array(SPECIAL), size).reshape(shape)


class TestLayouts:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(arrays(2), bordered(2), boundary_arrays()))
    def test_csv_matches_oracle(self, a):
        header = [f"{t:.12g}" for t in np.linspace(0.0, 1.0, a.shape[1])]
        assert "".join(csv_chunks(header, a)) == oracle.csv_text(header, a.tolist())

    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(arrays(1), arrays(2), bordered(1), bordered(2), bordered(3)),
           b=st.one_of(arrays(1), bordered(1)))
    def test_json_matches_oracle(self, a, b):
        """Arrays at two depths, beside plain values, nested mappings and an empty one."""
        data = {"a": a, "nested": {"b": b, "k": 2, "empty": {}}, "z": [1.5, None]}
        expected = {"a": a.tolist(), "nested": {"b": b.tolist(), "k": 2, "empty": {}}, "z": [1.5, None]}
        assert json_text(META, data) == oracle.json_text(META, expected)

    @pytest.mark.parametrize("shape", EDGE_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_edge_shapes_carry_every_special_value(self, shape):
        a = edge_array(shape)
        assert "".join(csv_chunks(["x"] * shape[1], a)) == oracle.csv_text(["x"] * shape[1], a.tolist())
        for v in (a, a[:, 0] if shape[1] else a.ravel()):
            assert json_text(META, {"v": v}) == oracle.json_text(META, {"v": v.tolist()})

    @pytest.mark.parametrize("shape", [(_SLICE - 1, 1), (_SLICE + 1, 1), (_SLICE // 2, 2), (_SLICE // 3 + 1, 3)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_rounding_boundaries_match_oracle(self, shape):
        """Half-way points, powers of ten, notation switches and carries, in arrays either side of one slice."""
        a = np.resize(boundary_values(), shape)
        assert csv_rows(a) == oracle.csv_text([], a.tolist())[1:]

    @pytest.mark.parametrize("cols, extra", [(1, -1), (1, 1), (3, -1), (3, 1), (None, 0)],
                             ids=["1col-1", "1col+1", "3col-1", "3col+1", "1d"])
    def test_shortest_repr_matches_oracle(self, cols, extra):
        """Every class of repr_values, in arrays one row short of and one row past whole slices, and in
        one row longer than a slice: repr's bytes."""
        values = repr_values()
        if cols is None:
            a = values
        else:
            per_slice = _JSON_SLICE // cols
            a = np.resize(values, (per_slice * (len(values) // _JSON_SLICE + 2) + extra, cols))
        assert json_text(META, {"v": a}) == oracle.json_text(META, {"v": a.tolist()})

    def test_repr_values_cover_every_class(self):
        """repr_values holds texts of 1 to 17 digits, both notations, subnormals, and interval edges
        that the even float of each pair writes and the odd one does not."""
        values = repr_values()
        texts = [repr(v) for v in values[np.isfinite(values)].tolist()]
        lengths = {len(t.split("e")[0].replace("-", "").replace(".", "").strip("0")) for t in texts}
        assert lengths >= set(range(1, 18))
        assert any("e" in t for t in texts) and any("e" not in t and "." in t for t in texts)
        assert (np.abs(values) < sys.float_info.min).sum() > 1000
        edges = interval_edges()
        for a, b in zip(edges[::2], edges[1::2]):
            edge = Decimal(a) + (Decimal(b) - Decimal(a)) / 2
            even, odd = (a, b) if int(a / math.ulp(a)) % 2 == 0 else (b, a)
            assert Decimal(repr(even)) == edge != Decimal(repr(odd))
        assert len(edges) > 1000

    def test_random_bit_patterns_match_oracle(self):
        """Uniformly random 64-bit patterns: every finite float, subnormals included, NaNs and infinities."""
        a = np.random.default_rng(2024).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        a = a.reshape(-1, 4)
        assert json_text(META, {"v": a}) == oracle.json_text(META, {"v": a.tolist()})

    def test_header_percent_signs_are_literal(self):
        """Header cells are written as they are, % signs included, above the kernel's rows."""
        a = np.zeros((4, 3))
        a[1, 1:] = [-0.0, 2.5]
        header = ["a%", "%s", "100%%"]
        assert "".join(csv_chunks(header, a)) == oracle.csv_text(header, a.tolist())

    def test_csv_rows_is_the_body_of_csv_text(self):
        """The kernel writes a float array as csv_text writes its rows of floats, cell by cell."""
        a = edge_array((5, 3))
        assert csv_text(["a", "b", "c"], a.tolist()) == "a,b,c\n" + csv_rows(a)


@pytest.mark.parametrize("rows", [_SLICE // 100 - 1, _SLICE // 100, _SLICE // 100 + 1, 2 * (_SLICE // 100) + 1])
def test_csv_chunks_are_whole_rows_of_one_slice(rows):
    """csv_chunks yields the header, then whole rows of at most one slice; a +0.0 border stays literal."""
    a = np.zeros((rows + 4, 104))
    a[2:-2, 1:-3] = np.random.default_rng(rows).standard_normal((rows, 100))
    header = [f"c{j}" for j in range(104)]
    chunks = list(csv_chunks(header, a))
    assert "".join(chunks) == oracle.csv_text(header, a.tolist())
    body = [c for c in chunks[1:] if not c.startswith("0,0,0,0,0,")]
    assert all(c.endswith("\n") and c.count("\n") <= _SLICE // 100 for c in body)
    assert len(body) == -(-rows // (_SLICE // 100))


@pytest.mark.parametrize("rows", [_JSON_SLICE // 100 - 1, _JSON_SLICE // 100 + 1, 2 * (_JSON_SLICE // 100) + 1])
def test_json_chunks_are_whole_rows_of_one_slice(rows):
    """json_chunks yields the rows of the box a slice at a time: each slice's rows close in its string."""
    a = np.zeros((rows + 4, 104))
    a[2:-2, 1:-3] = np.random.default_rng(rows).standard_normal((rows, 100))
    chunks = list(json_chunks({"m": 3}, {"a": a}))
    assert "".join(chunks) == oracle.json_text({"m": 3}, {"a": a.tolist()})
    body = [c for c in chunks if c.count("]") and c.strip("[]0.,\n ")]
    assert all(c.count("]") <= _JSON_SLICE // 100 for c in body)
    assert len(body) == -(-rows // (_JSON_SLICE // 100))


def test_long_row_is_written_in_slices():
    """A row of more than one slice of cells comes in strings of at most one slice of values."""
    a = np.random.default_rng(3).standard_normal(3 * _JSON_SLICE + 5)
    chunks = list(json_chunks(META, {"a": a}))
    assert "".join(chunks) == oracle.json_text(META, {"a": a.tolist()})
    assert max(c.count(",") for c in chunks) <= _JSON_SLICE


def test_rows_longer_than_a_slice_are_one_string_each():
    """A 2-D row of more than one slice of cells is written whole, one row per string: the oracle's bytes."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, _SLICE + 5))
    header = [f"c{j}" for j in range(a.shape[1])]
    assert list(csv_chunks(header, a)) == oracle.csv_text(header, a.tolist()).splitlines(keepends=True)
    a = rng.standard_normal((3, _JSON_SLICE + 5))
    chunks = list(json_chunks(META, {"a": a}))
    assert "".join(chunks) == oracle.json_text(META, {"a": a.tolist()})
    cols = a.shape[1]
    rows = [c for c in chunks if c.count(",") >= cols - 1]
    # each row's values and, but for the last row, the separator after it
    assert [(c.count("["), c.count("]"), c.count(",")) for c in rows] == [(1, 1, cols), (1, 1, cols), (1, 1, cols - 1)]


def test_posterior_json_goes_through_the_fallback_for_almost_no_value(monkeypatch):
    """On the m=1000 OL-(10,2.5,5) posterior at n=10^4, fewer than 1% of the box's values are written
    one at a time: the kernel leaves only NaN and +-inf to json.dumps."""
    calls = []
    fallback = serialize._json_texts
    monkeypatch.setattr(serialize, "_json_texts", lambda values: calls.extend(values) or fallback(values))
    prior = PriorSpec(FamilySpec.ol_minus(10, 2.5, 5), BetaParams(1, 1))
    gp = joint_posterior(DiagnosticData(10_000, 3500, 2800, 5000), prior, m=1000)
    gp.to_json()
    (r0, r1), (c0, c1) = serialize._box(gp.weights)
    assert (r1 - r0) * (c1 - c0) > 100_000
    fallbacks = len(calls)
    assert fallbacks < 0.01 * (r1 - r0) * (c1 - c0)
    # the counter sees the kernel's fallback: a NaN goes through it
    assert "NaN" in json_text(META, {"v": np.array([1.5, np.nan])})
    assert len(calls) == fallbacks + 1


@pytest.mark.parametrize("m", [127, 128, 129])
def test_streamed_density_csv_matches_oracle(tmp_path, m):
    """`density` writes its CSV in row slices (128 rows of 128 cells is one slice): the oracle's bytes."""
    out = tmp_path / "density.csv"
    assert main(["density", "--family", "ol-minus", "--alphas", "10,2.5,5", "--m", str(m), "--out", str(out)]) == 0
    grid = density_grid(FamilySpec.ol_minus(10, 2.5, 5), m)
    header = [f"{(j + 0.5) / m:.12g}" for j in range(m)]
    assert out.read_bytes() == oracle.csv_text(header, grid.cells.tolist()).encode()


FAMILY_ARGV = ["--family", "ol-minus", "--alphas", "10,2.5,5", "--seed", "7"]


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_streamed_sample_csv_matches_oracle(capsys, tmp_path, n):
    """Block by block, to a file and to stdout, `sample` writes the oracle's CSV of sample_pairs."""
    x, y = sample_pairs(RngState(7), FamilySpec.ol_minus(10, 2.5, 5), n)
    expected = oracle.csv_text(["x", "y"], zip(x.tolist(), y.tolist())).encode()
    out = tmp_path / "sample.csv"
    assert main(["sample", *FAMILY_ARGV, "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert main(["sample", *FAMILY_ARGV, "--n", str(n), "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == expected


def sample_peak_rss(n: int) -> int:
    argv = ["-m", "bibeta", "sample", *FAMILY_ARGV, "--n", str(n), "--out", os.devnull]
    return launcher.run_python(argv)[1]


def test_sample_memory_does_not_grow_with_n():
    """8 blocks peak below twice the peak of one: no array or string of n pairs is built.

    The per-cell writer peaked at 5.0 times, the streamed one at about 1.5 times and the
    chunked one at about 1.2 times."""
    assert sample_peak_rss(8 * BLOCK) < 2 * sample_peak_rss(BLOCK)


def density_peak_rss(m: int, fmt: str = "csv") -> int:
    argv = ["-m", "bibeta", "density", "--family", "ol-minus", "--alphas", "10,2.5,5", "--m", str(m),
            "--format", fmt, "--out", os.devnull]
    return launcher.run_python(argv)[1]


def test_dense_grid_csv_memory_is_the_grid_plus_slices():
    """The m=1000 CSV peaks below the m=100 peak plus 32 MB: its rows are formatted slice by slice.

    The whole-grid writer peaked at 112 MB against 30 MB for m=100, the streamed one at 54 MB."""
    assert density_peak_rss(1000) < density_peak_rss(100) + 32 * 1024


def test_dense_grid_json_memory_is_the_grid_plus_slices():
    """The m=1000 JSON peaks below the m=100 peak plus 32 MB: its rows are formatted and written slice by slice.

    The whole-document writer peaked at 142 MB against 30 MB for m=100, the streamed one at 54 MB."""
    assert density_peak_rss(1000, "json") < density_peak_rss(100, "json") + 32 * 1024
