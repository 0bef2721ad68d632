"""Numeric writers: the one-%-format layouts equal the per-cell writers of serialize_oracle byte
for byte, `sample` streams its CSV block by block, and its memory does not grow with --n."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import launcher
import serialize_oracle as oracle
from bibeta.cli import main
from bibeta.families import FamilySpec
from bibeta.sampling import BLOCK, RngState, sample_pairs
from bibeta.serialize import csv_rows, csv_text, json_text

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


def edge_array(shape):
    size = int(np.prod(shape))
    return np.resize(np.array(SPECIAL), size).reshape(shape)


class TestLayouts:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(arrays(2), bordered(2)))
    def test_csv_matches_oracle(self, a):
        header = [f"{t:.12g}" for t in np.linspace(0.0, 1.0, a.shape[1])]
        assert csv_text(header, a) == oracle.csv_text(header, a.tolist())

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
        assert csv_text(["x"] * shape[1], a) == oracle.csv_text(["x"] * shape[1], a.tolist())
        for v in (a, a[:, 0] if shape[1] else a.ravel()):
            assert json_text(META, {"v": v}) == oracle.json_text(META, {"v": v.tolist()})

    def test_header_percent_signs_are_literal(self):
        """csv_text puts the header into the rows' %-template, escaped."""
        a = np.zeros((4, 3))
        a[1, 1:] = [-0.0, 2.5]
        header = ["a%", "%s", "100%%"]
        assert csv_text(header, a) == oracle.csv_text(header, a.tolist())

    def test_csv_rows_is_the_body_of_csv_text(self):
        a = edge_array((5, 3))
        assert csv_text(["a", "b", "c"], a) == "a,b,c\n" + csv_rows(a)


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
