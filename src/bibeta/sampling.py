"""Seeded random generation of gamma variates and bivariate-family samples.

Streams are backed by numpy's SFC64 generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream, ...))``, so a given
(seed, stream) pair reproduces the same variate sequence on every platform
and parallel sub-streams can be derived without coordination.

Pairs are made in blocks of BLOCK pairs on up to MAX_WORKERS threads.  A
call draws one call key from the state's generator; block k draws the j-th
nonzero-shape component from spawn_key=(stream, call_key, j, k), fixed by
the block's index, so the bytes do not depend on the number of cores.  A
shape below LOG_SPACE_SHAPE is drawn through the boost identity from two
streams: its uniforms from that key, its Gamma(s+1) draws from
(stream, call_key, j, k, 1).  BLOCK is part of the stream definition, not a
tuning knob.  Inside a block the pairs are drawn and assembled CHUNK at a
time, and the worker hands each chunk to the consumer before it draws the
next; CHUNK only sizes a worker's working set: O(CHUNK) floats.  numpy
fills a draw one variate at a time and every stream is consumed in order,
so any CHUNK gives the same bytes.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterator, Tuple, TypeVar

import numpy as np

from . import families
from .families import FamilySpec

# below this shape, gamma draws are built through the boost identity
# Gamma(a) = Gamma(a+1) * U^(1/a) taken in log space, so shapes like 1e-4
# keep their full magnitude information instead of underflowing to zero
LOG_SPACE_SHAPE = 0.02
# on the linear path a boosted draw is exp(log G + log(U)/a).  Where log(U)/a <= UNDERFLOW_LOG
# that is +0.0 unless G > e^15, which for G ~ Gamma(a+1), a < 0.02, has probability below
# e^(-3e6); so G is drawn only where log(U)/a > UNDERFLOW_LOG (7% of the pairs at a = 1e-4)
UNDERFLOW_LOG = -760.0

# pairs per block (changing it changes every sample), the most threads, and the pairs a
# worker assembles at once: on 2 cores the AN5-prior posterior peaked at 42.3, 43.7, 46.8,
# 52.2 and 75 MB at CHUNK 2^13..2^16 and 2^18, and its grid was made fastest at 2^14
BLOCK = 1 << 18
MAX_WORKERS = 4
CHUNK = 1 << 14

T = TypeVar("T")


@dataclass
class RngState:
    """A reproducible random stream identified by (seed, stream).

    Two states constructed with the same identifiers yield bit-identical
    variate sequences: generator is keyed spawn_key=(stream,), child(*key)
    (stream, *key), and pair_blocks uses key (call key, ordinal, block).
    Pair draws advance the state (a call key from generator); grids and
    synthetic data are named by its identity.  Not for concurrent use.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError(f"seed and stream must be unsigned, got ({self.seed}, {self.stream})")

    @cached_property
    def generator(self) -> np.random.Generator:
        return self.child()

    def child(self, *key: int) -> np.random.Generator:
        """A fresh generator on a derived sub-stream; does not advance this state."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *key))
        return np.random.Generator(np.random.SFC64(seq))

    @property
    def identity(self) -> Tuple[int, int]:
        return (self.seed, self.stream)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _log_in_place(g: np.ndarray) -> None:
    with np.errstate(divide="ignore"):
        np.log(g, out=g)


def _boosted(u: np.ndarray, boost: np.random.Generator, shape: float, log_path: bool) -> np.ndarray:
    """Gamma(shape) = Gamma(shape+1) * U^(1/shape) from the uniforms u and, in order, boost's
    Gamma(shape+1) draws: in logs on the log path, else drawing those only where the draw can be nonzero."""
    _log_in_place(u)
    u /= shape
    kept = slice(None) if log_path else u > UNDERFLOW_LOG
    w = boost.standard_gamma(shape + 1.0, u[kept].size)
    _log_in_place(w)
    w += u[kept]
    if log_path:
        return w
    g = np.zeros(u.size)
    g[kept] = np.exp(w, out=w)
    return g


def _ratio(num: list, rest: list, log_path: bool) -> np.ndarray:
    """sum(num) / (sum(num) + sum(rest)); on the log path the terms are
    exp(l - L) of the logs l, L the axis's largest log."""
    if log_path:
        shift = reduce(np.maximum, num + rest)

        def term(log_g: np.ndarray) -> np.ndarray:
            e = np.subtract(log_g, shift)
            return np.exp(e, out=e)

        num, rest = map(term, num), map(term, rest)
    top, rem = reduce(np.add, num), reduce(np.add, rest)
    c = np.add(top, rem)
    return np.divide(top, c, out=c)


def pair_blocks(rng: RngState, family: FamilySpec, n: int,
                each: Callable[[int, np.ndarray, np.ndarray], T]) -> Iterator[T]:
    """each(lo, x, y) for every chunk of n draws, lo the chunk's first pair, yielded in pair order.

    Each block is a task on a worker thread that reads the sub-streams laid
    out above and calls each on its chunks, (x, y) arrays of at most CHUNK
    pairs, in order as it assembles them (_ratio).  Shapes below
    LOG_SPACE_SHAPE go through the boost identity (_boosted).  The ratios
    are assembled from logs only where some axis's numerator or rest has no
    other shape, as its sum could underflow to 0 (B(1e-4, 1e-4) would read
    0/0), else from the exponentiated draws.  A zero shape draws nothing
    (families.ratio_axes leaves it out).  Closing the iterator cancels the
    blocks not yet started.
    """
    from concurrent.futures import ThreadPoolExecutor

    shapes = family.alphas
    live = [i for i, s in enumerate(shapes) if s > 0.0]
    axes = families.ratio_axes(family)
    log_path = any(all(shapes[i] < LOG_SPACE_SHAPE for i in side) for ax in axes for side in ax)
    call_key = int(rng.generator.integers(1 << 63))

    def block(lo: int) -> list:
        k, hi, out = lo // BLOCK, min(lo + BLOCK, n), []
        gens = {i: rng.child(call_key, j, k) for j, i in enumerate(live)}
        boosts = {i: rng.child(call_key, j, k, 1) for j, i in enumerate(live) if shapes[i] < LOG_SPACE_SHAPE}
        for start in range(lo, hi, CHUNK):
            size, draws = min(CHUNK, hi - start), {}
            for i in live:
                if i in boosts:
                    g = _boosted(gens[i].random(size), boosts[i], shapes[i], log_path)
                else:
                    g = gens[i].standard_gamma(shapes[i], size)
                    if log_path:
                        _log_in_place(g)
                draws[i] = g
            x, y = (_ratio([draws[i] for i in num], [draws[i] for i in rest], log_path) for num, rest in axes)
            del draws, g  # only the two coordinates stay alive while each runs
            out.append(each(start, x, y))
        return out

    with ThreadPoolExecutor(max(1, min(MAX_WORKERS, _usable_cores(), -(-n // BLOCK)))) as pool:
        # chain drops each block's results before it waits for the next block
        yield from itertools.chain.from_iterable(pool.map(block, range(0, n, BLOCK)))


def sample_pairs(rng: RngState, family: FamilySpec, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n draws of (x, y) built exactly per the family's gamma-ratio definition (see pair_blocks)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x, y = np.empty(n), np.empty(n)

    def write(lo: int, bx: np.ndarray, by: np.ndarray) -> None:
        x[lo:lo + bx.size], y[lo:lo + by.size] = bx, by

    for _ in pair_blocks(rng, family, n, write):
        pass
    return x, y
