"""Seeded random generation of gamma variates and bivariate-family samples.

Streams are backed by the counter-based Philox generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream, ...))``, so a given
(seed, stream) pair reproduces the same variate sequence on every platform
and parallel sub-streams can be derived without coordination.

Pairs are made in blocks of BLOCK pairs on up to MAX_WORKERS threads.  A
call draws one call key from the state's generator; block k draws the j-th
nonzero-shape component from spawn_key=(stream, call_key, j, k), fixed by
the block's index, so the bytes do not depend on the number of cores.
BLOCK is part of the stream definition, not a tuning knob.  Inside a block
the pairs are drawn, assembled and consumed CHUNK at a time, which only sizes
a worker's working set: O(CHUNK) floats plus, per component of shape below
LOG_SPACE_SHAPE, the block's Gamma(s+1) draws.  numpy fills a draw one variate
at a time, so any CHUNK gives the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterator, Optional, Tuple, TypeVar

import numpy as np

from . import families
from .families import FamilySpec

# below this shape, gamma draws are built through the boost identity
# Gamma(a) = Gamma(a+1) * U^(1/a) taken in log space, so shapes like 1e-4
# keep their full magnitude information instead of underflowing to zero
LOG_SPACE_SHAPE = 0.02

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
    Drawing advances the state; one state may not be used concurrently.
    """

    seed: int
    stream: int = 0
    _generator: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError(f"seed and stream must be unsigned, got ({self.seed}, {self.stream})")

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(
                np.random.Philox(seed=np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))
            )
        return self._generator

    def child(self, *key: int) -> np.random.Generator:
        """A fresh generator on a derived sub-stream; does not advance this state."""
        return np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence(self.seed, spawn_key=(self.stream, *key)))
        )

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


def _boost_log_in_place(w: np.ndarray, u: np.ndarray, shape: float) -> None:
    # boost identity in logs: ln Gamma(shape) = ln Gamma(shape+1) + ln(U)/shape
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
        np.log(u, out=u)
    u /= shape
    w += u


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


Chunks = Iterator[Tuple[np.ndarray, np.ndarray]]


def pair_blocks(
    rng: RngState,
    family: FamilySpec,
    n: int,
    consume: Callable[[int, Chunks], T],
) -> Iterator[T]:
    """consume(lo, chunks) for each block of n draws from pair lo on, in block order.

    Block k, a task on a worker thread, draws its slice of component j from
    rng.child(call_key, j, k).  chunks yields the block's pairs in order as
    (x, y) arrays of at most CHUNK pairs, each drawn and assembled (_ratio)
    when consume asks for it, so a worker holds O(CHUNK) floats.  Shapes below
    LOG_SPACE_SHAPE are drawn in logs through the boost identity; their stream
    holds the block's Gamma(s+1) draws before its uniforms, so those are drawn
    first, in CHUNK pieces let go as they are used.  The ratios are assembled
    from logs only where some axis's numerator or rest has no other shape, as
    its sum could underflow to 0 (B(1e-4, 1e-4) would read 0/0), else from
    the exponentiated draws.  A zero shape draws nothing (families.ratio_axes
    leaves it out).
    """
    from concurrent.futures import ThreadPoolExecutor

    shapes = family.alphas
    live = [i for i, s in enumerate(shapes) if s > 0.0]
    axes = families.ratio_axes(family)
    log_path = any(all(shapes[i] < LOG_SPACE_SHAPE for i in side) for ax in axes for side in ax)
    call_key = int(rng.generator.integers(1 << 63))

    def chunks(lo: int, hi: int) -> Chunks:
        gens = {i: rng.child(call_key, j, lo // BLOCK) for j, i in enumerate(live)}
        sizes = [min(CHUNK, hi - start) for start in range(lo, hi, CHUNK)]
        # a tiny shape's stream holds all the block's Gamma(s+1) draws before its uniforms
        boosted = {i: [gens[i].standard_gamma(shapes[i] + 1.0, size) for size in sizes][::-1]
                   for i in live if shapes[i] < LOG_SPACE_SHAPE}
        for size in sizes:
            draws = {}
            for i in live:
                s, gen = shapes[i], gens[i]
                g = draws[i] = boosted[i].pop() if i in boosted else gen.standard_gamma(s, size)
                if i in boosted:
                    _boost_log_in_place(g, gen.random(size), s)
                    if not log_path:
                        np.exp(g, out=g)
                elif log_path:
                    _log_in_place(g)
            x, y = (_ratio([draws[i] for i in num], [draws[i] for i in rest], log_path) for num, rest in axes)
            del draws, g  # only the two coordinates stay alive while consume runs
            yield x, y

    def block(lo: int) -> T:
        return consume(lo, chunks(lo, min(lo + BLOCK, n)))

    with ThreadPoolExecutor(max(1, min(MAX_WORKERS, _usable_cores(), -(-n // BLOCK)))) as pool:
        yield from pool.map(block, range(0, n, BLOCK))


def sample_pairs(rng: RngState, family: FamilySpec, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n draws of (x, y) built exactly per the family's gamma-ratio definition (see pair_blocks)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x, y = np.empty(n), np.empty(n)

    def write(lo: int, chunks: Chunks) -> None:
        for bx, by in chunks:
            x[lo:lo + bx.size] = bx
            y[lo:lo + bx.size] = by
            lo += bx.size

    for _ in pair_blocks(rng, family, n, write):
        pass
    return x, y
