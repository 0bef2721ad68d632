"""Seeded random generation of gamma variates and bivariate-family samples.

Streams are backed by the counter-based Philox generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream, ...))``, so a given
(seed, stream) pair reproduces the same variate sequence on every platform
and parallel sub-streams can be derived without coordination.

Pairs are made in blocks of BLOCK pairs on up to MAX_WORKERS threads.  A
call draws one call key from the state's generator; block k draws the j-th
nonzero-shape component from spawn_key=(stream, call_key, j, k), fixed by
the block's index, so the bytes do not depend on the number of cores.
BLOCK is part of the stream definition, not a tuning knob.
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

# pairs per block (changing it changes every sample), and the most threads
BLOCK = 1 << 18
MAX_WORKERS = 4

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


def pair_blocks(
    rng: RngState,
    family: FamilySpec,
    n: int,
    consume: Callable[[int, int, np.ndarray, np.ndarray], T],
) -> Iterator[T]:
    """consume(lo, hi, x, y) of pairs lo..hi-1 for each block of n draws, in block order.

    Block k, a task on a worker thread, draws its slice of component j from
    rng.child(call_key, j, k), assembles both ratios (_ratio) and runs
    consume; no array is longer than BLOCK.  Shapes below LOG_SPACE_SHAPE are
    drawn in logs; the ratios are assembled from logs only where some axis's
    numerator or rest has no other shape, as its sum could underflow to 0
    (B(1e-4, 1e-4) would read 0/0), else from the exponentiated draws.  A
    zero shape draws nothing (families.ratio_axes leaves it out).
    """
    from concurrent.futures import ThreadPoolExecutor

    shapes = family.alphas
    live = [i for i, s in enumerate(shapes) if s > 0.0]
    axes = families.ratio_axes(family)
    log_path = any(all(shapes[i] < LOG_SPACE_SHAPE for i in side) for ax in axes for side in ax)
    call_key = int(rng.generator.integers(1 << 63))

    def block(lo: int) -> T:
        k, size = lo // BLOCK, min(BLOCK, n - lo)
        draws = {}
        for j, i in enumerate(live):
            s, gen = shapes[i], rng.child(call_key, j, k)
            tiny = s < LOG_SPACE_SHAPE
            g = draws[i] = gen.standard_gamma(s + 1.0 if tiny else s, size=size)
            if tiny:
                _boost_log_in_place(g, gen.random(size), s)
                if not log_path:
                    np.exp(g, out=g)
            elif log_path:
                _log_in_place(g)
        x, y = (_ratio([draws[i] for i in num], [draws[i] for i in rest], log_path) for num, rest in axes)
        del draws, g  # only the two coordinates stay alive while consume runs
        return consume(lo, lo + size, x, y)

    with ThreadPoolExecutor(max(1, min(MAX_WORKERS, _usable_cores(), -(-n // BLOCK)))) as pool:
        yield from pool.map(block, range(0, n, BLOCK))


def sample_pairs(rng: RngState, family: FamilySpec, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """n draws of (x, y) built exactly per the family's gamma-ratio definition (see pair_blocks)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x, y = np.empty(n), np.empty(n)

    def write(lo: int, hi: int, bx: np.ndarray, by: np.ndarray) -> None:
        x[lo:hi] = bx
        y[lo:hi] = by

    for _ in pair_blocks(rng, family, n, write):
        pass
    return x, y
