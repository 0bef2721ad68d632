"""Seeded random generation of gamma variates and bivariate-family samples.

Streams are backed by the counter-based Philox generator keyed through
``numpy.random.SeedSequence(seed, spawn_key=(stream, ...))``, so a given
(seed, stream) pair reproduces the same variate sequence on every platform
and parallel sub-streams can be derived without coordination.

Pairs are made in two steps.  The gamma components are drawn sequentially
on the one generator, in component order.  Their assembly into ratios then
runs in index blocks of BLOCK pairs on up to MAX_WORKERS threads (numpy
releases the GIL inside ufuncs), as do the log transforms of the log-space
path, each handed to a thread while the next component is drawn.  Every
block applies the same elementwise operations to its slice, so the bytes
do not depend on the number of cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from math import sqrt
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from . import families
from .families import FamilySpec

# below this shape, gamma draws are built through the boost identity
# Gamma(a) = Gamma(a+1) * U^(1/a) taken in log space, so shapes like 1e-4
# keep their full magnitude information instead of underflowing to zero
LOG_SPACE_SHAPE = 0.02

# pairs per assembly block, and the most threads that assemble blocks
BLOCK = 1 << 18
MAX_WORKERS = 4

T = TypeVar("T")
Ratio = Callable[[Sequence[np.ndarray], Sequence[np.ndarray]], np.ndarray]


@dataclass
class RngState:
    """A reproducible random stream identified by (seed, stream).

    Two states constructed with the same identifiers yield bit-identical
    variate sequences.  Drawing advances the state; distinct states may be
    used concurrently, a single state may not.
    """

    seed: int
    stream: int = 0
    _generator: Optional[np.random.Generator] = field(
        default=None, repr=False, compare=False
    )

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


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo marginal moments and Pearson correlation of one family."""

    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    correlation: float
    std_error_corr: float
    n_samples: int


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call(fn: Callable[..., None], *args) -> None:
    fn(*args)


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


def _log_gamma_draws(
    gen: np.random.Generator, shape: float, n: int, run: Callable[..., None] = _call
) -> np.ndarray:
    """ln Gamma(shape) draws through the boost; run(fn, *args) applies the in-place transform."""
    w = gen.standard_gamma(shape + 1.0, size=n)
    u = gen.random(n)
    run(_boost_log_in_place, w, u, shape)
    return w


def _linear_ratio(num: Sequence[np.ndarray], rest: Sequence[np.ndarray]) -> np.ndarray:
    top = reduce(np.add, num)
    return top / reduce(np.add, rest, top)


def _log_ratio(num: Sequence[np.ndarray], rest: Sequence[np.ndarray]) -> np.ndarray:
    top = reduce(np.logaddexp, num)
    return np.exp(top - reduce(np.logaddexp, rest, top))


def _components(
    gen: np.random.Generator, shapes: Sequence[float], n: int, run: Callable[..., None]
) -> Tuple[List[np.ndarray], Ratio]:
    """Every component's draws in component order, and the ratio that assembles them.

    A zero shape draws nothing: a lazy zeros array, or on the log path one
    -inf array shared by every zero slot.  Log transforms go to run.
    """
    if not any(0.0 < s < LOG_SPACE_SHAPE for s in shapes):
        return [np.zeros(n) if s == 0.0 else gen.standard_gamma(s, size=n) for s in shapes], _linear_ratio
    neg_inf = np.full(n, -np.inf) if 0.0 in shapes else None
    draws = []
    for s in shapes:
        if s == 0.0:
            draws.append(neg_inf)
        elif s < LOG_SPACE_SHAPE:
            draws.append(_log_gamma_draws(gen, s, n, run))
        else:
            g = gen.standard_gamma(s, size=n)
            run(_log_in_place, g)
            draws.append(g)
    return draws, _log_ratio


def pair_blocks(
    rng: RngState,
    family: FamilySpec,
    n: int,
    consume: Callable[[int, int, np.ndarray, np.ndarray], T],
) -> Iterator[T]:
    """consume(lo, hi, x, y) of pairs lo..hi-1 for each block of n draws, in block order.

    When a component shape falls below LOG_SPACE_SHAPE the whole ratio is
    assembled in log space, so even marginals like B(1e-4, 1e-4), whose
    gamma components all underflow as linear doubles, keep their correct
    law instead of producing 0/0.  consume runs on a worker thread.
    """
    from concurrent.futures import ThreadPoolExecutor

    blocks = [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]
    workers = max(1, min(MAX_WORKERS, _usable_cores(), len(blocks)))
    axes = families.ratio_axes(family.variant)

    def block(bounds: Tuple[int, int]) -> T:
        lo, hi = bounds
        coords = []
        for num, rest, flipped in axes:
            c = ratio([draws[i][lo:hi] for i in num], [draws[i][lo:hi] for i in rest])
            coords.append(1.0 - c if flipped else c)
        return consume(lo, hi, coords[0], coords[1])

    with ThreadPoolExecutor(workers) as pool:
        pending = []
        draws, ratio = _components(
            rng.generator, family.alphas, n, lambda fn, *args: pending.append(pool.submit(fn, *args))
        )
        for future in pending:
            future.result()
        yield from pool.map(block, blocks)


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


def estimate_moments(
    family: FamilySpec, n_samples: int = 1_000_000, rng: Optional[RngState] = None
) -> MomentEstimate:
    """Monte Carlo means, variances and Pearson correlation of a family.

    The correlation standard error is the influence-function (delta method)
    one, sd(zx zy - r (zx^2 + zy^2) / 2) / sqrt(n) over the standardized
    draws, which holds for any law; the normal-theory (1 - r^2) / sqrt(n)
    gives only 0.57x the seed-to-seed spread for OL+(1,1,0.1).  At the
    default 10^6 samples it sits near 1e-3.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if rng is None:
        raise ValueError("estimate_moments requires an RngState")
    x, y = sample_pairs(rng, family, n_samples)
    mean_x = float(x.mean())
    mean_y = float(y.mean())
    var_x = float(x.var(ddof=1))
    var_y = float(y.var(ddof=1))
    dx, dy = x - mean_x, y - mean_y
    cov = float((dx * dy).sum() / (n_samples - 1))
    corr = cov / sqrt(var_x * var_y)
    dx /= sqrt(var_x)
    dy /= sqrt(var_y)
    se = float(np.std(dx * dy - 0.5 * corr * (dx * dx + dy * dy))) / sqrt(n_samples)
    return MomentEstimate(mean_x, mean_y, var_x, var_y, corr, se, n_samples)
