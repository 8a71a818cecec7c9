"""Randomly weighted averages of Dirichlet vectors.

A scenario is z = sum_j w_j * x_j where the x_j are independent Dirichlet
vectors and the weight vector w is an independent Dirichlet point.  For the
main construction (theorem_scenario) the weight concentrations are the row
sums of the alpha matrix and the law of z is Dirichlet of the column sums.
There is one sampler, sample_rwa_direct_batch: every Dirichlet vector in it,
weights included, is a row that sample_dirichlet_batch draws from its
substream's one generator, block by block, on the threads of sampler_pool,
each substream going on to its next block as soon as its own last one is
drawn, while the calling thread sums and hands on the blocks in turn.  The
test battery draws its second replicate from the same sampler on another
stream, so comparing the two replicates checks the sampler against itself,
not against a second algorithm; it shares the sampler's pool with its energy
test, which takes the second replicate's rows as they are drawn, and with
its moment and KS tests.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import DirichletParams, RngStream, _concentrations, sample_dirichlet_batch

__all__ = [
    "WeightedAverageScenario",
    "theorem_scenario",
    "variant_scenario",
    "sample_rwa_direct_batch",
    "sampler_pool",
]


@dataclass(frozen=True)
class WeightedAverageScenario:
    """General weighted-average setup: arbitrary weight concentrations, one
    Dirichlet parameter row per summand, and the claimed law of z."""

    w_alpha: tuple
    x_alphas: tuple
    target_alpha: tuple

    def __init__(self, w_alpha, x_alphas, target_alpha):
        x = tuple(_concentrations(row, f"row {j} of x: ") for j, row in enumerate(x_alphas))
        w, t = _concentrations(w_alpha, "weights: "), _concentrations(target_alpha, "target: ")
        if len(x) != len(w) or any(len(r) != len(t) for r in x):
            raise ValueError("x_alphas must be (n, k), n = len(w_alpha), k = len(target_alpha)")
        object.__setattr__(self, "w_alpha", w)
        object.__setattr__(self, "x_alphas", x)
        object.__setattr__(self, "target_alpha", t)

    @property
    def n(self) -> int:
        return len(self.w_alpha)

    @property
    def k(self) -> int:
        return len(self.target_alpha)


def theorem_scenario(alphas) -> WeightedAverageScenario:
    """Main construction from an n x k matrix of concentrations (n, k >= 2):
    row j parameterizes x_j, the weight concentrations are the row sums and
    the claimed law of z is Dirichlet of the column sums."""
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 2 or min(a.shape) < 2:
        raise ValueError(f"alphas must be an n x k matrix, n, k >= 2, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # WeightedAverageScenario rejects these
        w_alpha, target_alpha = a.sum(axis=1), a.sum(axis=0)
    return WeightedAverageScenario(w_alpha.tolist(), a.tolist(), target_alpha.tolist())


# Rows per block of the sampler.  Larger blocks cost fewer calls into numpy
# but keep more memory in the worker threads' malloc arenas, and hand the
# battery's energy test its rows later.
SAMPLE_BLOCK_ROWS = 8_192


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def sampler_pool(sc: WeightedAverageScenario, n_samples: int) -> ThreadPoolExecutor:
    """The pool sample_rwa_direct_batch draws on: min(CPUs, 1 + n) threads,
    or one thread for a batch of at most one block, which has nothing to
    draw ahead."""
    return ThreadPoolExecutor(min(_cpus(), 1 + sc.n) if n_samples > SAMPLE_BLOCK_ROWS else 1)


def sample_rwa_direct_batch(sc: WeightedAverageScenario, n_samples: int,
                            rng: RngStream, pool=None, on_rows=None) -> np.ndarray:
    """(n_samples, k) array of z draws: w ~ Dirichlet(w_alpha) on substream 0,
    x_j ~ Dirichlet(row j) on substream 1 + j, z = sum_j w_j x_j.

    The substreams are drawn in blocks of SAMPLE_BLOCK_ROWS rows, a task per
    substream and block on the threads of sampler_pool.  A substream's task
    for block b + 1 first waits for its own block b, which the pool, taking
    tasks in the order they were queued, has always started, and then draws;
    no task waits for another substream.  So each generator serves one draw
    at a time, in block order, and its rows are those of one call over all
    n_samples.  Blocks 0 and 1 are queued at once, and block b + 2 when the
    calling thread takes block b, before it sums block b into z and hands it
    to on_rows; memory is z plus at most three blocks per substream.  The
    calling thread sums each block into z one summand at a time for
    j = 0..n-1, so the sums are bitwise those of einsum over an
    (n_samples, n, k) tensor of all the x_j, whatever the CPU count.

    ``pool``, if given, is an open sampler_pool of the caller, who may give
    it other tasks too; otherwise the function opens its own.  ``on_rows``,
    if given, is called on the calling thread as on_rows(z, stop) each time
    rows 0..stop-1 of z are final, while the pool draws the next blocks."""
    if pool is None:
        with sampler_pool(sc, n_samples) as pool:
            return sample_rwa_direct_batch(sc, n_samples, rng, pool, on_rows)
    z = np.zeros((n_samples, sc.k))
    params = [DirichletParams(sc.w_alpha)] + [DirichletParams(row) for row in sc.x_alphas]
    gens = [rng.child(i).generator() for i in range(1 + sc.n)]
    starts = range(0, n_samples, SAMPLE_BLOCK_ROWS)
    queued = []  # per block, its draws' futures, one per substream

    def draw(i, rows, prev):
        if prev is not None:
            prev.result()  # substream i's previous block, which the pool started first
        return sample_dirichlet_batch(params[i], rows, gens[i])

    def queue(b):
        if b < len(starts):
            rows = min(SAMPLE_BLOCK_ROWS, n_samples - starts[b])
            prevs = queued[-1] if b else [None] * len(gens)
            queued.append([pool.submit(draw, i, rows, prev) for i, prev in enumerate(prevs)])

    queue(0)
    queue(1)
    for b, start in enumerate(starts):
        w, *xs = [task.result() for task in queued.pop(0)]
        queue(b + 2)
        out = z[start:start + SAMPLE_BLOCK_ROWS]
        for j, x in enumerate(xs):
            x *= w[:, j, None]
            out += x
        if on_rows:
            on_rows(z, start + len(out))
    return z


def variant_scenario(alpha) -> WeightedAverageScenario:
    """Two-dimensional variant: x_j ~ Dirichlet(1/2 + alpha_j, 1/2 + alpha_j),
    w ~ Dirichlet(alpha), claimed target Dirichlet(1/2 + sum(alpha), 1/2 +
    sum(alpha)).  This symmetric expansion of the source's scalar notation
    1/2 + alpha_j is the one the moment oracle confirms
    (runner.resolve_variant_reading); the asymmetric (1/2 + alpha_j, 1/2),
    whose weights are not the row sums, misses the claimed moments."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError("need at least two positive weight parameters")
    with np.errstate(over="ignore"):  # WeightedAverageScenario rejects an infinite sum
        c = 0.5 + a.sum()
    return WeightedAverageScenario(a.tolist(), [(0.5 + v, 0.5 + v) for v in a.tolist()], (c, c))
