"""Randomly weighted averages of Dirichlet vectors.

A scenario is z = sum_j w_j * x_j where the x_j are independent Dirichlet
vectors and the weight vector w is an independent Dirichlet point.  For the
main construction (theorem_scenario) the weight concentrations are the row
sums of the alpha matrix and the law of z is Dirichlet of the column sums.
There is one sampler, sample_rwa_direct_batch: every Dirichlet vector in it,
weights included, is a row that sample_dirichlet_batch draws from its
substream's one generator, block by block, on the threads of sampler_pool,
which draw the next block while the calling thread sums and hands on this one.
The test battery draws its second replicate from the same sampler on another
stream, so comparing the two replicates checks the sampler against itself,
not against a second algorithm; it shares the sampler's pool with its energy
test, which takes the second replicate's rows as they are drawn.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .distributions import (
    DirichletParams,
    RngStream,
    dirichlet_mixed_moment,
    sample_dirichlet_batch,
)

__all__ = [
    "WeightedAverageScenario",
    "theorem_scenario",
    "variant_scenario",
    "sample_rwa_direct_batch",
    "sampler_pool",
    "resolve_variant_reading",
]


@dataclass(frozen=True)
class WeightedAverageScenario:
    """General weighted-average setup: arbitrary weight concentrations, one
    Dirichlet parameter row per summand, and the claimed law of z."""

    w_alpha: tuple
    x_alphas: tuple
    target_alpha: tuple

    def __init__(self, w_alpha, x_alphas, target_alpha):
        w = np.asarray(w_alpha, dtype=float)
        x = np.asarray(x_alphas, dtype=float)
        t = np.asarray(target_alpha, dtype=float)
        if x.ndim != 2 or len(w) != x.shape[0]:
            raise ValueError("x_alphas must be (n, k) with n matching w_alpha")
        if not all(np.all((a > 0) & (a < np.inf)) for a in (w, x, t)):
            raise ValueError("all concentration parameters must be finite and > 0")
        if len(t) != x.shape[1]:
            raise ValueError("target dimension must match k")
        object.__setattr__(self, "w_alpha", tuple(w))
        object.__setattr__(self, "x_alphas", tuple(tuple(r) for r in x))
        object.__setattr__(self, "target_alpha", tuple(t))

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
    if a.ndim != 2:
        raise ValueError("alphas must be a 2-d matrix")
    n, k = a.shape
    if n < 2 or k < 2:
        raise ValueError(f"need n >= 2 and k >= 2, got shape {a.shape}")
    if not np.all(a > 0):
        raise ValueError("all matrix entries must be > 0")
    with np.errstate(over="ignore"):  # WeightedAverageScenario rejects an infinite sum
        w_alpha, target_alpha = a.sum(axis=1), a.sum(axis=0)
    return WeightedAverageScenario(w_alpha, a, target_alpha)


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


def sampler_pool(sc: WeightedAverageScenario, n_samples: int):
    """The pool sample_rwa_direct_batch draws on, as a context manager: one of
    min(CPUs, 1 + n) threads, or no pool (None) on one CPU or for a batch of
    at most one block."""
    workers = min(_cpus(), 1 + sc.n) if n_samples > SAMPLE_BLOCK_ROWS else 1
    return ThreadPoolExecutor(workers) if workers > 1 else nullcontext()


def sample_rwa_direct_batch(sc: WeightedAverageScenario, n_samples: int,
                            rng: RngStream, pool=None, on_rows=None) -> np.ndarray:
    """(n_samples, k) array of z draws: w ~ Dirichlet(w_alpha) on substream 0,
    x_j ~ Dirichlet(row j) on substream 1 + j, z = sum_j w_j x_j.

    The substreams are drawn in blocks of SAMPLE_BLOCK_ROWS rows.  A block's
    1 + n draws run on the threads of sampler_pool, or on the calling thread
    without one.  With a pool the sampler works one block ahead: once all of
    block b's draws have returned, block b + 1's are submitted, and only then
    does the calling thread sum block b into z and hand it to on_rows.  Each
    substream's generator serves one task at a time, in block order, so its
    rows are those of one call over all n_samples.  The calling thread sums
    each block into z one summand at a time for j = 0..n-1, so memory is z
    plus two blocks per substream and the sums are bitwise those of einsum
    over an (n_samples, n, k) tensor of all the x_j, whatever the CPU count.

    ``pool``, if given, is an open sampler_pool of the caller, who may give
    it other tasks too; otherwise the function opens its own.  ``on_rows``,
    if given, is called on the calling thread as on_rows(z, stop) each time
    rows 0..stop-1 of z are final, while the pool draws the next block."""
    z = np.zeros((n_samples, sc.k))
    params = [DirichletParams(sc.w_alpha)] + [DirichletParams(row) for row in sc.x_alphas]
    gens = [rng.child(i).generator() for i in range(1 + sc.n)]
    with sampler_pool(sc, n_samples) if pool is None else nullcontext(pool) as pool:
        # pool.map submits a block's draws at once; map draws them only when
        # the block is unpacked, so without a pool nothing is drawn ahead
        draw = pool.map if pool else map

        def block(start):
            rows = min(SAMPLE_BLOCK_ROWS, n_samples - start)
            return draw(sample_dirichlet_batch, params, repeat(rows), gens)

        starts = range(0, n_samples, SAMPLE_BLOCK_ROWS)
        ahead = block(0) if starts else None
        for start in starts:
            w, *xs = ahead
            if start + SAMPLE_BLOCK_ROWS < n_samples:
                ahead = block(start + SAMPLE_BLOCK_ROWS)
            out = z[start:start + SAMPLE_BLOCK_ROWS]
            for j, x in enumerate(xs):
                x *= w[:, j, None]
                out += x
            if on_rows:
                on_rows(z, start + len(out))
    return z


def variant_scenario(alpha, reading: str = "symmetric") -> WeightedAverageScenario:
    """Two-dimensional variant: x_j ~ Dirichlet built from 1/2 + alpha_j,
    w ~ Dirichlet(alpha), claimed target built from 1/2 + sum(alpha).

    ``reading`` selects how the scalar 1/2 + alpha_j is expanded to a
    two-dimensional parameter vector: "symmetric" gives
    (1/2 + alpha_j, 1/2 + alpha_j); "asymmetric" gives (1/2 + alpha_j, 1/2).
    Only the symmetric reading survives the moment oracle (see
    resolve_variant_reading); the asymmetric one is kept for the comparison.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError("need at least two positive weight parameters")
    if not np.all(a > 0):
        raise ValueError("all alpha_j must be > 0")
    if reading == "symmetric":
        x = np.stack([0.5 + a, 0.5 + a], axis=1)
        target = (0.5 + a.sum(), 0.5 + a.sum())
    elif reading == "asymmetric":
        x = np.stack([0.5 + a, np.full_like(a, 0.5)], axis=1)
        target = (0.5 + a.sum(), 0.5)
    else:
        raise ValueError(f"unknown reading {reading!r}")
    return WeightedAverageScenario(a, x, target)


# A variant reading must match every mixed moment of the claimed target up
# to this total order, each within this relative error.
VARIANT_MAX_ORDER, VARIANT_RTOL = 3, 1e-9


def resolve_variant_reading(alpha):
    """Decide which expansion of the variant's scalar notation is consistent,
    by exact moment comparison against the claimed target.

    Returns the name of the verified reading, or None if neither matches all
    mixed moments of total order <= VARIANT_MAX_ORDER within VARIANT_RTOL.
    """
    from .moments import MomentIndex, compositions, rwa_moment_expansion

    indices = [MomentIndex(s) for total in range(1, VARIANT_MAX_ORDER + 1)
               for s in compositions(total, 2)]
    for reading in ("symmetric", "asymmetric"):
        sc = variant_scenario(alpha, reading)
        target = DirichletParams(sc.target_alpha)

        def matches(s):  # written so that a NaN on either side is a mismatch
            rhs = dirichlet_mixed_moment(target, s.s)
            lhs = rwa_moment_expansion(sc, s, VARIANT_MAX_ORDER)
            return abs(lhs - rhs) <= VARIANT_RTOL * abs(rhs)

        if all(map(matches, indices)):
            return reading
    return None
