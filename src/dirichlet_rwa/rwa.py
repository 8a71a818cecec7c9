"""Randomly weighted averages of Dirichlet vectors.

A scenario is z = sum_j w_j * x_j where the x_j are independent Dirichlet
vectors and the weight vector w is an independent Dirichlet point.  For the
main construction (theorem_scenario) the weight concentrations are the row
sums of the alpha matrix and the law of z is Dirichlet of the column sums.
There is one sampler, sample_rwa_direct_batch: every Dirichlet vector in it,
weights included, is a row of one sample_dirichlet_batch call.  The test
battery draws its second replicate from the same sampler on another stream,
so comparing the two replicates checks the sampler against itself, not
against a second algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    return WeightedAverageScenario(a.sum(axis=1), a, a.sum(axis=0))


def sample_rwa_direct_batch(sc: WeightedAverageScenario, n_samples: int,
                            rng: RngStream) -> np.ndarray:
    """(n_samples, k) array of z draws: w ~ Dirichlet(w_alpha) on substream 0,
    x_j ~ Dirichlet(row j) on substream 1 + j, z = sum_j w_j x_j.

    z is accumulated in place, one summand at a time for j = 0..n-1, so
    memory is O(n_samples * (n + k)): no (n_samples, n, k) tensor of all the
    x_j is held, and the sums are bitwise those of einsum over one."""
    w = sample_dirichlet_batch(DirichletParams(sc.w_alpha), n_samples, rng.child(0))
    z = np.zeros((n_samples, sc.k))
    for j, row in enumerate(sc.x_alphas):
        x = sample_dirichlet_batch(DirichletParams(row), n_samples, rng.child(1 + j))
        x *= w[:, j, None]
        z += x
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


def resolve_variant_reading(alpha, max_order: int = 3, rtol: float = 1e-9):
    """Decide which expansion of the variant's scalar notation is consistent,
    by exact moment comparison against the claimed target.

    Returns the name of the verified reading, or None if neither matches all
    mixed moments of total order <= max_order within rtol.
    """
    from .moments import MomentIndex, rwa_moment_expansion

    for reading in ("symmetric", "asymmetric"):
        sc = variant_scenario(alpha, reading)
        target = DirichletParams(sc.target_alpha)
        ok = True
        for s1 in range(max_order + 1):
            for s2 in range(max_order + 1 - s1):
                if s1 == s2 == 0:
                    continue
                s = MomentIndex((s1, s2))
                lhs = rwa_moment_expansion(sc, s)
                rhs = dirichlet_mixed_moment(target, s.s)
                if abs(lhs - rhs) > rtol * abs(rhs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return reading
    return None
