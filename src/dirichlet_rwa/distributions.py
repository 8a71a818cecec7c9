"""Dirichlet building blocks: a batch sampler, exact mixed moments and
seeded random streams.

Everything downstream (weighted-average sampling, moment identities, the
statistical test battery) is built on top of this module.  The sampler is
numpy's Generator.dirichlet on the stream's generator: normalized gammas, or
Beta stick-breaking when every concentration is below 0.1, so that tiny ones
do not underflow.  Exact moments go through log-gamma so that large total
orders do not overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "DirichletParams",
    "RngStream",
    "SIMPLEX_SUM_TOL",
    "sample_dirichlet_batch",
    "dirichlet_mixed_moment",
]

# Tolerance on |sum(coords) - 1| of a sampled row; 1e-12 covers 64-bit
# accumulation error for dimensions up to ~64.
SIMPLEX_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution, length >= 2."""

    alpha: tuple

    def __init__(self, alpha):
        alpha = tuple(float(a) for a in np.atleast_1d(np.asarray(alpha, dtype=float)))
        if len(alpha) < 2:
            raise ValueError("Dirichlet needs at least 2 components (k=1 is degenerate)")
        if any(not (a > 0) for a in alpha):
            raise ValueError(f"all concentration parameters must be > 0, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def k(self) -> int:
        return len(self.alpha)

    @property
    def total(self) -> float:
        return float(sum(self.alpha))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Distinct stream_ids under the same seed give statistically independent
    sequences (numpy SeedSequence spawning guarantees).  A stream is a value;
    ``generator()`` builds a fresh Generator at the same deterministic state,
    ``child(i)`` derives an independent substream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {v}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def child(self, i: int) -> "RngStream":
        # stream_id arithmetic stays inside 64 bits; a multiplier keeps
        # sibling ids of different parents from colliding in practice.
        return RngStream(self.seed, (self.stream_id * 1_000_003 + 1 + i) % 2**64)


def sample_dirichlet_batch(p: DirichletParams, n: int, rng: RngStream) -> np.ndarray:
    """(n, k) array of Dirichlet draws; rows sum to 1 within SIMPLEX_SUM_TOL."""
    return rng.generator().dirichlet(p.as_array(), size=n)


def dirichlet_mixed_moment(p: DirichletParams, s) -> float:
    """Exact E[prod_j X_j^{s_j}] for X ~ Dirichlet(alpha).

    Equals Gamma(A)/Gamma(A+S) * prod_j Gamma(alpha_j+s_j)/Gamma(alpha_j)
    with A = sum(alpha), S = sum(s); evaluated in log space.
    """
    alpha = p.as_array()
    s = np.asarray(s, dtype=float)
    if s.shape != alpha.shape:
        raise ValueError(f"exponent vector length {s.shape} != alpha length {alpha.shape}")
    if np.any(s < 0) or np.any(s != np.floor(s)):
        raise ValueError("exponents must be non-negative integers")
    a = alpha.sum()
    log_m = gammaln(a) - gammaln(a + s.sum()) + np.sum(gammaln(alpha + s) - gammaln(alpha))
    return float(np.exp(log_m))
