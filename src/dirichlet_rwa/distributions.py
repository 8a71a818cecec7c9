"""Dirichlet building blocks: a batch sampler, exact mixed moments and
seeded random streams.

Everything downstream (weighted-average sampling, moment identities, the
statistical test battery) is built on top of this module.  The sampler is
numpy's Generator.dirichlet on a generator that the caller builds from an
RngStream and may draw from over several calls: normalized gammas, or Beta
stick-breaking when every concentration is below 0.1, so that tiny ones do
not underflow.  Every exact Dirichlet moment of the package is one product
of plain float ratios, _moment.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirichletParams",
    "RngStream",
    "sample_dirichlet_batch",
    "dirichlet_mixed_moment",
]


def _concentrations(values, where: str = "") -> tuple:
    """values as a non-empty tuple of floats, each finite and > 0, with a finite
    sum; where, if given, names the vector at the start of a refusal."""
    try:
        alpha = tuple(map(float, values))
    except TypeError as e:
        raise ValueError(f"{where}concentrations must be a vector of numbers, "
                         f"got {values!r}") from e
    if not (alpha and all(0 < a < math.inf for a in alpha) and sum(alpha) < math.inf):
        raise ValueError(f"{where}concentrations must be finite and > 0 with a finite sum, "
                         f"got {alpha}")
    return alpha


def _exponents(values) -> tuple:
    """values as a tuple of ints: each entry a number equal to a non-negative
    integer, as 2 and 2.0 are; a bool, a string or a fraction raises."""
    s = tuple(values)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 0
               and (isinstance(v, numbers.Integral) or float(v).is_integer()) for v in s):
        raise ValueError(f"exponents must be non-negative integers, got {values!r}")
    return tuple(map(int, s))


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution, length >= 2."""

    alpha: tuple

    def __init__(self, alpha):
        alpha = _concentrations(alpha)
        if len(alpha) < 2:
            raise ValueError("Dirichlet needs at least 2 components (k=1 is degenerate)")
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


def sample_dirichlet_batch(p: DirichletParams, n: int, gen: np.random.Generator) -> np.ndarray:
    """(n, k) array of Dirichlet draws, one per row, from gen.  numpy draws
    the rows one after another, so rows drawn from one generator over
    several calls are the rows of one call of the summed size."""
    return gen.dirichlet(p.as_array(), size=n)


def _moment(alpha: tuple, s: tuple) -> float:
    """E[prod_j X_j^{s_j}] = prod_j (alpha_j)_{s_j} / (A)_S for X ~
    Dirichlet(alpha), A = sum(alpha), S = sum(s), for a tuple s of ints,
    unchecked: the product of the S ratios (alpha_j + q) / (A + r), q < s_j,
    where r = 0..S-1 runs through q = 0..s_1-1, then q = 0..s_2-1, and so on.
    q <= r, so each ratio is at most 1 and nothing overflows; they are
    multiplied in ascending r from 1.0.  No log is taken: a log-gamma
    difference would cancel, keeping about two digits at entries of 1e12."""
    a_total, out, r = sum(alpha), 1.0, 0
    for a, sj in zip(alpha, s):
        for q in range(sj):
            out *= (a + q) / (a_total + r)
            r += 1
    return out


def dirichlet_mixed_moment(p: DirichletParams, s) -> float:
    """Exact E[prod_j X_j^{s_j}] = prod_j (alpha_j)_{s_j} / (A)_S for X ~
    Dirichlet(alpha), A = sum(alpha), S = sum(s), by _moment."""
    s = _exponents(s)
    if len(s) != p.k:
        raise ValueError(f"exponent vector length {len(s)} != alpha length {p.k}")
    return _moment(p.alpha, s)
