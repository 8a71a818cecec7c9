"""Exact moment machinery for the weighted-average construction.

The mixed moment E[prod_j z_j^{s_j}] of z = sum_i w_i x_i is a coefficient
of a product of generating functions.  With w ~ Dirichlet(a), x_i ~
Dirichlet(alpha_i), b_i = sum_j alpha_ij and A = sum_i a_i,

    E[prod_j z_j^{s_j}] = prod_j s_j! * Gamma(A)/Gamma(A+S) * [t^s] prod_i F_i(t),
    F_i(t) = sum_h (a_i)_{|h|}/(b_i)_{|h|} * prod_j (alpha_ij)_{h_j}/h_j! * t^h,

S = sum_j s_j, which is the multinomial expansion of the moment over
composition tables summed one factor at a time.  The result must agree with
the closed-form moment of the target Dirichlet; that equality is the
computable core this module exists to check.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import DirichletParams, dirichlet_mixed_moment
from .rwa import WeightedAverageScenario

__all__ = [
    "MomentIndex",
    "DirMultParams",
    "DEFAULT_ORDER_CAP",
    "compositions",
    "rwa_moment_expansion",
    "rwa_moment_closed_form",
    "dirmult_log_pmf_batch",
    "dirmult_normalization_check",
    "kerov_tsilevich_check",
]

# Total-order cap on moment indices.  It bounds the oracle's box
# prod_j [0, s_j] to at most 2^8 = 256 cells, so _box's table of cell pairs
# stays at most 256 x 256.
DEFAULT_ORDER_CAP = 8

# Trial cap for explicit enumeration of the Dirichlet-multinomial support.
DIRMULT_TRIALS_CAP = 64


class OrderCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class MomentIndex:
    """Vector of non-negative integer exponents for a mixed moment."""

    s: tuple

    def __init__(self, s):
        s = tuple(int(v) for v in s)
        if any(v < 0 for v in s):
            raise ValueError("exponents must be non-negative")
        if sum(s) > DEFAULT_ORDER_CAP:
            raise OrderCapExceeded(
                f"total order {sum(s)} exceeds the cap of {DEFAULT_ORDER_CAP}"
            )
        object.__setattr__(self, "s", s)

    @property
    def total(self) -> int:
        return sum(self.s)

    @property
    def k(self) -> int:
        return len(self.s)


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`,
    lexicographic order.

    Stars and bars: the parts are the gaps between parts - 1 bars placed
    among total + parts - 1 slots, and combinations() yields the bar
    positions in lexicographic order, which is that of the tuples.
    """
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))])


def _log_multinomial(total: int, parts) -> float:
    return math.lgamma(total + 1) - sum(math.lgamma(h + 1) for h in parts)


@functools.lru_cache(maxsize=256)
def _box(s: tuple):
    """Index data of the box prod_j [0, s_j], flattened in C order.

    Returns (cells, degree, left, right): cells[j] is coordinate j of every
    flat cell, degree its total |h|, and (left, right) run over the pairs of
    cells whose sum stays in the box.  Flat indices add without carry inside
    the box, so a pair's sum is cell left + right.
    """
    cells = np.indices(tuple(sj + 1 for sj in s)).reshape(len(s), -1)
    fits = np.ones((cells.shape[1],) * 2, dtype=bool)
    for sj, cj in zip(s, cells):
        fits &= cj[:, None] + cj[None, :] <= sj
    left, right = np.nonzero(fits)
    out = (cells, cells.sum(axis=0), left, right)
    for arr in out:
        arr.flags.writeable = False
    return out


def _rising_ratios(top: np.ndarray, bottom, m: int) -> np.ndarray:
    """(top)_h / (bottom)_h for h = 0..m along a new last axis."""
    r = np.arange(m)
    out = np.ones(top.shape + (m + 1,))
    out[..., 1:] = (top[..., None] + r) / (np.asarray(bottom)[..., None] + r)
    return np.cumprod(out, axis=-1, out=out)


def rwa_moment_expansion(sc: WeightedAverageScenario, s: MomentIndex) -> float:
    """E[prod_j z_j^{s_j}] as the coefficient [t^s] of prod_i F_i(t) (see the
    module docstring), with each F_i truncated to the box prod_j [0, s_j].

    Every term is positive, so nothing cancels.  Only the weight
    concentrations and the rows of x enter; the column sums never do, which
    keeps this oracle independent of rwa_moment_closed_form and valid for
    scenarios whose weight concentrations are not the row sums.
    """
    if s.k != sc.k:
        raise ValueError(f"moment index length {s.k} != scenario dimension {sc.k}")
    a = np.asarray(sc.w_alpha)
    x = np.asarray(sc.x_alphas)
    cells, degree, left, right = _box(s.s)
    total = s.total
    # F[i] over the box: (a_i)_{|h|}/(b_i)_{|h|} * prod_j (alpha_ij)_{h_j}/h_j!
    per_row = _rising_ratios(a, x.sum(axis=1), total)
    per_cell = _rising_ratios(x, 1.0, max(s.s))
    coords = np.arange(sc.k)[:, None]
    F = per_row[:, degree] * np.prod(per_cell[:, coords, cells], axis=1)
    poly = F[0]
    for f in F[1:-1]:
        poly = np.bincount(left + right, weights=poly[left] * f[right], minlength=poly.size)
    # The last factor only contributes its coefficient at s - h, which sits
    # at the mirrored flat index.
    coeff = float(poly @ F[-1][::-1]) if sc.n > 1 else float(poly[-1])
    # prod_j s_j! / (A)_S, one factor pair at a time
    numer = [q for sj in s.s for q in range(1, sj + 1)]
    a_total = float(a.sum())
    return coeff * math.prod(q / (a_total + r) for r, q in enumerate(numer))


def rwa_moment_closed_form(sc: WeightedAverageScenario, s: MomentIndex) -> float:
    """Mixed moment of z from the closed form: the Dirichlet of the column
    sums of x_alphas, evaluated directly in log space (independent arithmetic
    from both the expansion and dirichlet_mixed_moment's code path)."""
    a = np.asarray(sc.x_alphas)
    if s.k != sc.k:
        raise ValueError("moment index length does not match scenario dimension")
    col = a.sum(axis=0)
    total = a.sum()
    sv = np.asarray(s.s, dtype=float)
    log_m = gammaln(total) - gammaln(total + sv.sum())
    log_m += np.sum(gammaln(col + sv) - gammaln(col))
    return float(np.exp(log_m))


@dataclass(frozen=True)
class DirMultParams:
    """Dirichlet-multinomial: multinomial counts with Dirichlet cell
    probabilities."""

    alpha: DirichletParams
    trials: int

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")


def dirmult_log_pmf_batch(p: DirMultParams, counts: np.ndarray) -> np.ndarray:
    """Vectorized log pmf over an (m, k) array of count vectors."""
    alpha = p.alpha.as_array()
    c = np.asarray(counts, dtype=float)
    a = alpha.sum()
    n = p.trials
    return (
        math.lgamma(n + 1)
        - gammaln(c + 1).sum(axis=1)
        + gammaln(a)
        - gammaln(a + n)
        + (gammaln(c + alpha) - gammaln(alpha)).sum(axis=1)
    )


@functools.lru_cache(maxsize=64)
def _dirmult_support(trials: int, cells: int) -> np.ndarray:
    """All count vectors of the support, one per row, read-only.  It depends
    only on the trial and cell counts, so a grid of alphas shares it."""
    support = np.asarray(list(compositions(trials, cells)), dtype=float)
    support.flags.writeable = False
    return support


def dirmult_normalization_check(p: DirMultParams) -> float:
    """Sum of the pmf over the whole support; contract: 1 within 1e-10."""
    if p.trials > DIRMULT_TRIALS_CAP:
        raise OrderCapExceeded(
            f"trials={p.trials} exceeds the enumeration cap of {DIRMULT_TRIALS_CAP}"
        )
    support = _dirmult_support(p.trials, p.alpha.k)
    return float(math.fsum(np.exp(dirmult_log_pmf_batch(p, support))))


def kerov_tsilevich_check(alpha, t, order: int = 12):
    """Moment-series check of E[(1 - t'x)^{-A}] = prod_i (1 - t_i)^{-alpha_i}
    for x ~ Dirichlet(alpha), A = sum(alpha).

    The left side is expanded as sum_m (A)_m/m! E[(t'x)^m] with the inner
    moments exact via dirichlet_mixed_moment, truncated at `order`.  Returns
    (series, product, tail_bound); |series - product| <= tail_bound + eps is
    the success criterion.  The tail bound is exact for the dominating series
    with |t'x| <= max|t_i|: it is the full geometric-type sum minus its own
    truncation, computed in closed form.
    """
    p = DirichletParams(alpha)
    t = np.asarray(t, dtype=float)
    if t.shape != (p.k,):
        raise ValueError("t must have one entry per coordinate")
    if np.max(np.abs(t)) >= 1:
        raise ValueError("need |t_i| < 1 for convergence")
    a_total = p.total
    series_terms = [1.0]
    log_poch = 0.0  # log (A)_m / m!
    for m in range(1, order + 1):
        log_poch += math.log(a_total + m - 1) - math.log(m)
        # E[(t'x)^m] = sum over compositions of m of multinomial * prod t^h * E[prod x^h]
        inner = []
        for h in compositions(m, p.k):
            coef = math.exp(_log_multinomial(m, h))
            inner.append(coef * np.prod(t ** np.asarray(h)) * dirichlet_mixed_moment(p, h))
        series_terms.append(math.exp(log_poch) * math.fsum(inner))
    series = math.fsum(series_terms)
    # If this overflows, so does the larger (1 - tau)**-A below, which raises.
    with np.errstate(over="ignore"):
        product = float(np.prod((1 - t) ** (-p.as_array())))
    # dominating tail: sum_{m>order} (A)_m/m! tau^m with tau = max|t_i|
    tau = float(np.max(np.abs(t)))
    if tau == 0.0:
        tail = 0.0
    else:
        dom_total = (1 - tau) ** (-a_total)
        dom_partial = [1.0]
        lp = 0.0
        for m in range(1, order + 1):
            lp += math.log(a_total + m - 1) - math.log(m)
            dom_partial.append(math.exp(lp) * tau**m)
        tail = dom_total - math.fsum(dom_partial)
    return series, product, abs(tail)
