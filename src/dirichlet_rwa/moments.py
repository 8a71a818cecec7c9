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

One table per scenario and depth S holds the finished moment of every cell
of the simplex |h| <= S: prod_i F_i(t) on the simplex, each coefficient
times its prod_j s_j! / (A)_S.  The caller states the depth it will read,
so a run builds one table per matrix, and every index of total order <= S
reads its moment from it, bit for bit what a table of its own order would
give.  Each factor is multiplied in by one bincount over the C(S + 2k, 2k)
pairs of cells whose sum stays in the simplex; _check_pairs caps that number
at _MAX_PAIRS, and the validator refuses a config above it.

The closed forms, the moment of the claimed Dirichlet law and the
Dirichlet-multinomial pmf, read the one cached table of log rising
factorials behind distributions.dirichlet_mixed_moment, and share no code
with the expansion.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DEFAULT_ORDER_CAP, DirichletParams, _log_moment, _log_rising_table
from .rwa import WeightedAverageScenario

__all__ = [
    "MomentIndex",
    "DirMultParams",
    "DEFAULT_ORDER_CAP",
    "compositions",
    "rwa_moment_expansion",
    "rwa_moment_closed_form",
    "dirmult_normalization_check",
    "kerov_tsilevich_check",
]

# Trial cap for explicit enumeration of the Dirichlet-multinomial support.
DIRMULT_TRIALS_CAP = 64


@dataclass(frozen=True)
class MomentIndex:
    """Vector of non-negative integer exponents for a mixed moment."""

    s: tuple

    def __init__(self, s):
        s = tuple(int(v) for v in s)
        if any(v < 0 for v in s):
            raise ValueError("exponents must be non-negative")
        if sum(s) > DEFAULT_ORDER_CAP:
            raise ValueError(
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


# Cost cap of a moment table: the simplex of k = 10 at order 8 has 3,108,105
# pairs and peaks near 250 MB; k = 12 at order 8 (10.5M pairs) reached 726 MB.
_MAX_PAIRS = 2 ** 22


def _check_pairs(k: int, top: int) -> None:
    """Raise ValueError if the simplex of cells |h| <= top in k coordinates
    has more than _MAX_PAIRS pairs of cells."""
    pairs = math.comb(top + 2 * k, 2 * k)
    if pairs > _MAX_PAIRS:
        raise ValueError(f"a moment table of k = {k} at order {top} has {pairs:,} cell "
                         f"pairs, more than the cap of {_MAX_PAIRS:,}")


class _Cells(NamedTuple):
    """The simplex of cells |h| <= top and the pairs of cells whose sum
    stays in it.

    cells[j] is coordinate j of every cell and degree its total |h|.  The
    pairs (left, right) are grouped by left in ascending order, and target
    is the index of the cell left + right.
    """

    cells: np.ndarray
    degree: np.ndarray
    left: np.ndarray
    right: np.ndarray
    target: np.ndarray


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _simplex(k: int, top: int):
    """The simplex of cells |h| <= top in lexicographic order and a dict from
    each cell to its index.

    There are C(top + 2k, 2k) pairs, the length-2k vectors of total <= top.
    The pairs are built in O(pairs) memory: each left cell h takes as right
    cells a prefix of the cells sorted by degree, those of degree
    <= top - |h|.  The index of a pair's sum is its lexicographic rank,
    summed one coordinate at a time from a table of cell counts.
    """
    _check_pairs(k, top)
    # Lexicographic compositions of top into k + 1 parts, less the slack part.
    cells = np.asarray(list(compositions(top, k + 1)), dtype=np.intp)[:, :k].T
    degree = cells.sum(axis=0)
    by_degree = np.argsort(degree, kind="stable")
    upto = np.searchsorted(degree[by_degree], np.arange(top + 1), side="right")
    count = upto[top - degree]
    left = np.repeat(np.arange(degree.size), count)
    start = np.repeat(np.cumsum(count) - count, count)
    right = by_degree[np.arange(left.size) - start]
    # below[m, r, v]: cells of length m + 1 and total <= r whose first
    # coordinate is below v, i.e. sum over u < v of C(r - u + m, m).
    below = np.zeros((k, top + 1, top + 1), dtype=np.intp)
    for m in range(k):
        for r in range(top + 1):
            below[m, r, 1:r + 1] = np.cumsum([math.comb(r - u + m, m) for u in range(r)])
    target = np.zeros_like(left)
    budget = np.full_like(left, top)
    for j in range(k):
        h = cells[j, left] + cells[j, right]
        target += below[k - 1 - j, budget, h]
        budget -= h
    index = {cell: i for i, cell in enumerate(map(tuple, cells.T.tolist()))}
    return _Cells(*_read_only(cells, degree, left, right, target)), index


def _rising_ratios(top: np.ndarray, bottom, m: int, e: int = 0) -> np.ndarray:
    """(top)_h / (bottom)_h * 2^(-e h) for h = 0..m along a new last axis."""
    r = np.arange(m)
    out = np.ones(top.shape + (m + 1,))
    out[..., 1:] = np.ldexp((top[..., None] + r) / (np.asarray(bottom)[..., None] + r), -e)
    return np.cumprod(out, axis=-1, out=out)


@functools.lru_cache(maxsize=64)
def _scale_exponent(x_alphas: tuple) -> int:
    """e with 2^(e-1) <= the largest entry < 2^e if that is above 1, else 0.
    (alpha_ij)_h/h! would pass the largest double at entries of 1e39 and
    order 8; the product tables are those of prod_i F_i(t / 2^e), in which it
    is below 1.  A coefficient of total S is so 2^(-eS) times the unscaled
    one, exactly: a power of two rounds nothing short of the subnormals."""
    return max(math.frexp(max(map(max, x_alphas)))[1], 0)


def _product(w_alpha: tuple, x_alphas: tuple, cs: _Cells, top: int) -> np.ndarray:
    """Coefficients of prod_i F_i(t / 2^e) on the simplex cs of cells
    |h| <= top; e is _scale_exponent(x_alphas).

    Each factor is multiplied in by one bincount, which adds the products
    poly[h] * f[c - h] into cell c in ascending order of h.  Every
    coefficient is so the same sum in the same order whatever the depth, so
    simplices of every depth give the same bits for a shared cell.
    """
    a = np.asarray(w_alpha)
    x = np.asarray(x_alphas)
    # F_i over the cells: (a_i)_{|h|}/(b_i)_{|h|} * prod_j (alpha_ij)_{h_j}/h_j! 2^(-e h_j)
    per_row = _rising_ratios(a, x.sum(axis=1), top)
    per_cell = _rising_ratios(x, 1.0, top, _scale_exponent(x_alphas))
    coords = np.arange(x.shape[1])[:, None]
    poly = None
    for row, cell_row in zip(per_row, per_cell):
        f = row[cs.degree] * np.prod(cell_row[coords, cs.cells], axis=0)
        if poly is None:
            poly = f
        else:
            poly = np.bincount(cs.target, weights=poly[cs.left] * f[cs.right],
                               minlength=f.size)
    return poly


def _finished(w_alpha: tuple, x_alphas: tuple, coeff: np.ndarray,
              cells: np.ndarray) -> np.ndarray:
    """The moments of the cells s (the columns of cells) from their
    coefficients of prod_i F_i(t / 2^e): coeff * prod_j s_j! / (A)_S * 2^(eS).

    The factors q / ((A + r) / 2^e), r = 0..S-1 with q running through
    1..s_1, 1..s_2, ..., restore one 2^e each (2^-e is a double for every e,
    2^1024 is not).  They are multiplied in ascending r from 1.0, as
    math.prod over them would, so a cell gets the same bits in a table of
    any depth."""
    a_total = float(np.asarray(w_alpha).sum())
    scale = 2.0 ** -_scale_exponent(x_alphas)
    ends = np.cumsum(cells, axis=0)  # ends[j] = s_1 + ... + s_{j+1}
    out = np.ones(coeff.shape)
    for r in range(int(ends[-1].max(initial=0))):
        q = r + 1 - np.where(ends <= r, ends, 0).max(axis=0)
        live = ends[-1] > r
        out[live] *= q[live] / ((a_total + r) * scale)
    return coeff * out


@functools.lru_cache(maxsize=16)
def _moment_table(w_alpha: tuple, x_alphas: tuple, top: int):
    """A dict from each cell of the simplex |h| <= top to its index, and the
    finished moments of the cells, read-only."""
    cs, index = _simplex(len(x_alphas[0]), top)
    moment = _finished(w_alpha, x_alphas, _product(w_alpha, x_alphas, cs, top), cs.cells)
    return index, _read_only(moment)[0]


def rwa_moment_expansion(sc: WeightedAverageScenario, s: MomentIndex, top: int = 0) -> float:
    """E[prod_j z_j^{s_j}] as the coefficient [t^s] of prod_i F_i(t) (see the
    module docstring).

    The moment is read from the scenario's cached table of depth
    max(top, s.total), so a caller that passes the highest order it will ask
    builds one table per scenario.  Every term is positive, so nothing
    cancels.  Only the weight concentrations and the rows of x enter; the
    column sums never do, which keeps this oracle independent of
    rwa_moment_closed_form and valid for scenarios whose weight
    concentrations are not the row sums.
    """
    if s.k != sc.k:
        raise ValueError(f"moment index length {s.k} != scenario dimension {sc.k}")
    index, moment = _moment_table(sc.w_alpha, sc.x_alphas, max(top, s.total))
    return float(moment[index[s.s]])


def rwa_moment_closed_form(sc: WeightedAverageScenario, s: MomentIndex) -> float:
    """Mixed moment of z from the closed form of its claimed law
    Dirichlet(c), c = sc.target_alpha, which theorem_scenario sets to the
    column sums of x_alphas: prod_j (c_j)_{s_j} / (C)_S with C = sum_j c_j.
    It is dirichlet_mixed_moment without the argument checks, which
    MomentIndex has made, read from the same cached table."""
    if s.k != sc.k:
        raise ValueError("moment index length does not match scenario dimension")
    return math.exp(_log_moment(sc.target_alpha, s.s))


@dataclass(frozen=True)
class DirMultParams:
    """Dirichlet-multinomial: multinomial counts with Dirichlet cell
    probabilities."""

    alpha: DirichletParams
    trials: int

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be >= 0")


def _log_multinomial(n: int, c: np.ndarray) -> np.ndarray:
    """log n!/prod_j c_j! per row of c (log h! = log (1)_h, the table of
    alpha = (1,))."""
    log_fact = _log_rising_table((1.0,), max(n, DEFAULT_ORDER_CAP))[0]
    return log_fact[n] - log_fact[c].sum(axis=1)


def _log_pmf(p: DirMultParams, c: np.ndarray, log_multinomial: np.ndarray) -> np.ndarray:
    """The log pmf of p at the rows of c from their log multinomial
    coefficients: the log Dirichlet moment, read from the table of alpha,
    added on."""
    alpha = p.alpha.alpha
    n = p.trials
    logs = _log_rising_table(alpha, max(n, DEFAULT_ORDER_CAP))
    return log_multinomial + logs[np.arange(len(alpha)), c].sum(axis=1) - logs[-1, n]


@functools.lru_cache(maxsize=64)
def _dirmult_support(trials: int, cells: int):
    """All count vectors of the support, one per row, and their log
    multinomial coefficients, read-only.  They depend only on the trial and
    cell counts, so a grid of alphas shares them."""
    support = np.asarray(list(compositions(trials, cells)), dtype=np.intp)
    return _read_only(support, _log_multinomial(trials, support))


def dirmult_normalization_check(p: DirMultParams) -> float:
    """Sum of the pmf over the whole support; contract: 1 within 1e-10."""
    if p.trials > DIRMULT_TRIALS_CAP:
        raise ValueError(
            f"trials={p.trials} exceeds the enumeration cap of {DIRMULT_TRIALS_CAP}"
        )
    support, log_multinomial = _dirmult_support(p.trials, p.alpha.k)
    return math.fsum(np.exp(_log_pmf(p, support, log_multinomial)).tolist())


def kerov_tsilevich_check(alpha, t, order: int = 12):
    """Moment-series check of E[(1 - t'x)^{-A}] = prod_i (1 - t_i)^{-alpha_i}
    for x ~ Dirichlet(alpha), A = sum(alpha).

    The left side is expanded as sum_m (A)_m/m! E[(t'x)^m], truncated at
    `order`.  By the multinomial theorem E[(t'x)^m] = sum_c P(c) prod_j
    t_j^{c_j}, P the Dirichlet-multinomial pmf of m trials.  Returns
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
        support, log_multinomial = _dirmult_support(m, p.k)
        pmf = np.exp(_log_pmf(DirMultParams(p, m), support, log_multinomial))
        inner = math.fsum(pmf * np.prod(t ** support, axis=1))
        series_terms.append(math.exp(log_poch) * inner)
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
