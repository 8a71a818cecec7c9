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
and every index of total order <= S reads its moment from that table, bit
for bit what a table of its own order would give.  Each factor is
multiplied in by one bincount over the C(S + 2k, 2k) pairs of cells whose
sum stays in the simplex; _check_pairs caps that number at _MAX_PAIRS, and
the validator refuses a config above it.

tabulate_moments builds the tables of a grid of matrices a batch at a time,
one bincount per factor over every matrix of the batch, and
tabulate_dirmult the Dirichlet-multinomial sums of a grid of alphas, one
_pmf pass per batch.  A batch holds at most _BATCH_ELEMENTS elements and
at least one item, and replaces its thread's last batch of its kind,
which the per-item rwa_moment_expansion and dirmult_normalization_check
read; on a miss they build a batch of one.  Every result has the bits it
has when built alone.

The closed forms, the moment of the claimed Dirichlet law and the one
Dirichlet-multinomial pmf (_pmf, read by the sums and the Kerov-Tsilevich
series), read the log rising factorials behind dirichlet_mixed_moment,
and share no code with the expansion.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (DEFAULT_ORDER_CAP, DirichletParams, _exponents, _log_moment,
                            _log_rising, _log_rising_table)
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
    "tabulate_moments",
    "tabulate_dirmult",
]

DIRMULT_TRIALS_CAP = 64  # trial cap of an explicit Dirichlet-multinomial enumeration
KT_ORDER = 12  # truncation order of the Kerov-Tsilevich moment series


@dataclass(frozen=True)
class MomentIndex:
    """Vector of non-negative integer exponents for a mixed moment."""

    s: tuple

    def __init__(self, s):
        s = _exponents(s)
        if sum(s) > DEFAULT_ORDER_CAP:
            raise ValueError(f"total order {sum(s)} exceeds the cap of {DEFAULT_ORDER_CAP}")
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
# pairs, and a run of two such matrices peaks near 175 MB.  It also caps the
# count vectors of a support (_check_support) and of a whole dirmult scenario.
_MAX_PAIRS = 2 ** 22

# Element budget of a batch, and so of each thread's last batch of each kind:
# matrices x cell pairs of moment tables, alphas x support rows x k of
# Dirichlet-multinomial sums.  A batch holds at least one item, so a moment
# table of more pairs is built alone.  Larger budgets raised peak RSS.
_BATCH_ELEMENTS = 2 ** 12


def _check_pairs(k: int, top: int) -> None:
    """Raise ValueError if the simplex of cells |h| <= top in k coordinates
    has more than _MAX_PAIRS pairs of cells."""
    pairs = math.comb(top + 2 * k, 2 * k)
    if pairs > _MAX_PAIRS:
        raise ValueError(f"a moment table of k = {k} at order {top} has {pairs:,} cell "
                         f"pairs, more than the cap of {_MAX_PAIRS:,}")


def _check_support(k: int, trials: int) -> None:
    """Raise ValueError if the support of trials in k cells has over _MAX_PAIRS rows."""
    support = math.comb(trials + k - 1, k - 1)
    if support > _MAX_PAIRS:
        raise ValueError(f"alphas of {k} coordinates at {trials} trials have a "
                         f"Dirichlet-multinomial support of {support:,} count vectors, "
                         f"more than the cap of {_MAX_PAIRS:,}")


class _Cells(NamedTuple):
    """The simplex of cells |h| <= top and the pairs of cells whose sum
    stays in it.

    cells[j] is coordinate j of every cell and degree its total |h|.  The
    pairs (left, right) are grouped by left in ascending order, and target
    is the index of the cell left + right; the three are int32.
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

    There are C(top + 2k, 2k) pairs, the length-2k vectors of total <= top,
    fewer than 2^31.  Each left cell h takes as right cells a prefix of the
    cells sorted by degree, those of degree <= top - |h|.  The index of a
    pair's sum is found by a binary search of its key among the cells' keys, a
    block of 2^16 pairs at a time, so that only the three int32 pair arrays
    have the full length.
    """
    _check_pairs(k, top)
    # Lexicographic compositions of top into k + 1 parts, less the slack part.
    cells = np.asarray(list(compositions(top, k + 1)), dtype=np.intp)[:, :k].T
    degree = cells.sum(axis=0)
    # Each cell as one byte string of big-endian two-byte coordinates, whose
    # byte order is lexicographic order; under the pair cap no coordinate
    # reaches 2^16 (k = 1 stops at order 2,894).
    coords, key = np.ascontiguousarray(cells.T, dtype=">u2"), f"V{2 * k}"
    keys = coords.view(key).ravel()
    by_degree = np.argsort(degree, kind="stable")
    upto = np.searchsorted(degree[by_degree], np.arange(top + 1), side="right")
    count = upto[top - degree]
    first = np.cumsum(count) - count  # the first pair of each left cell
    left = np.repeat(np.arange(degree.size, dtype=np.int32), count)
    right = np.empty_like(left)
    target = np.empty_like(left)
    size = 16 * _BATCH_ELEMENTS  # 0.5 MB int64 temporaries, few numpy calls
    for start in range(0, left.size, size):
        block = slice(start, start + size)
        lcell = left[block]
        rcell = by_degree[np.arange(start, start + lcell.size) - first[lcell]]
        right[block] = rcell
        pair = (coords[lcell] + coords[rcell]).astype(">u2")
        target[block] = np.searchsorted(keys, pair.view(key).ravel())
    index = {cell: i for i, cell in enumerate(map(tuple, cells.T.tolist()))}
    return _Cells(*_read_only(cells, degree, left, right, target)), index


# Each thread's last batches: finished moment tables by (w_alpha, x_alphas,
# depth) in `tables`, Dirichlet-multinomial sums by (alpha, trials) in `sums`.
_last = threading.local()


def _in_batches(items, cost, build):
    """Yield the items in order, each once build(batch) has run on the batch
    that holds it: a run of _BATCH_ELEMENTS // cost(first) items, at least
    one, where first is the run's first item."""
    items = iter(items)
    for first in items:
        batch = [first, *itertools.islice(items, max(_BATCH_ELEMENTS // cost(first) - 1, 0))]
        build(batch)
        yield from batch


def _rising_ratios(top: np.ndarray, bottom, m: int, e=0) -> np.ndarray:
    """(top)_h / (bottom)_h * 2^(-e h) for h = 0..m along a new last axis;
    e is an int or an int array that broadcasts against top[..., None]."""
    r = np.arange(m)
    out = np.ones(top.shape + (m + 1,))
    out[..., 1:] = np.ldexp((top[..., None] + r) / (np.asarray(bottom)[..., None] + r), -e)
    return np.cumprod(out, axis=-1, out=out)


def _scale_exponent(x_alphas: tuple) -> int:
    """e with 2^(e-1) <= the largest entry < 2^e if that is above 1, else 0.
    (alpha_ij)_h/h! would pass the largest double at entries of 1e39 and
    order 8; the product tables are those of prod_i F_i(t / 2^e), in which it
    is below 1.  A coefficient of total S is so 2^(-eS) times the unscaled
    one, exactly: a power of two rounds nothing short of the subnormals."""
    return max(math.frexp(max(map(max, x_alphas)))[1], 0)


def _product(w: np.ndarray, x: np.ndarray, e: np.ndarray, cs: _Cells, top: int) -> np.ndarray:
    """Coefficients of prod_i F_i(t / 2^e) on the simplex cs of cells
    |h| <= top, one row per matrix of a batch: w (matrices, n) holds the
    weight concentrations, x (matrices, n, k) the rows of x and e the
    _scale_exponent of each matrix.

    Each factor is multiplied in by one bincount over every matrix's pairs,
    each matrix's targets offset to its own row of cells, which adds the
    products poly[h] * f[c - h] into cell c in ascending order of h.  Every
    coefficient is so the same sum in the same order whatever the depth and
    whatever else is in the batch, so a cell has the same bits in a table
    of any depth, built alone or in a batch.
    """
    matrices, size = len(w), cs.degree.size
    # F_i over the cells: (a_i)_{|h|}/(b_i)_{|h|} * prod_j (alpha_ij)_{h_j}/h_j! 2^(-e h_j)
    per_row = _rising_ratios(w, x.sum(axis=2), top)
    per_cell = _rising_ratios(x, 1.0, top, e[:, None, None, None])
    coords = np.arange(x.shape[2])[:, None]
    target = (np.arange(matrices)[:, None] * size + cs.target).ravel()
    poly = None
    for i in range(x.shape[1]):
        f = per_row[:, i, cs.degree] * np.prod(per_cell[:, i, coords, cs.cells], axis=1)
        if poly is None:
            poly = f
        else:
            terms = poly[:, cs.left]
            terms *= f[:, cs.right]
            poly = np.bincount(target, weights=terms.ravel(),
                               minlength=f.size).reshape(matrices, size)
    return poly


def _finished(w: np.ndarray, e: np.ndarray, coeff: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The moments of the cells s (the columns of cells) of each matrix of
    a batch (the rows of coeff, of w and of e, as in _product) from their
    coefficients of prod_i F_i(t / 2^e): coeff * prod_j s_j! / (A)_S * 2^(eS).

    The factors q / ((A + r) / 2^e), r = 0..S-1 with q running through
    1..s_1, 1..s_2, ..., restore one 2^e each (2^-e is a double for every e,
    2^1024 is not).  They are multiplied in ascending r from 1.0, as
    math.prod over them would, so a cell gets the same bits in a table of
    any depth."""
    a_total = w.sum(axis=1)[:, None]
    scale = np.ldexp(1.0, -e)[:, None]
    ends = np.cumsum(cells, axis=0)  # ends[j] = s_1 + ... + s_{j+1}
    out = np.ones(coeff.shape)
    for r in range(int(ends[-1].max(initial=0))):
        q = r + 1 - np.where(ends <= r, ends, 0).max(axis=0)
        live = ends[-1] > r
        out[:, live] *= q[live] / ((a_total + r) * scale)
    return coeff * out


def _tabulate(scenarios: list, top: int) -> np.ndarray:
    """The finished moments of the simplex |h| <= top of each scenario, all
    of one n and k, built as one batch that becomes this thread's last; one
    read-only row per scenario."""
    cs, _ = _simplex(scenarios[0].k, top)
    w = np.array([sc.w_alpha for sc in scenarios])
    x = np.array([sc.x_alphas for sc in scenarios])
    e = np.array([_scale_exponent(sc.x_alphas) for sc in scenarios])
    moment, = _read_only(_finished(w, e, _product(w, x, e, cs, top), cs.cells))
    _last.tables = {(sc.w_alpha, sc.x_alphas, top): row for sc, row in zip(scenarios, moment)}
    return moment


def tabulate_moments(scenarios, top: int):
    """Yield the scenarios, all of one n and k, in order, each once its
    moment table of depth top is built: the tables are built in batches of
    at most _BATCH_ELEMENTS cell pairs over all their matrices, so
    rwa_moment_expansion(sc, s, top) then reads the thread's last batch."""
    return _in_batches(scenarios, lambda sc: _simplex(sc.k, top)[0].left.size,
                       lambda batch: _tabulate(batch, top))


def rwa_moment_expansion(sc: WeightedAverageScenario, s: MomentIndex, top: int = 0) -> float:
    """E[prod_j z_j^{s_j}] as the coefficient [t^s] of prod_i F_i(t) (see the
    module docstring).

    The moment is read from the scenario's table of depth max(top, s.total)
    in this thread's last batch, which tabulate_moments builds for a grid at
    a time and a miss builds alone.  Every term is positive, so nothing
    cancels.  Only the weight concentrations and the rows of x enter; the
    column sums never do, which keeps this oracle independent of
    rwa_moment_closed_form and valid for scenarios whose weight
    concentrations are not the row sums.
    """
    k = sc.k
    if s.k != k:
        raise ValueError(f"moment index length {s.k} != scenario dimension {k}")
    top = max(top, s.total)
    moment = getattr(_last, "tables", {}).get((sc.w_alpha, sc.x_alphas, top))
    if moment is None:
        moment = _tabulate([sc], top)[0]
    return float(moment[_simplex(k, top)[1][s.s]])


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


@functools.lru_cache(maxsize=64)
def _dirmult_support(trials: int, cells: int):
    """All count vectors of the support, one per row, and their log
    multinomial coefficients (log h! = log (1)_h), read-only; they depend
    only on the trial and cell counts, so a grid of alphas shares them."""
    _check_support(cells, trials)
    support = np.asarray(list(compositions(trials, cells)), dtype=np.intp)
    log_fact = _log_rising_table((1.0,), max(trials, DEFAULT_ORDER_CAP))[0]
    return _read_only(support, log_fact[trials] - log_fact[support].sum(axis=1))


def _pmf(alphas: list, n: int):
    """The support of n trials and the Dirichlet-multinomial pmf there of
    each of alphas, all of one k, one row per alpha, from one stack of log
    rising factorials."""
    support, log_multinomial = _dirmult_support(n, len(alphas[0]))
    logs = _log_rising(np.array([a + (sum(a),) for a in alphas]), max(n, DEFAULT_ORDER_CAP))
    pmf = logs[:, np.arange(support.shape[1]), support].sum(axis=-1)
    pmf += log_multinomial
    pmf -= logs[:, -1, n, None]
    return support, np.exp(pmf, out=pmf)


def _normalize(params: list) -> list:
    """The pmf sums over the support of each of params, all of one trial
    count and k, from one _pmf pass, each a math.fsum; the batch becomes
    this thread's last."""
    n = params[0].trials
    if n > DIRMULT_TRIALS_CAP:
        raise ValueError(f"trials={n} exceeds the enumeration cap of {DIRMULT_TRIALS_CAP}")
    alphas = [p.alpha.alpha for p in params]
    totals = [math.fsum(row) for row in _pmf(alphas, n)[1].tolist()]
    _last.sums = {(a, n): total for a, total in zip(alphas, totals)}
    return totals


def tabulate_dirmult(params):
    """Yield params, all of one trial count and k, in order, each once its
    normalization sum is built: the sums are built in batches of at most
    _BATCH_ELEMENTS support entries over all their alphas, so
    dirmult_normalization_check then reads the thread's last batch."""
    return _in_batches(params, lambda p: math.comb(p.trials + p.alpha.k - 1, p.alpha.k - 1)
                       * p.alpha.k, _normalize)


def dirmult_normalization_check(p: DirMultParams) -> float:
    """Sum of the pmf over the whole support; contract: 1 within 1e-10.
    Read from this thread's last batch; a miss sums p alone."""
    total = getattr(_last, "sums", {}).get((p.alpha.alpha, p.trials))
    return _normalize([p])[0] if total is None else total


def kerov_tsilevich_check(alpha, t, order: int = KT_ORDER):
    """Moment-series check of E[(1 - t'x)^{-A}] = prod_i (1 - t_i)^{-alpha_i}
    for x ~ Dirichlet(alpha), A = sum(alpha).

    The left side is expanded as sum_m (A)_m/m! E[(t'x)^m], truncated at
    `order`.  By the multinomial theorem E[(t'x)^m] = sum_c P(c) prod_j
    t_j^{c_j}, P the Dirichlet-multinomial pmf of m trials (_pmf).  Returns
    (series, product, tail_bound); |series - product| <= tail_bound + eps is
    the success criterion.  The tail bound is exact for the dominating series
    with |t'x| <= max|t_i|: it is the full geometric-type sum minus its own
    truncation, computed in closed form (0.0 at t = 0).
    """
    p = DirichletParams(alpha)
    t = np.asarray(t, dtype=float)
    if t.shape != (p.k,):
        raise ValueError("t must have one entry per coordinate")
    if np.max(np.abs(t)) >= 1:
        raise ValueError("need |t_i| < 1 for convergence")
    a_total = p.total
    # log (A)_m / m! for m = 0, ..., order, read by the series and its tail bound
    log_poch = list(itertools.accumulate(
        (math.log(a_total + m - 1) - math.log(m) for m in range(1, order + 1)), initial=0.0))
    series_terms = [1.0]
    for m in range(1, order + 1):
        support, pmf = _pmf([p.alpha], m)
        inner = math.fsum(pmf[0] * np.prod(t ** support, axis=1))
        series_terms.append(math.exp(log_poch[m]) * inner)
    series = math.fsum(series_terms)
    # If this overflows, so does the larger (1 - tau)**-A below, which raises.
    with np.errstate(over="ignore"):
        product = float(np.prod((1 - t) ** (-p.as_array())))
    # dominating tail: sum_{m>order} (A)_m/m! tau^m with tau = max|t_i|
    tau = float(np.max(np.abs(t)))
    tail = (1 - tau) ** -a_total - math.fsum(math.exp(c) * tau**m for m, c in enumerate(log_poch))
    return series, product, abs(tail)
