"""Statistical comparison machinery.

Three complementary checks back the distributional claims: moment z-tests
with CLT standard errors against exact Dirichlet moments, one-sample KS tests
of each marginal against its Beta CDF, and a block energy-distance test
between two sample batches that reads every draw.  Thresholds are chosen so
that, with frozen seeds, failures indicate bugs rather than noise.  The KS and
energy tests import scipy when called, so the rest of the package runs on
numpy alone.  Samples are points of the simplex; on k = 2 samples the energy
test sorts first coordinates, so scipy.spatial loads only for k >= 3.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import DirichletParams, _exponents, dirichlet_mixed_moment

__all__ = [
    "moment_ztest",
    "ks_marginal",
    "ks_threshold",
    "energy_two_sample",
    "energy_layout",
    "energy_block_statistics",
    "Z_THRESHOLD",
    "KS_LEVEL",
    "ENERGY_LEVEL",
    "ENERGY_BLOCK",
]

Z_THRESHOLD = 5.0
KS_LEVEL = 0.001
ENERGY_LEVEL = 0.001
# Rows of each sample per block of the energy test: 800 blocks at 200k draws.
ENERGY_BLOCK = 250

# Block length of ks_marginal's CDF pruning, and how far below the largest
# deviation seen a block's bound may lie and still be evaluated in full: the
# margin covers ulp-level non-monotonicity of betainc.
KS_BLOCK = 64
KS_MARGIN = 1e-12


def moment_ztest(values: np.ndarray, target: DirichletParams, s) -> dict:
    """z-test of the empirical mixed moment prod_j z_j^{s_j} of the (N, k)
    samples against the exact target Dirichlet moment, standard error from
    the sample variance.

    The product takes its factors left to right: column 1 s_1 times, then
    column 2 s_2 times, and so on, starting from a copy of the first.  Each
    multiplication is correctly rounded, so the record does not depend on
    which SIMD loop numpy picks for the CPU, as its ``np.power`` loops do.
    """
    s = _exponents(s)
    if len(s) != values.shape[1]:
        raise ValueError("moment index length must match batch dimension")
    if sum(s) == 0:
        raise ValueError("a moment of total order 0 is 1 on both sides and tests nothing")
    factors = [j for j, e in enumerate(s) for _ in range(e)]
    prod = values[:, factors[0]].copy()
    for j in factors[1:]:
        prod *= values[:, j]
    emp = float(prod.mean())
    # np.var(ddof=1)'s steps on prod itself: its deviations, squared, summed
    # and divided by n - 1, without a deviation array of its own.
    prod -= emp
    np.square(prod, out=prod)
    var = float(prod.sum() / (values.shape[0] - 1))
    if var <= 0:
        raise ValueError("degenerate batch: zero sample variance")
    se = math.sqrt(var / values.shape[0])
    exact = dirichlet_mixed_moment(target, s)
    z = (emp - exact) / se
    return {"kind": "moment", "index": list(s), "empirical": emp, "exact": exact,
            "std_error": se, "z_score": z, "pass": abs(z) <= Z_THRESHOLD}


def ks_threshold(n: int) -> float:
    """Asymptotic one-sample KS critical value c(KS_LEVEL)/sqrt(n)."""
    return math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0)) / math.sqrt(n)


def ks_marginal(values: np.ndarray, target: DirichletParams, coordinate: int) -> dict:
    """One-sample KS statistic of one coordinate of the (N, k) samples against
    its Beta marginal Beta(alpha_c, sum(alpha) - alpha_c).

    The Beta CDF is evaluated on the end points of blocks of KS_BLOCK sorted
    points.  Since the CDF is monotone, a block's end points bound both
    deviations inside it, and only the blocks whose bound reaches the largest
    end-point deviation (less KS_MARGIN) are evaluated in full.  Every value
    compared is the grid-minus-CDF difference a full evaluation computes, so
    the statistic is the same double.
    """
    from scipy.special import betainc

    n, k = values.shape
    if not (0 <= coordinate < k):
        raise ValueError(f"coordinate {coordinate} out of range for k={k}")
    if target.k != k:
        raise ValueError("target dimension must match batch dimension")
    a = target.alpha[coordinate]
    b = target.total - a
    x = np.sort(values[:, coordinate])
    np.clip(x, 0.0, 1.0, out=x)

    def steps(i):
        # the empirical CDF just after and just before sorted point i, as
        # grid = arange(1, n + 1) / n and grid - 1/n give them
        after = (i + 1) / n
        return after, after - 1.0 / n

    first = np.arange(0, n, KS_BLOCK)
    last = np.minimum(first + KS_BLOCK, n) - 1
    ends = np.concatenate([first, last])
    after, before = steps(ends)
    cdf = betainc(a, b, x[ends])
    best = max(np.max(after - cdf), np.max(cdf - before))
    m = first.size  # ends[:m] are the blocks' first points, ends[m:] their last
    bound = np.maximum(after[m:] - cdf[:m], cdf[m:] - before[:m])
    refine = first[bound >= best - KS_MARGIN]
    if refine.size:
        idx = (refine[:, None] + np.arange(KS_BLOCK)).ravel()
        idx = idx[idx < n]
        after, before = steps(idx)
        cdf = betainc(a, b, x[idx])
        best = max(best, np.max(after - cdf), np.max(cdf - before))
    stat = float(best)
    thr = ks_threshold(n)
    return {"kind": "ks", "coordinate": coordinate, "statistic": stat,
            "threshold": thr, "pass": stat <= thr}


def energy_layout(n: int) -> tuple:
    """(rows, blocks) of the energy test on samples of at least n rows each:
    blocks of B = min(ENERGY_BLOCK, n // 2) rows, as many as fit in n."""
    rows = min(ENERGY_BLOCK, n // 2)
    if rows < 2:
        raise ValueError("the energy test needs at least 4 rows per batch")
    return rows, n // rows


def _pair_distance_sums(v: np.ndarray) -> np.ndarray:
    """Per row of v, the sum of |v_r - v_s| over its pairs r < s:
    sum_r (2r - n + 1) v_(r) over the row sorted ascending."""
    n = v.shape[1]
    return (np.sort(v, axis=1) * np.arange(1 - n, n, 2.0)).sum(axis=1)


def energy_block_statistics(a: np.ndarray, b: np.ndarray, rows: int, first: int,
                            stop: int) -> np.ndarray:
    """The energy test's statistics h_i of blocks i = first..stop-1, block i
    pairing rows i*rows..(i+1)*rows-1 of a and b.

    Rows are points of the simplex.  For k = 2 they lie on the line
    z_1 + z_2 = 1, where |x - y| = sqrt(2)|x_1 - y_1|, so every block's
    distance sums come from its sorted first coordinates (Szekely & Rizzo
    2013), in O(B log B); for k >= 3 they come from scipy's cdist and pdist.
    """
    if a.shape[1] == 2:
        x = a[first * rows:stop * rows, 0].reshape(-1, rows)
        y = b[first * rows:stop * rows, 0].reshape(-1, rows)
        within_x, within_y = _pair_distance_sums(x), _pair_distance_sums(y)
        cross = _pair_distance_sums(np.concatenate([x, y], axis=1)) - within_x - within_y
        pairs = rows * (rows - 1) / 2
        return math.sqrt(2) * (2 * cross / rows**2 - within_x / pairs - within_y / pairs)

    from scipy.spatial.distance import cdist, pdist

    h = np.empty(stop - first)
    for i in range(first, stop):
        x, y = a[i * rows:(i + 1) * rows], b[i * rows:(i + 1) * rows]
        h[i - first] = 2 * cdist(x, y).mean() - pdist(x).mean() - pdist(y).mean()
    return h


def energy_two_sample(a: np.ndarray, b: np.ndarray, h) -> dict:
    """Block energy two-sample test over every draw of the (N, k) samples a
    and b (the B-test of Zaremba, Gretton & Blaschko 2013, with the distance
    kernel).

    Block i pairs rows iB..(i+1)B-1 of a and b, B = min(ENERGY_BLOCK, n // 2)
    for the smaller sample size n; rows past the last whole block are unused.
    Each block gives the unbiased energy statistic
    h_i = 2 mean|x - y| - mean_{pairs}|x - x'| - mean_{pairs}|y - y'|, whose
    mean is 0 under the null.  Rows must be points of the simplex: for k = 2
    the distances are taken as sqrt(2)|x_1 - y_1| from sorted first
    coordinates, and only k >= 3 uses scipy.spatial (energy_block_statistics).
    The one-sided z = mean(h) / (sd(h)/sqrt(blocks)) is judged against
    Student's t on blocks - 1 degrees of freedom.

    ``h`` yields arrays from energy_block_statistics that join, in block
    order, into every block's statistic (the battery computes them on other
    threads).
    """
    from scipy.special import stdtr

    if a.shape[1] != b.shape[1]:
        raise ValueError("batches must have the same dimension")
    rows, blocks = energy_layout(min(a.shape[0], b.shape[0]))
    h = np.concatenate(list(h))
    statistic = float(h.mean())
    se = float(h.std(ddof=1)) / math.sqrt(blocks)
    if se == 0:
        raise ValueError("degenerate batches: every block has the same energy statistic")
    z = statistic / se
    p_value = float(stdtr(blocks - 1, -z))
    return {"kind": "energy", "statistic": statistic, "z": z, "p_value": p_value,
            "block_rows": rows, "blocks": blocks, "pass": p_value > ENERGY_LEVEL}
