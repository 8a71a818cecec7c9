"""Statistical comparison machinery.

Three complementary checks back the distributional claims: moment z-tests
with CLT standard errors against exact Dirichlet moments, one-sample KS tests
of each marginal against its Beta CDF, and an energy-distance permutation
test between two sample batches.  Thresholds are chosen so that, with frozen
seeds, failures indicate bugs rather than noise.  The KS and energy tests
import scipy when called, so the rest of the package runs on numpy alone.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import DirichletParams, dirichlet_mixed_moment

__all__ = [
    "moment_ztest",
    "ks_marginal",
    "ks_threshold",
    "energy_two_sample",
    "Z_THRESHOLD",
    "KS_LEVEL",
    "ENERGY_LEVEL",
    "ENERGY_SUBSAMPLE",
    "ENERGY_PERMUTATIONS",
]

Z_THRESHOLD = 5.0
KS_LEVEL = 0.001
ENERGY_LEVEL = 0.001
# The permutation p-value is at least 1/(P+1); P = 1999 lets it fall below
# ENERGY_LEVEL, which P < 999 would not.
ENERGY_PERMUTATIONS = 1999

# Block length of ks_marginal's CDF pruning, and how far below the largest
# deviation seen a block's bound may lie and still be evaluated in full: the
# margin covers ulp-level non-monotonicity of betainc.
KS_BLOCK = 64
KS_MARGIN = 1e-12

# Rows per sample kept by the energy statistic: the pooled distance matrix
# has fewer than 10^7 entries, so its upper triangle times the shuffled labels
# takes fewer than 10^10 multiply-adds.
ENERGY_SUBSAMPLE = 1581
# Pooled rows per block of that matrix, which is never held whole: at the full
# subsample a block and its product with the labels take 6.5 and 4 MB, where
# the matrix would take 80 MB.
ENERGY_BLOCK_ROWS = 256


def moment_ztest(values: np.ndarray, target: DirichletParams, s) -> dict:
    """z-test of the empirical mixed moment prod_j z_j^{s_j} of the (N, k)
    samples against the exact target Dirichlet moment, standard error from
    the sample variance.

    The product is taken column by column, left to right, as
    ``np.prod(values ** s, axis=1)`` takes it.  Orders 0 and 1 skip ``pow``:
    x**0 is exactly 1 and x**1 exactly x, so they contribute nothing or the
    column itself.  Orders >= 2 go through ``np.power`` with an array
    exponent of the column's length; a scalar exponent 2 takes numpy's
    squaring shortcut, which rounds differently from its general power loop.
    """
    s = tuple(int(v) for v in s)
    if len(s) != values.shape[1]:
        raise ValueError("moment index length must match batch dimension")
    if sum(s) == 0:
        # empty product: trivially 1 on both sides
        emp = exact = 1.0
        se = z = 0.0
    else:
        n = values.shape[0]
        prod = np.ones(n)
        for j, e in enumerate(s):
            if e == 1:
                prod *= values[:, j]
            elif e >= 2:
                prod *= np.power(values[:, j], np.full(n, float(e)))
        emp = float(prod.mean())
        var = float(prod.var(ddof=1))
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
    x = np.clip(np.sort(values[:, coordinate]), 0.0, 1.0)
    grid = np.arange(1, n + 1) / n
    lo = grid - 1.0 / n

    first = np.arange(0, n, KS_BLOCK)
    last = np.minimum(first + KS_BLOCK, n) - 1
    ends = np.concatenate([first, last])
    cdf = betainc(a, b, x[ends])
    best = max(np.max(grid[ends] - cdf), np.max(cdf - lo[ends]))
    cdf_first, cdf_last = cdf[:first.size], cdf[first.size:]
    bound = np.maximum(grid[last] - cdf_first, cdf_last - lo[first])
    refine = first[bound >= best - KS_MARGIN]
    if refine.size:
        idx = (refine[:, None] + np.arange(KS_BLOCK)).ravel()
        idx = idx[idx < n]
        cdf = betainc(a, b, x[idx])
        best = max(best, np.max(grid[idx] - cdf), np.max(cdf - lo[idx]))
    stat = float(best)
    thr = ks_threshold(n)
    return {"kind": "ks", "coordinate": coordinate, "statistic": stat,
            "threshold": thr, "pass": stat <= thr}


def _subsample(values: np.ndarray, m: int) -> np.ndarray:
    if values.shape[0] <= m:
        return values
    idx = np.linspace(0, values.shape[0] - 1, m).round().astype(int)
    return values[idx]


def _permutation_labels(base: np.ndarray, seed: int) -> np.ndarray:
    """ENERGY_PERMUTATIONS shuffles of the 0/1 float labels base, one per
    column.  One rng.permuted call shuffles every row of a tiled copy in
    place, with the draws that successive rng.permutation calls make.  The
    (n, P) result is the transposed view of that block: it is F-contiguous,
    the layout BLAS reads without a copy."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    labels = np.tile(base, (ENERGY_PERMUTATIONS, 1))
    rng.permuted(labels, axis=1, out=labels)
    return labels.T


def _energy_statistics(a: np.ndarray, b: np.ndarray, seed: int):
    """The observed energy statistic of a and b, and the array of the
    statistics of the ENERGY_PERMUTATIONS label shuffles."""
    from scipy.spatial.distance import cdist

    if a.shape[1] != b.shape[1]:
        raise ValueError("batches must have the same dimension")
    va = _subsample(a, ENERGY_SUBSAMPLE)
    vb = _subsample(b, ENERGY_SUBSAMPLE)
    ma, mb = va.shape[0], vb.shape[0]
    n = ma + mb
    pooled = np.vstack([va, vb])
    base = np.zeros(n)
    base[:ma] = 1.0
    perms = _permutation_labels(base, seed)

    rowsum = np.empty(n)
    dg = np.empty(n)
    s_aa = np.zeros(ENERGY_PERMUTATIONS)
    for start in range(0, n, ENERGY_BLOCK_ROWS):
        rows = slice(start, min(start + ENERGY_BLOCK_ROWS, n))
        block = cdist(pooled[rows], pooled)
        rowsum[rows] = block.sum(axis=1)
        dg[rows] = block @ base
        # D is bitwise symmetric ((x-y)^2 == (y-x)^2) with a zero diagonal,
        # so g'Dg = 2 g'Ug for its strict upper triangle U: each block adds
        # its rows of U, the trapezoid right of the diagonal.
        upper = block[:, start:]
        upper[np.tril_indices(upper.shape[0])] = 0.0
        s_aa += np.einsum("ip,ip->p", perms[rows], upper @ perms[start:])
    s_aa *= 2.0
    total = float(rowsum.sum())

    def statistic(s_aa, u):
        # s_aa sums D over the pairs within the first sample, u over its rows
        s_ab = u - s_aa
        s_bb = total - 2 * u + s_aa
        return 2 * s_ab / (ma * mb) - s_aa / (ma * ma) - s_bb / (mb * mb)

    if ma == mb and np.array_equal(va, vb):
        observed = 0.0  # identical inputs: the four distance blocks coincide
    else:
        observed = statistic(float(base @ dg), float(rowsum @ base))
    stats = statistic(s_aa, rowsum @ perms)
    # A shuffle that repeats the observed partition, or its mirror image when
    # ma == mb, has the observed statistic; the labels say which do, exactly
    # (a sum of 0/1 floats), where the rounding of two products would not.
    kept = perms[:ma].sum(axis=0)
    stats[(kept == ma) | ((ma == mb) & (kept == 0))] = observed
    return observed, stats


def energy_two_sample(a: np.ndarray, b: np.ndarray, seed: int = 0) -> dict:
    """Energy-distance two-sample test with a permutation p-value.

    The V-statistic 2*mean(D_ab) - mean(D_aa) - mean(D_bb) is computed on
    deterministic subsamples of at most ENERGY_SUBSAMPLE rows of the (N, k)
    samples a and b; permutations reuse their pooled distance matrix D,
    which is computed ENERGY_BLOCK_ROWS rows at a time and never held whole.
    The observed statistic takes D's row sums and its product with the
    observed labels row by row, and is exactly zero for identical inputs.
    Each block multiplies its rows of the strict upper triangle of D by all
    label shuffles at once; the permutation statistics differ from full
    products only in their last bits.  A shuffle that repeats the observed
    partition (or its mirror image, for equal subsample sizes) counts as at
    least the observed statistic, whatever the rounding.
    """
    observed, stats = _energy_statistics(a, b, seed)
    p_value = float((1 + np.sum(stats >= observed)) / (ENERGY_PERMUTATIONS + 1))
    return {"kind": "energy", "statistic": float(observed), "permutation_p": p_value,
            "n_permutations": ENERGY_PERMUTATIONS, "seed": seed,
            "pass": p_value > ENERGY_LEVEL}
