import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist
from scipy.special import betainc

from dirichlet_rwa import runner, stattest
from dirichlet_rwa.config import ScenarioConfig
from dirichlet_rwa.distributions import (DirichletParams, RngStream, dirichlet_mixed_moment,
                                         sample_dirichlet_batch)
from dirichlet_rwa.stattest import (ENERGY_BLOCK_ROWS, ENERGY_LEVEL, ENERGY_PERMUTATIONS,
                                    ENERGY_SUBSAMPLE, KS_BLOCK, Z_THRESHOLD, energy_two_sample,
                                    ks_marginal, ks_threshold, moment_ztest)


def batch(alpha, n, seed, stream=0):
    return sample_dirichlet_batch(DirichletParams(alpha), n, RngStream(seed, stream).generator())


def test_moment_ztest_null_passes():
    b = batch((1, 1), 10**5, 101)
    r = moment_ztest(b, DirichletParams((1, 1)), (1, 0))
    assert r["pass"] and abs(r["z_score"]) <= 5


def test_moment_ztest_wrong_target_fails():
    b = batch((2, 2), 10**5, 102)
    r = moment_ztest(b, DirichletParams((1, 1)), (1, 1))
    assert not r["pass"] and abs(r["z_score"]) > 5


def test_moment_ztest_zero_exponent_trivially_passes():
    b = batch((1, 1), 100, 103)
    r = moment_ztest(b, DirichletParams((1, 1)), (0, 0))
    assert r["pass"] and r["z_score"] == 0.0


def test_moment_ztest_degenerate_batch():
    b = np.full((100, 2), 0.5)
    with pytest.raises(ValueError):
        moment_ztest(b, DirichletParams((1, 1)), (1, 0))


def test_ks_null_passes():
    b = batch((1, 1), 10**5, 104)
    r = ks_marginal(b, DirichletParams((1, 1)), 0)
    assert r["pass"]
    assert r["statistic"] < 3 / math.sqrt(b.shape[0])


def test_ks_wrong_target_fails():
    b = batch((1, 1), 10**5, 105)
    r = ks_marginal(b, DirichletParams((2, 2)), 0)
    assert not r["pass"]
    # CDF sup-distance between Uniform and Beta(2,2) is ~0.096
    assert r["statistic"] > 0.05


def test_ks_coordinate_out_of_range():
    b = batch((1, 1), 100, 106)
    with pytest.raises(ValueError):
        ks_marginal(b, DirichletParams((1, 1)), 2)


def test_ks_probability_integral_transform_invariance():
    # transforming sample and reference through the target CDF leaves the
    # statistic unchanged
    from scipy.special import betainc

    b = batch((2, 3), 20_000, 107)
    r = ks_marginal(b, DirichletParams((2, 3)), 0)
    u = betainc(2.0, 3.0, b[:, 0])
    r2 = ks_marginal(np.stack([u, 1 - u], axis=1), DirichletParams((1, 1)), 0)
    assert r["statistic"] == pytest.approx(r2["statistic"], abs=1e-12)


def test_ks_threshold_scaling():
    assert ks_threshold(10**5) == pytest.approx(
        math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(10**5)
    )


def test_energy_same_law_passes():
    a = batch((2, 3, 5), 20_000, 108, stream=0)
    b = batch((2, 3, 5), 20_000, 108, stream=1)
    r = energy_two_sample(a, b, seed=1)
    assert r["pass"]
    assert 0 < r["permutation_p"] <= 1


def test_energy_different_law_fails():
    a = batch((1, 1, 1), 20_000, 109, stream=0)
    b = batch((3, 1, 1), 20_000, 109, stream=1)
    r = energy_two_sample(a, b, seed=2)
    assert not r["pass"]


def test_energy_identical_arrays_zero():
    a = batch((2, 2), 5_000, 110)
    r = energy_two_sample(a, a, seed=3)
    assert r["statistic"] == 0.0


def test_energy_dimension_mismatch():
    a = batch((1, 1), 100, 111)
    b = batch((1, 1, 1), 100, 112)
    with pytest.raises(ValueError):
        energy_two_sample(a, b)


def test_energy_seed_recorded():
    a = batch((1, 1), 2_000, 113, stream=0)
    b = batch((1, 1), 2_000, 113, stream=1)
    r = energy_two_sample(a, b, seed=42)
    assert r["seed"] == 42 and r["n_permutations"] == ENERGY_PERMUTATIONS


# References: the tests as they were computed before the CDF pruning, the
# pow-free orders, the single permutation call and the blocked triangular
# products.
# The records and labels of the library must equal theirs bit for bit.  The
# permutation statistics, summed in another order, agree to rounding, so an
# energy record may differ only where rounding decides a permutation that
# ties with the observed statistic.

def full_ks_marginal(values, target, coordinate):
    """Reference: the KS record with the Beta CDF evaluated at every point."""
    n = values.shape[0]
    a = target.alpha[coordinate]
    b = target.total - a
    x = np.sort(values[:, coordinate])
    cdf = betainc(a, b, np.clip(x, 0.0, 1.0))
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - cdf)
    d_minus = np.max(cdf - (grid - 1.0 / n))
    stat = float(max(d_plus, d_minus))
    thr = ks_threshold(n)
    return {"kind": "ks", "coordinate": coordinate, "statistic": stat,
            "threshold": thr, "pass": stat <= thr}


def pow_moment_ztest(values, target, s):
    """Reference: the moment record with every factor taken by pow."""
    s = tuple(int(v) for v in s)
    if sum(s) == 0:
        emp = exact = 1.0
        se = z = 0.0
    else:
        prod = np.prod(values ** np.asarray(s), axis=1)
        emp = float(prod.mean())
        var = float(prod.var(ddof=1))
        if var <= 0:
            raise ValueError("degenerate batch: zero sample variance")
        se = math.sqrt(var / values.shape[0])
        exact = dirichlet_mixed_moment(target, s)
        z = (emp - exact) / se
    return {"kind": "moment", "index": list(s), "empirical": emp, "exact": exact,
            "std_error": se, "z_score": z, "pass": abs(z) <= Z_THRESHOLD}


def stacked_permutation_labels(ma, mb, seed):
    """Reference: one rng.permutation call per permutation, stacked as columns."""
    mask = np.zeros(ma + mb, dtype=bool)
    mask[:ma] = True
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return np.stack([rng.permutation(mask) for _ in range(ENERGY_PERMUTATIONS)],
                    axis=1).astype(float)


def gemm_energy_statistics(a, b, seed):
    """Reference: the observed statistic and those of the permutations, the
    latter from one full GEMM over C-ordered labels."""
    va = stattest._subsample(a, ENERGY_SUBSAMPLE)
    vb = stattest._subsample(b, ENERGY_SUBSAMPLE)
    ma, mb = va.shape[0], vb.shape[0]
    pooled = np.vstack([va, vb])
    dmat = cdist(pooled, pooled)

    rowsum = dmat.sum(axis=1)
    total = float(rowsum.sum())

    def statistic(g):
        s_aa = float(g @ (dmat @ g))
        u = float(rowsum @ g)
        s_ab = u - s_aa
        s_bb = total - 2 * u + s_aa
        return 2 * s_ab / (ma * mb) - s_aa / (ma * ma) - s_bb / (mb * mb)

    base = np.zeros(ma + mb)
    base[:ma] = 1.0
    if ma == mb and np.array_equal(va, vb):
        observed = 0.0
    else:
        observed = statistic(base)

    perms = np.ascontiguousarray(stattest._permutation_labels(base, seed))
    dg = dmat @ perms
    s_aa = np.einsum("ip,ip->p", perms, dg)
    u = rowsum @ perms
    s_ab = u - s_aa
    s_bb = total - 2 * u + s_aa
    stats = 2 * s_ab / (ma * mb) - s_aa / (ma * ma) - s_bb / (mb * mb)
    return observed, stats


def gemm_energy_two_sample(a, b, seed=0):
    """Reference: the energy record with the permutation statistics of the
    full GEMM."""
    observed, stats = gemm_energy_statistics(a, b, seed)
    p_value = float((1 + np.sum(stats >= observed)) / (ENERGY_PERMUTATIONS + 1))
    return {"kind": "energy", "statistic": float(observed), "permutation_p": p_value,
            "n_permutations": ENERGY_PERMUTATIONS, "seed": seed,
            "pass": p_value > ENERGY_LEVEL}


def pooled_distances(a, b):
    """Subsample sizes ma, mb and the sum of the pooled distance matrix."""
    va = stattest._subsample(a, ENERGY_SUBSAMPLE)
    vb = stattest._subsample(b, ENERGY_SUBSAMPLE)
    pooled = np.vstack([va, vb])
    return va.shape[0], vb.shape[0], float(cdist(pooled, pooled).sum())


def energy_rounding_bound(a, b):
    """Bound on the rounding error of one permutation statistic: each of its
    sums adds at most n non-negative distances, whose total the statistic
    cancels down with weights up to (1/ma + 1/mb)^2."""
    ma, mb, total = pooled_distances(a, b)
    return 4 * (ma + mb) * np.finfo(float).eps * total * (1 / ma + 1 / mb) ** 2


concentration = st.sampled_from([1e-3, 0.05, 0.5, 1.0, 2.0, 7.5, 40.0])
# below one block, one block and one point either side, several blocks with a
# partial last one
block_sizes = st.sampled_from([1, 2, 17, KS_BLOCK - 1, KS_BLOCK, KS_BLOCK + 1,
                               3 * KS_BLOCK + 5, 1000, 5000])


@st.composite
def ks_batches(draw):
    alpha = draw(st.lists(concentration, min_size=2, max_size=4))
    n = draw(block_sizes)
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(alpha, n)
    if draw(st.booleans()):
        values = np.round(values, draw(st.integers(1, 3)))  # ties
    target = DirichletParams(draw(st.lists(concentration, min_size=len(alpha),
                                           max_size=len(alpha))))
    return values, target


@given(ks_batches())
@settings(max_examples=150, deadline=None)
def test_ks_record_equals_full_evaluation(batch_and_target):
    values, target = batch_and_target
    for c in range(values.shape[1]):
        assert ks_marginal(values, target, c) == full_ks_marginal(values, target, c)


def test_ks_atoms_at_zero_and_one_equal_full_evaluation():
    # the 1e-3 matrix puts exact zeros and ones into every coordinate
    values = np.random.default_rng(3).dirichlet([1e-3, 1e-3], 20_000)
    assert np.any(values == 0.0) and np.any(values == 1.0)
    for target in (DirichletParams((1e-3, 1e-3)), DirichletParams((1.0, 1.0))):
        for c in range(2):
            assert ks_marginal(values, target, c) == full_ks_marginal(values, target, c)


@pytest.mark.parametrize("n", [KS_BLOCK - 1, KS_BLOCK + 1, 3 * KS_BLOCK + 5])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_ks_maximum_in_last_partial_block(n, side):
    # uniform target, so the CDF is the identity; an evenly spread sample
    # whose last n % KS_BLOCK points are pulled down onto the point before
    # them (plus) or pushed up to 1 (minus) has its largest deviation there
    x = (np.arange(n) + 0.5) / n
    tail = n % KS_BLOCK
    x[n - tail:] = x[n - tail - 1] + 1e-9 if side == "plus" else 1 - 1e-9
    values = np.stack([x, 1 - x], axis=1)
    target = DirichletParams((1.0, 1.0))
    grid = np.arange(1, n + 1) / n
    deviation = np.maximum(grid - x, x - (grid - 1.0 / n))
    assert np.argmax(deviation) >= n - tail
    assert ks_marginal(values, target, 0) == full_ks_marginal(values, target, 0)


def test_ks_large_batch_equals_full_evaluation():
    b = batch((0.5, 0.5, 4), 200_000, 114)
    for target in (DirichletParams((0.5, 0.5, 4)), DirichletParams((0.6, 0.5, 4))):
        for c in range(3):
            assert ks_marginal(b, target, c) == full_ks_marginal(b, target, c)


@st.composite
def moment_batches(draw):
    k = draw(st.integers(2, 5))
    alpha = draw(st.lists(concentration, min_size=k, max_size=k))
    n = draw(st.sampled_from([3, 100, 5000]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(alpha, n)
    s = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    return values, DirichletParams(alpha), s


def record_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@given(moment_batches())
@settings(max_examples=200, deadline=None)
def test_moment_record_equals_pow_product(batch_target_index):
    values, target, s = batch_target_index
    assert (record_or_error(moment_ztest, values, target, s)
            == record_or_error(pow_moment_ztest, values, target, s))


@pytest.mark.parametrize("s", [(0, 1, 2, 3), (2, 0, 0, 0), (0, 0, 0, 3), (1, 1, 1, 0), (3, 2, 1, 0)])
def test_moment_orders_0_to_3_equal_pow_product(s):
    values = batch((0.5, 1, 2, 3), 100_000, 115)
    target = DirichletParams((0.5, 1, 2, 3))
    assert moment_ztest(values, target, s) == pow_moment_ztest(values, target, s)


@pytest.mark.parametrize("seed", [7, 11, 12345678901234567])
def test_permutation_labels_equal_stacked_permutations(seed):
    base = np.zeros((2 * stattest.ENERGY_SUBSAMPLE))
    base[:(2 * stattest.ENERGY_SUBSAMPLE) // 2] = 1.0
    expected = stacked_permutation_labels((2 * stattest.ENERGY_SUBSAMPLE) // 2,
                                          (2 * stattest.ENERGY_SUBSAMPLE) - (2 * stattest.ENERGY_SUBSAMPLE) // 2, seed)
    assert np.array_equal(stattest._permutation_labels(base, seed), expected)


@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_permutation_labels_equal_stacked_permutations_any_sizes(ma, mb, seed):
    base = np.zeros(ma + mb)
    base[:ma] = 1.0
    assert np.array_equal(stattest._permutation_labels(base, seed),
                          stacked_permutation_labels(ma, mb, seed))


def test_permutation_labels_are_the_shuffled_block_in_blas_layout(monkeypatch):
    # the labels reach BLAS as the transposed view of the shuffled block: no copy
    shuffled = []
    default_rng = np.random.default_rng

    class RecordingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def permuted(self, x, axis, out):
            shuffled.append(out)
            return self.rng.permuted(x, axis=axis, out=out)

    monkeypatch.setattr(np.random, "default_rng", RecordingRng)
    base = np.zeros(2 * ENERGY_SUBSAMPLE)
    base[:ENERGY_SUBSAMPLE] = 1.0
    labels = stattest._permutation_labels(base, 7)
    assert labels.shape == (base.size, ENERGY_PERMUTATIONS)
    assert labels.flags.f_contiguous
    assert len(shuffled) == 1 and np.shares_memory(labels, shuffled[0])


@st.composite
def energy_batches(draw):
    k = draw(st.integers(2, 4))
    sizes = st.integers(1, 300)
    ma, mb = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.dirichlet(draw(st.lists(concentration, min_size=k, max_size=k)), ma)
    b = rng.dirichlet(draw(st.lists(concentration, min_size=k, max_size=k)), mb)
    return a, b, draw(st.integers(0, 2**64 - 1))


@given(energy_batches())
@settings(max_examples=60, deadline=None)
def test_energy_record_equals_gemm_any_sizes(batches):
    a, b, seed = batches
    observed, stats = stattest._energy_statistics(a, b, seed)
    ref_observed, ref_stats = gemm_energy_statistics(a, b, seed)
    bound = energy_rounding_bound(a, b)
    assert observed == ref_observed
    assert np.all(np.abs(stats - ref_stats) <= bound)
    record, ref = energy_two_sample(a, b, seed), gemm_energy_two_sample(a, b, seed)
    # Permutations that repeat the observed partition (frequent at a few
    # rows) equal the observed statistic up to rounding, and the rounding of
    # either product decides which side of it they fall on.
    ties = int(np.sum(np.abs(ref_stats - ref_observed) <= bound))
    if ties == 0:
        assert record == ref
    else:
        flipped = abs(record["permutation_p"] - ref["permutation_p"]) * (ENERGY_PERMUTATIONS + 1)
        assert round(flipped) <= ties
        assert {**record, "permutation_p": None, "pass": None} == {
            **ref, "permutation_p": None, "pass": None}


@pytest.mark.parametrize("change", ["identical", "one-row"])
def test_energy_record_equals_gemm_near_identical_inputs(change):
    a = batch((2, 3, 5), 5_000, 116)
    b = a.copy()
    if change == "one-row":
        b[1234] = (0.2, 0.3, 0.5)
    record = energy_two_sample(a, b, seed=9)
    assert record == gemm_energy_two_sample(a, b, seed=9)
    assert (record["statistic"] == 0.0) == (change == "identical")


@pytest.mark.parametrize("shift", [False, True])
def test_energy_full_subsample_equals_gemm(shift):
    a = batch((1, 2, 3), 200_000, 117, stream=0)
    b = batch((1.2, 2, 3) if shift else (1, 2, 3), 200_000, 117, stream=1)
    observed, stats = stattest._energy_statistics(a, b, 13)
    ref_observed, ref_stats = gemm_energy_statistics(a, b, 13)
    assert observed == ref_observed
    # The statistic cancels means of distances about a thousandfold, so the
    # two sums agree relative to the mean pooled distance, not to each value.
    ma, mb, total = pooled_distances(a, b)
    mean_distance = total / (ma + mb) ** 2
    np.testing.assert_allclose(stats, ref_stats, rtol=0, atol=1e-12 * mean_distance)
    record = energy_two_sample(a, b, seed=13)
    assert record == gemm_energy_two_sample(a, b, seed=13)
    assert (record["permutation_p"] == 1 / (ENERGY_PERMUTATIONS + 1)) == shift


# below one block, one block and one row either side, two blocks and a row,
# and the full pooled subsample
@pytest.mark.parametrize("n", [ENERGY_BLOCK_ROWS - 1, ENERGY_BLOCK_ROWS, ENERGY_BLOCK_ROWS + 1,
                               2 * ENERGY_BLOCK_ROWS + 1, 2 * ENERGY_SUBSAMPLE])
def test_energy_blocks_equal_gemm_around_block_boundaries(n):
    a = batch((1, 2, 3), (n + 1) // 2, 118, stream=0)
    b = batch((1.1, 2, 3), n // 2, 118, stream=1)
    observed, stats = stattest._energy_statistics(a, b, 19)
    ref_observed, ref_stats = gemm_energy_statistics(a, b, 19)
    bound = energy_rounding_bound(a, b)
    assert observed == ref_observed
    assert np.all(np.abs(stats - ref_stats) <= bound)
    assert not np.any(np.abs(ref_stats - ref_observed) <= bound)  # no ties
    assert energy_two_sample(a, b, 19) == gemm_energy_two_sample(a, b, 19)


@pytest.mark.parametrize("ma, mb, seed", [(4, 1, 2), (3, 3, 0)])
def test_energy_counts_every_repeat_of_the_observed_partition(ma, mb, seed):
    # At a few rows, many shuffles repeat the observed partition (or, when
    # ma == mb, its mirror image) and have the observed statistic exactly;
    # on these seeds the rounding of a product put some of them below it.
    rng = np.random.default_rng(seed)
    a, b = rng.dirichlet((1, 2, 3), ma), rng.dirichlet((1, 2, 3), mb)
    labels = stacked_permutation_labels(ma, mb, seed)
    kept = labels[:ma].sum(axis=0)
    repeats = (kept == ma) | ((ma == mb) & (kept == 0))
    ref_observed, ref_stats = gemm_energy_statistics(a, b, seed)
    others = ref_stats[~repeats]
    assert repeats.any()
    assert not np.any(np.abs(others - ref_observed) <= energy_rounding_bound(a, b))
    count = np.sum(repeats) + np.sum(others > ref_observed)
    record = energy_two_sample(a, b, seed)
    assert record["permutation_p"] == (1 + count) / (ENERGY_PERMUTATIONS + 1)


def test_energy_statistics_never_hold_the_distance_matrix():
    # tracemalloc sees numpy's buffers; D of the full subsample alone would
    # take (2 * ENERGY_SUBSAMPLE)^2 doubles
    a = batch((1, 2, 3), ENERGY_SUBSAMPLE, 119, stream=0)
    b = batch((1, 2, 3), ENERGY_SUBSAMPLE, 119, stream=1)
    stattest._energy_statistics(a[:2], b[:2], 0)  # load scipy outside the trace
    tracemalloc.start()
    try:
        stattest._energy_statistics(a, b, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 * ENERGY_SUBSAMPLE) ** 2 * 8


def test_moment_and_ks_called_once_per_check(monkeypatch):
    # perfbench times these layers through the names the runner looks up
    calls = {"moment": 0, "ks": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(runner, "moment_ztest", counted("moment", runner.moment_ztest))
    monkeypatch.setattr(runner, "ks_marginal", counted("ks", runner.ks_marginal))
    params = {"alphas": [[1, 2, 3], [2, 1, 1], [1, 1, 2]], "n_samples": 2000}
    report = runner.run_scenario(ScenarioConfig("counts", "theorem", 5, params), "adhoc")
    # 19 indices of total order 1..3 in k = 3, and 3 marginals, on 2 replicates
    assert calls == {"moment": 38, "ks": 6}
    assert len(report["tests"]) == 38 + 6 + 1
