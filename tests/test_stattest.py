import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist, pdist
from scipy.special import betainc

from dirichlet_rwa import runner, stattest
from dirichlet_rwa.config import ScenarioConfig
from dirichlet_rwa.distributions import (DirichletParams, RngStream, dirichlet_mixed_moment,
                                         sample_dirichlet_batch)
from dirichlet_rwa.rwa import sample_rwa_direct_batch, theorem_scenario
from dirichlet_rwa.stattest import (ENERGY_BLOCK, ENERGY_LEVEL, KS_BLOCK, Z_THRESHOLD,
                                    energy_layout, energy_two_sample, ks_marginal, ks_threshold,
                                    moment_ztest)


def batch(alpha, n, seed, stream=0):
    return sample_dirichlet_batch(DirichletParams(alpha), n, RngStream(seed, stream).generator())


def energy_record(a, b):
    """The energy test of a against b, every block's statistic from one
    energy_block_statistics call on this thread."""
    rows, blocks = energy_layout(min(len(a), len(b)))
    return energy_two_sample(a, b, [stattest.energy_block_statistics(a, b, rows, 0, blocks)])


@pytest.mark.parametrize("compare, at_bound", [("<=", True), ("<", False), (">", False)])
def test_record_passes_iff_value_meets_bound(compare, at_bound):
    # a value at its bound passes only "<="; a NaN value fails every comparison
    assert stattest.check_record("k", 1.0, compare, 1.0, "p", 1)["pass"] is at_bound
    assert stattest.check_record("k", 2.0, compare, 1.0, "p", 1)["pass"] is (compare == ">")
    assert stattest.check_record("k", 0.5, compare, 1.0, "p", 1)["pass"] is (compare != ">")
    for bound in (-math.inf, 0.0, math.inf):
        assert stattest.check_record("k", math.nan, compare, bound, "p", 1)["pass"] is False


def test_moment_ztest_null_passes():
    b = batch((1, 1), 10**5, 101)
    r = moment_ztest(b, DirichletParams((1, 1)), (1, 0))
    assert r["pass"] and abs(r["z_score"]) <= 5


def test_moment_ztest_wrong_target_fails():
    b = batch((2, 2), 10**5, 102)
    r = moment_ztest(b, DirichletParams((1, 1)), (1, 1))
    assert not r["pass"] and abs(r["z_score"]) > 5


def test_moment_ztest_refuses_total_order_zero():
    # E[1] = 1 on both sides: a record of it would pass whatever the batch
    b = batch((1, 1), 100, 103)
    with pytest.raises(ValueError, match="total order 0"):
        moment_ztest(b, DirichletParams((1, 1)), (0, 0))


def test_moment_ztest_degenerate_batch():
    b = np.full((100, 2), 0.5)
    with pytest.raises(ValueError):
        moment_ztest(b, DirichletParams((1, 1)), (1, 0))


def test_ks_null_passes():
    b = batch((1, 1), 10**5, 104)
    r = ks_marginal(b, DirichletParams((1, 1)), 0)
    assert r["pass"]
    assert r["value"] < 3 / math.sqrt(b.shape[0])


def test_ks_wrong_target_fails():
    b = batch((1, 1), 10**5, 105)
    r = ks_marginal(b, DirichletParams((2, 2)), 0)
    assert not r["pass"]
    # CDF sup-distance between Uniform and Beta(2,2) is ~0.096
    assert r["value"] > 0.05


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
    assert r["value"] == pytest.approx(r2["value"], abs=1e-12)


def test_ks_threshold_scaling():
    assert ks_threshold(10**5) == pytest.approx(
        math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(10**5)
    )


def test_energy_same_law_passes():
    a = batch((2, 3, 5), 20_000, 108, stream=0)
    b = batch((2, 3, 5), 20_000, 108, stream=1)
    r = energy_record(a, b)
    assert r["pass"]
    assert 0 < r["value"] <= 1
    assert (r["block_rows"], r["size"]) == (ENERGY_BLOCK, 20_000 // ENERGY_BLOCK)


def test_energy_different_law_fails():
    a = batch((1, 1, 1), 20_000, 109, stream=0)
    b = batch((3, 1, 1), 20_000, 109, stream=1)
    r = energy_record(a, b)
    assert not r["pass"]


def test_energy_identical_arrays_pass():
    # every block pairs a row with itself, so the cross mean is below the
    # within means and the statistic is negative
    a = batch((2, 2), 5_000, 110)
    r = energy_record(a, a)
    assert r["statistic"] < 0 and r["pass"]


def test_energy_dimension_mismatch():
    a = batch((1, 1), 100, 111)
    b = batch((1, 1, 1), 100, 112)
    with pytest.raises(ValueError):
        energy_record(a, b)


def test_energy_needs_two_blocks_of_two_rows():
    a = batch((1, 1), 3, 113, stream=0)
    b = batch((1, 1), 100, 113, stream=1)
    with pytest.raises(ValueError, match="at least 4 rows"):
        energy_record(a, b)


def test_energy_degenerate_blocks_raise():
    # tiny concentrations put whole blocks on one vertex; equal block
    # statistics leave z undefined
    a = np.tile([1.0, 0.0], (5, 1))
    b = a.copy()
    b[4] = (0.0, 1.0)  # past the last block
    with pytest.raises(ValueError, match="degenerate"):
        energy_record(a, b)


def loop_block_statistics(a, b):
    """Reference: each block's energy statistic from explicit loops over its
    pairs of rows."""
    n = min(len(a), len(b))
    rows = min(ENERGY_BLOCK, n // 2)
    h = []
    for start in range(0, n - rows + 1, rows):
        x, y = a[start:start + rows], b[start:start + rows]
        cross = sum(math.dist(u, v) for u in x for v in y) / rows**2
        pairs = rows * (rows - 1) / 2
        within_x = sum(math.dist(x[i], x[j]) for i in range(rows) for j in range(i)) / pairs
        within_y = sum(math.dist(y[i], y[j]) for i in range(rows) for j in range(i)) / pairs
        h.append(2 * cross - within_x - within_y)
    return h


# two blocks of two rows; leftover rows; unequal sizes; two full blocks and a
# partial third.  Each size runs on k = 3 draws, whose distances come from
# cdist and pdist, and on k = 2 draws, whose distances come from the sorted
# first coordinates.
@pytest.mark.parametrize("ma, mb", [(4, 4), (7, 7), (9, 6), (40, 33),
                                    (2 * ENERGY_BLOCK + 113, 2 * ENERGY_BLOCK + 120)])
def test_energy_statistic_equals_explicit_loop(ma, mb):
    rng = np.random.default_rng(ma * 1000 + mb)
    for alpha_a, alpha_b in (((1, 2, 3), (1.5, 2, 3)), ((1, 2), (1.5, 2))):
        a, b = rng.dirichlet(alpha_a, ma), rng.dirichlet(alpha_b, mb)
        h = loop_block_statistics(a, b)
        r = energy_record(a, b)
        assert r["size"] == len(h) and r["block_rows"] == min(ENERGY_BLOCK, min(ma, mb) // 2)
        assert r["statistic"] == pytest.approx(sum(h) / len(h), rel=1e-12)
        z = np.mean(h) / (np.std(h, ddof=1) / math.sqrt(len(h)))
        assert r["z"] == pytest.approx(z, rel=1e-9)


def distance_block_statistics(a, b, rows, blocks):
    """Reference: each block's energy statistic from scipy's cdist and pdist,
    the k >= 3 expression of energy_block_statistics."""
    return np.array([2 * cdist(x, y).mean() - pdist(x).mean() - pdist(y).mean()
                     for x, y in ((a[i * rows:(i + 1) * rows], b[i * rows:(i + 1) * rows])
                                  for i in range(blocks))])


# sampler output, with many exact 0s and 1s at tiny concentrations; two
# blocks of two rows, the fewest the validator accepts
@pytest.mark.parametrize("alphas, n_samples", [
    pytest.param([[0.5, 0.5], [0.5, 0.5]], 10_000, id="half"),
    pytest.param([[1e-3, 1e-3], [1e-3, 1e-3]], 10_000, id="ties"),
    pytest.param([[1, 2], [3, 4]], 4, id="two-blocks-of-two")])
def test_energy_line_statistics_equal_distance_matrices(alphas, n_samples):
    scenario = theorem_scenario(alphas)
    a, b = (sample_rwa_direct_batch(scenario, n_samples, RngStream(29, i)) for i in (1, 2))
    rows, blocks = energy_layout(n_samples)
    h = stattest.energy_block_statistics(a, b, rows, 0, blocks)
    np.testing.assert_allclose(h, distance_block_statistics(a, b, rows, blocks),
                               rtol=0, atol=1e-14)


def test_energy_null_false_alarms_and_z_spread(monkeypatch):
    # 100 blocks of 10 rows per pair keep 200 pairs cheap; each block's
    # statistic has mean 0 under the null at any block length
    monkeypatch.setattr(stattest, "ENERGY_BLOCK", 10)
    records = [energy_record(batch((2, 3, 5), 1000, seed, stream=0),
                             batch((2, 3, 5), 1000, seed, stream=1))
               for seed in range(200)]
    assert {r["size"] for r in records} == {100}
    assert min(r["value"] for r in records) > ENERGY_LEVEL
    assert 0.8 <= np.std([r["z"] for r in records], ddof=1) <= 1.2


def test_energy_detects_a_small_shift_at_full_size():
    # one concentration 4% high
    a = batch((5, 7, 9), 200_000, 120, stream=0)
    b = batch((5.2, 7, 9), 200_000, 120, stream=1)
    r = energy_record(a, b)
    assert r["size"] == 200_000 // ENERGY_BLOCK
    assert not r["pass"] and r["z"] > 0


# References: the tests as they were computed before the CDF pruning and the
# pow-free orders.  The records of the library must equal theirs bit for bit.

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
    return {"kind": "ks", "value": stat, "compare": "<=", "bound": thr, "path": "direct",
            "size": n, "coordinate": coordinate, "pass": stat <= thr}


def multiplied_moment_ztest(values, target, s):
    """Reference: the moment record with each row's product taken by
    math.prod over its factors, column 1 s_1 times, then column 2 s_2 times,
    and so on; each step is one correctly rounded multiplication."""
    s = tuple(int(v) for v in s)
    if sum(s) == 0:
        raise ValueError("a moment of total order 0 is 1 on both sides and tests nothing")
    factors = [j for j, e in enumerate(s) for _ in range(e)]
    prod = np.array([math.prod(row) for row in values[:, factors].tolist()])
    emp = float(prod.mean())
    var = float(prod.var(ddof=1))
    if var <= 0:
        raise ValueError("degenerate batch: zero sample variance")
    se = math.sqrt(var / values.shape[0])
    exact = dirichlet_mixed_moment(target, s)
    z = (emp - exact) / se
    return {"kind": "moment", "value": abs(z), "compare": "<=", "bound": Z_THRESHOLD,
            "path": "direct", "size": values.shape[0], "index": list(s), "empirical": emp,
            "exact": exact, "std_error": se, "z_score": z, "pass": abs(z) <= Z_THRESHOLD}


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
            == record_or_error(multiplied_moment_ztest, values, target, s))


@pytest.mark.parametrize("s", [(0, 1, 2, 3), (2, 0, 0, 0), (0, 0, 0, 3), (1, 1, 1, 0), (3, 2, 1, 0)])
def test_moment_orders_0_to_3_equal_pow_product(s):
    values = batch((0.5, 1, 2, 3), 100_000, 115)
    target = DirichletParams((0.5, 1, 2, 3))
    assert moment_ztest(values, target, s) == multiplied_moment_ztest(values, target, s)


def test_moment_ztest_holds_one_array_of_the_batch_length():
    # the product is the only 1.6 MB array on 200k draws: the variance is
    # taken on it in place, with no deviation array beside it
    values = batch((1, 2, 3), 200_000, 116)
    target = DirichletParams((1, 2, 3))
    moment_ztest(values, target, (1, 1, 1))  # table and import caches
    tracemalloc.start()
    try:
        moment_ztest(values, target, (1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.shape[0] * 8, peak


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
