import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_rwa.distributions import (
    DirichletParams,
    RngStream,
    dirichlet_mixed_moment,
    sample_dirichlet_batch,
)
from dirichlet_rwa import rwa
from dirichlet_rwa.moments import MomentIndex, rwa_moment_expansion
from dirichlet_rwa.runner import resolve_variant_reading, sample_rwa_gamma_path_batch
from dirichlet_rwa.rwa import (
    WeightedAverageScenario,
    sample_rwa_direct_batch,
    theorem_scenario,
    variant_scenario,
)

VAN_ASSCHE = [[0.5, 0.5], [0.5, 0.5]]
# the 8 x 4 shape of the sample export, entries in [1, 4]
EXPORT_ALPHAS = np.random.default_rng(7).uniform(1.0, 4.0, size=(8, 4))
B = rwa.SAMPLE_BLOCK_ROWS

positive = st.floats(min_value=0.1, max_value=20, allow_nan=False)


def matrix_strategy(max_n=4, max_k=4):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(2, max_k).flatmap(
            lambda k: st.lists(
                st.lists(positive, min_size=k, max_size=k), min_size=n, max_size=n
            )
        )
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        theorem_scenario([[1, 2]])  # n = 1
    with pytest.raises(ValueError):
        theorem_scenario([[1], [2]])  # k = 1
    with pytest.raises(ValueError):
        theorem_scenario([[1, -1], [1, 1]])
    with pytest.raises(ValueError):
        theorem_scenario([1, 2, 3])  # not a matrix


# A zero, a negative, an infinite and a NaN entry, and finite entries whose
# sum overflows: none is a concentration vector, whichever builder takes it.
BAD_CONCENTRATIONS = {"zero": (0.0, 1.0), "negative": (-1.0, 1.0), "infinite": (math.inf, 1.0),
                      "nan": (math.nan, 1.0), "sum-overflows": (1e308, 1e308)}
CONCENTRATION_BUILDERS = {
    "dirichlet": DirichletParams,
    "weights": lambda v: WeightedAverageScenario(v, ((1, 1), (1, 1)), (2, 2)),
    "row": lambda v: WeightedAverageScenario((2, 2), (v, (1, 1)), (2, 2)),
    "target": lambda v: WeightedAverageScenario((2, 2), ((1, 1), (1, 1)), v),
    "theorem": lambda v: theorem_scenario((v, v)),
    "variant": variant_scenario,
}


@pytest.mark.parametrize("build", CONCENTRATION_BUILDERS.values(), ids=CONCENTRATION_BUILDERS)
@pytest.mark.parametrize("alpha", BAD_CONCENTRATIONS.values(), ids=BAD_CONCENTRATIONS)
def test_one_concentration_rule(build, alpha):
    # a sum that overflows is refused without a numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and > 0 with a finite sum"):
            build(alpha)


@pytest.mark.parametrize("w_alpha, x_alphas, target_alpha", [
    ((1, 1), (1, 1), (1, 1)),  # x_alphas not a matrix
    ((1, 1), (((1, 1), (1, 1)), ((1, 1), (1, 1))), (1, 1)),  # nor this
    ((1, 1, 1), ((1, 1), (1, 1)), (1, 1)),  # one weight too many
    ((1, 1), ((1, 1), (1, 1, 1)), (1, 1)),  # ragged rows
    ((1, 1), ((1, 1), (1, 1)), (1, 1, 1)),  # target of the wrong length
    ((1, 1), (), (1, 1)),  # no rows
    (1.0, ((1, 1),), (1, 1)),  # a number for the weights
])
def test_malformed_scenario_raises_value_error(w_alpha, x_alphas, target_alpha):
    with pytest.raises(ValueError):
        WeightedAverageScenario(w_alpha, x_alphas, target_alpha)


def test_weight_params_examples():
    # the weight concentrations are the row sums
    assert theorem_scenario(VAN_ASSCHE).w_alpha == (1.0, 1.0)
    assert theorem_scenario([[2, 2], [2, 2]]).w_alpha == (4.0, 4.0)
    assert theorem_scenario([[1, 2, 3], [4, 5, 6]]).w_alpha == (6.0, 15.0)


def test_target_params_examples():
    # the claimed law of z is Dirichlet of the column sums
    assert theorem_scenario(VAN_ASSCHE).target_alpha == (1.0, 1.0)
    assert theorem_scenario([[1, 2, 3], [4, 5, 6]]).target_alpha == (5.0, 7.0, 9.0)
    # identical rows (alpha,...,alpha), n = k: target is (n*alpha,...)
    assert theorem_scenario(np.full((3, 3), 2.0)).target_alpha == (6.0, 6.0, 6.0)


@given(matrix_strategy())
@settings(max_examples=50, deadline=None)
def test_permutation_equivariance(alphas):
    a = np.asarray(alphas)
    base = np.asarray(theorem_scenario(a).target_alpha)
    # row permutation leaves target unchanged (up to summation-order rounding)
    reordered = np.asarray(theorem_scenario(a[::-1]).target_alpha)
    np.testing.assert_allclose(reordered, base, rtol=1e-13, atol=0)
    # column permutation permutes the target identically, exactly
    perm = np.arange(a.shape[1])[::-1]
    permuted = np.asarray(theorem_scenario(a[:, perm]).target_alpha)
    assert permuted.tolist() == base[perm].tolist()


def test_single_draw_recombines():
    # the weights come from substream 0 and row j from substream 1 + j
    sc = theorem_scenario([[1, 2], [3, 4]])
    rng = RngStream(42, 0)
    z = sample_rwa_direct_batch(sc, 1, rng)[0]
    w = sample_dirichlet_batch(DirichletParams(sc.w_alpha), 1, rng.child(0).generator())[0]
    xs = [
        sample_dirichlet_batch(DirichletParams(row), 1, rng.child(1 + j).generator())[0]
        for j, row in enumerate(sc.x_alphas)
    ]
    recombined = sum(wj * xj for wj, xj in zip(w, xs))
    assert np.max(np.abs(z - recombined)) <= 1e-10


def einsum_sample_batch(sc, n_samples, rng):
    """Reference: the sampler as it was before z was accumulated in place,
    block by block: each substream drawn in one call, all x_j held in one
    (n_samples, n, k) tensor and summed by einsum."""
    w = sample_dirichlet_batch(DirichletParams(sc.w_alpha), n_samples, rng.child(0).generator())
    x_alphas = np.asarray(sc.x_alphas)
    xs = np.empty((n_samples, sc.n, sc.k))
    for j in range(sc.n):
        xs[:, j, :] = sample_dirichlet_batch(
            DirichletParams(x_alphas[j]), n_samples, rng.child(1 + j).generator()
        )
    return np.einsum("ij,ijk->ik", w, xs)


def assert_sampler_matches_einsum(alphas, n_samples, seed):
    sc = theorem_scenario(alphas)
    z = sample_rwa_direct_batch(sc, n_samples, RngStream(seed, 1))
    ref = einsum_sample_batch(sc, n_samples, RngStream(seed, 1))
    assert z.shape == ref.shape == (n_samples, sc.k)
    assert np.array_equal(z, ref)


@given(matrix_strategy(max_n=5, max_k=5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_in_place_sum_is_bitwise_the_einsum(alphas, seed):
    assert_sampler_matches_einsum(alphas, 1000, seed)


def test_in_place_sum_is_bitwise_the_einsum_export_shape():
    assert_sampler_matches_einsum(EXPORT_ALPHAS, 100_000, 7)


def test_in_place_sum_is_bitwise_the_einsum_stick_breaking():
    # every concentration below 0.1: numpy breaks the stick with Beta draws,
    # here over three blocks, the last of one row
    assert_sampler_matches_einsum(np.full((3, 3), 1e-3), 2 * B + 1, 1)


@pytest.mark.parametrize("n_samples", [B - 1, B, B + 1, 2 * B + 1],
                         ids=["block-1", "block", "block+1", "2block+1"])
def test_blocked_sum_is_bitwise_the_einsum_around_blocks(n_samples):
    # up to one block is drawn on a one-thread pool, more on the full pool;
    # a last block of one row must continue every substream where it stopped
    assert_sampler_matches_einsum(EXPORT_ALPHAS, n_samples, 7)


@pytest.mark.parametrize("cpus", [1, 2, 8, 16])
def test_blocked_sum_independent_of_cpu_count(cpus, monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(rwa.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(rwa, "ThreadPoolExecutor", RecordingPool)
    sc = theorem_scenario(EXPORT_ALPHAS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so a shared generator would show
    try:
        z = sample_rwa_direct_batch(sc, 3 * B + 5, RngStream(4242, 1))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(z, einsum_sample_batch(sc, 3 * B + 5, RngStream(4242, 1)))
    # one thread per CPU, at most one per substream; one CPU, one thread
    assert pools == [min(cpus, 1 + sc.n)]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_pipelined_draws_keep_each_substream_in_block_order(cpus, monkeypatch):
    # One log of events, in the order they happen: a draw's start and end on
    # a substream's generator, a submission to the pool and a call of on_rows.
    log = []

    def logged_draw(params, rows, gen):
        log.append(("start", gen, rows))
        try:
            return sample_dirichlet_batch(params, rows, gen)
        finally:
            log.append(("end", gen, rows))

    class LoggingPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            log.append(("submit",))
            return super().submit(fn, *args)

    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    monkeypatch.setattr(rwa, "sample_dirichlet_batch", logged_draw)
    monkeypatch.setattr(rwa, "ThreadPoolExecutor", LoggingPool)
    sc = theorem_scenario(EXPORT_ALPHAS)
    n_samples, streams, blocks = 4 * B + 5, 1 + sc.n, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so an overlap would show
    try:
        z = sample_rwa_direct_batch(sc, n_samples, RngStream(4242, 1),
                                    on_rows=lambda z, stop: log.append(("rows", stop)))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(z, einsum_sample_batch(sc, n_samples, RngStream(4242, 1)))
    gens = {event[1] for event in log if event[0] == "start"}
    assert len(gens) == streams
    for gen in gens:
        # one task at a time, each block's rows in turn
        events = [(event[0], event[2]) for event in log if len(event) == 3 and event[1] is gen]
        assert events == [(edge, rows) for rows in (B, B, B, B, 5) for edge in ("start", "end")]
    rows_at = [i for i, event in enumerate(log) if event[0] == "rows"]
    assert [log[i][1] for i in rows_at] == [B, 2 * B, 3 * B, 4 * B, n_samples]
    submits = [i for i, event in enumerate(log) if event[0] == "submit"]
    assert len(submits) == blocks * streams
    for b, at in enumerate(rows_at):
        # block b + 2 is queued before block b goes to on_rows, on any
        # number of CPUs, and no block after it
        assert sum(i < at for i in submits) == min(b + 3, blocks) * streams
    # a block is alive from its submission until on_rows has its rows: at
    # any time at most three per substream, counted by the submissions and
    # by each generator's draws
    queued, started, handed = 0, dict.fromkeys(gens, 0), 0
    for event in log:
        queued += event[0] == "submit"
        if event[0] == "start":
            started[event[1]] += 1
        handed += event[0] == "rows"
        assert queued - streams * handed <= 3 * streams
        assert max(started.values()) - handed <= 3


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_failed_draw_raises_and_leaves_no_thread(cpus, monkeypatch):
    # A draw that raises on one substream's third block, while later blocks
    # of every substream are queued behind it: the sampler raises that error,
    # the draws queued behind it on that substream raise it too, and every
    # pool thread ends.
    sc = theorem_scenario(EXPORT_ALPHAS)
    failing = DirichletParams(sc.x_alphas[2])  # row 2's summand, on substream 3
    calls = []

    def failing_draw(params, rows, gen):
        if params == failing:
            calls.append(rows)
            if len(calls) == 3:
                raise ValueError("draw failed")
        return sample_dirichlet_batch(params, rows, gen)

    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    monkeypatch.setattr(rwa, "sample_dirichlet_batch", failing_draw)
    threads = threading.active_count()
    errors = []

    def sample():
        try:
            sample_rwa_direct_batch(sc, 6 * B, RngStream(4242, 1))
        except ValueError as e:
            errors.append(e)

    sampler = threading.Thread(target=sample)
    sampler.start()
    sampler.join(timeout=60)
    assert not sampler.is_alive()
    assert [str(e) for e in errors] == ["draw failed"]
    assert len(calls) == 3  # the blocks queued behind the third never draw
    assert threading.active_count() == threads


def test_one_block_is_drawn_on_one_thread(monkeypatch):
    # A batch of at most one block has nothing to draw ahead: one thread
    # draws its substreams one after another, so no two draws overlap.
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(rwa, "_cpus", lambda: 16)
    monkeypatch.setattr(rwa, "ThreadPoolExecutor", RecordingPool)
    sc = theorem_scenario(EXPORT_ALPHAS)
    for n_samples in (1, 1000, B):
        z = sample_rwa_direct_batch(sc, n_samples, RngStream(7, 1))
        assert np.array_equal(z, einsum_sample_batch(sc, n_samples, RngStream(7, 1)))
    assert pools == [1, 1, 1]


def test_batch_on_simplex():
    z = sample_rwa_direct_batch(theorem_scenario([[1, 2, 3], [4, 5, 6]]), 5000, RngStream(1, 0))
    assert np.all(z >= 0)
    assert np.max(np.abs(z.sum(axis=1) - 1.0)) < 1e-10


def test_direct_path_mean_asymmetric():
    n = 2 * 10**5
    z = sample_rwa_direct_batch(theorem_scenario([[1, 2, 3], [4, 5, 6]]), n, RngStream(2, 0))
    for c, exact in enumerate((5 / 21, 7 / 21, 9 / 21)):
        se = z[:, c].std(ddof=1) / math.sqrt(n)
        assert abs(z[:, c].mean() - exact) < 5 * se


def test_gamma_path_mean():
    # the battery's second replicate: the same sampler under its second name
    assert sample_rwa_gamma_path_batch is sample_rwa_direct_batch
    n = 2 * 10**5
    z = sample_rwa_gamma_path_batch(theorem_scenario([[1, 2], [3, 4]]), n, RngStream(3, 0))
    se = z[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(z[:, 0].mean() - 0.4) < 5 * se
    z2 = sample_rwa_gamma_path_batch(theorem_scenario([[2, 2], [2, 2]]), n, RngStream(4, 0))
    se = z2[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(z2[:, 0].mean() - 0.5) < 5 * se


def test_path_equivalence_moments_van_assche():
    n = 2 * 10**5
    # two replicates of the one sampler on distinct streams
    sc = theorem_scenario(VAN_ASSCHE)
    za = sample_rwa_direct_batch(sc, n, RngStream(5, 0))
    zb = sample_rwa_gamma_path_batch(sc, n, RngStream(5, 1))
    target = DirichletParams(sc.target_alpha)
    for s in [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1)]:
        va = np.prod(za ** np.asarray(s), axis=1)
        vb = np.prod(zb ** np.asarray(s), axis=1)
        combined_se = math.sqrt(va.var(ddof=1) / n + vb.var(ddof=1) / n)
        assert abs(va.mean() - vb.mean()) < 5 * combined_se
        # both agree with the exact target moment
        exact = dirichlet_mixed_moment(target, s)
        assert abs(va.mean() - exact) < 5 * math.sqrt(va.var(ddof=1) / n)


def test_van_assche_marginals_uniform_ks():
    n = 2 * 10**5
    z = sample_rwa_direct_batch(theorem_scenario(VAN_ASSCHE), n, RngStream(6, 0))
    grid = np.arange(1, n + 1) / n
    for c in range(2):
        u = np.sort(z[:, c])
        stat = max(np.max(grid - u), np.max(u - grid + 1.0 / n))
        assert stat < 0.005


def test_variant_scenario_plumbing():
    sc = variant_scenario((1.0, 1.0))
    assert sc.w_alpha == (1.0, 1.0)
    assert sc.x_alphas == ((1.5, 1.5), (1.5, 1.5))
    sc = variant_scenario((0.5, 0.5))
    assert sc.w_alpha == (0.5, 0.5)
    with pytest.raises(ValueError):
        variant_scenario((1.0,))


def test_variant_reading_resolution(monkeypatch):
    # the symmetric expansion of the scalar notation is the one that
    # reproduces the claimed target moments; n=3 case gives target 6.5 each
    assert resolve_variant_reading((1.0, 2.0, 3.0))["reading"] == "symmetric"
    sc = variant_scenario((1.0, 2.0, 3.0))
    assert sc.target_alpha == (6.5, 6.5)
    assert resolve_variant_reading((0.7, 1.3))["reading"] == "symmetric"
    # the target moment must not cancel, nor the expansion overflow, at
    # large concentrations
    for scale in (1e6, 1e12, 1e200):
        assert resolve_variant_reading((scale, 2 * scale))["reading"] == "symmetric"
    # a NaN expansion must not read as a match
    monkeypatch.setattr("dirichlet_rwa.runner.rwa_moment_expansion",
                        lambda sc, s, top=0: float("nan"))
    assert resolve_variant_reading((1.0, 2.0))["reading"] is None


def test_variant_asymmetric_reading_fails_oracle():
    # the other reading of the scalar notation 1/2 + alpha_j at alpha = (1, 2):
    # x_j ~ Dirichlet(1/2 + alpha_j, 1/2), whose row sums are not the weights
    sc = WeightedAverageScenario((1.0, 2.0), [(1.5, 0.5), (2.5, 0.5)], (3.5, 0.5))
    target = DirichletParams(sc.target_alpha)
    lhs = rwa_moment_expansion(sc, MomentIndex((2, 0)))
    rhs = dirichlet_mixed_moment(target, (2, 0))
    assert abs(lhs - rhs) > 1e-6
