import math

import numpy as np
import pytest

from dirichlet_rwa.distributions import DirichletParams, RngStream, sample_dirichlet_batch
from dirichlet_rwa.stattest import (ENERGY_PERMUTATIONS, energy_two_sample, ks_marginal,
                                    ks_threshold, moment_ztest)


def batch(alpha, n, seed, stream=0):
    return sample_dirichlet_batch(DirichletParams(alpha), n, RngStream(seed, stream))


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
