import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from dirichlet_rwa.distributions import (
    DirichletParams,
    RngStream,
    SIMPLEX_SUM_TOL,
    dirichlet_mixed_moment,
    sample_dirichlet_batch,
)

positive = st.floats(min_value=0.05, max_value=50, allow_nan=False)


def beta_raw_moment(a, b, order):
    """Reference E[X^order] for X ~ Beta(a, b), via log-gamma."""
    return float(np.exp(gammaln(a + order) - gammaln(a) + gammaln(a + b) - gammaln(a + b + order)))


def test_dirichlet_params_reject_k1_and_nonpositive():
    with pytest.raises(ValueError):
        DirichletParams((1.0,))
    with pytest.raises(ValueError):
        DirichletParams((1.0, 0.0))


@pytest.mark.parametrize("alpha", [(np.inf, 1.0), (np.nan, 1.0), (1e308, 1e308)])
def test_dirichlet_params_reject_non_finite(alpha):
    # the last sums to infinity, so its moments and mgf would not be finite
    with pytest.raises(ValueError, match="finite"):
        DirichletParams(alpha)


# When some concentration is >= 0.1 the Dirichlet sampler normalizes the
# stream's gamma draws; these three check those draws, including numpy's
# separate algorithm below shape 1.


def test_exponential_mean():
    x = RngStream(11, 0).generator().gamma(1.0, size=10**6)
    assert abs(x.mean() - 1.0) < 0.004


def test_gamma_moments_shape5_rate2():
    n = 10**6
    x = RngStream(12, 0).generator().gamma(5.0, size=n) / 2.0
    # mean 2.5, var 1.25; 5 CLT standard errors
    se_mean = math.sqrt(1.25 / n)
    assert abs(x.mean() - 2.5) < 5 * se_mean
    # var of the sample variance ~ (mu4 - var^2)/n; mu4 for gamma = var^2*(3+6/shape)
    se_var = math.sqrt(1.25**2 * (2 + 6 / 5) / n)
    assert abs(x.var(ddof=1) - 1.25) < 5 * se_var


def test_gamma_small_shape_branch():
    n = 10**6
    x = RngStream(13, 0).generator().gamma(0.5, size=n)
    se = math.sqrt(0.5 / n)
    assert abs(x.mean() - 0.5) < 5 * se


@pytest.mark.parametrize("alpha", [(1.0, 1.0), (2.0, 3.0, 5.0), (0.1, 0.05), (0.5, 0.02, 1.0)])
def test_sampler_matches_normalized_gammas(alpha):
    # Reference: the stream's gammas divided by their row sums, no retry.
    # numpy multiplies by the reciprocal of the sum instead, so rows may
    # differ in the last bit.
    n, rng = 20_000, RngStream(24, 0)
    y = rng.generator().gamma(alpha, size=(n, len(alpha)))
    x = sample_dirichlet_batch(DirichletParams(alpha), n, rng)
    np.testing.assert_array_max_ulp(x, y / y.sum(axis=1, keepdims=True), maxulp=1)


def test_all_small_alphas_sample_the_simplex():
    # Every concentration below 0.1: numpy breaks the stick with Beta draws.
    n = 10**5
    x = sample_dirichlet_batch(DirichletParams((0.05, 0.05)), n, RngStream(25, 0))
    assert np.all(x >= 0) and not np.isnan(x).any()
    assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= SIMPLEX_SUM_TOL
    se = x[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(x[:, 0].mean() - 0.5) < 5 * se


def test_dirichlet_uniform_marginal_ks():
    n = 10**5
    x = sample_dirichlet_batch(DirichletParams((1, 1)), n, RngStream(21, 0))
    u = np.sort(x[:, 0])
    grid = np.arange(1, n + 1) / n
    stat = max(np.max(grid - u), np.max(u - grid + 1.0 / n))
    assert stat < 0.006


def test_dirichlet_arcsine_moments():
    n = 10**5
    x = sample_dirichlet_batch(DirichletParams((0.5, 0.5)), n, RngStream(22, 0))[:, 0]
    for order, exact in ((1, 0.5), (2, 0.375)):
        v = x**order
        se = v.std(ddof=1) / math.sqrt(n)
        assert abs(v.mean() - exact) < 5 * se


def test_dirichlet_mean_vector():
    n = 2 * 10**5
    x = sample_dirichlet_batch(DirichletParams((2, 3, 5)), n, RngStream(23, 0))
    for c, exact in enumerate((0.2, 0.3, 0.5)):
        se = x[:, c].std(ddof=1) / math.sqrt(n)
        assert abs(x[:, c].mean() - exact) < 5 * se


def test_simplex_invariants_bulk():
    # 50 random parameter vectors x 20k draws = 1e6 simplex points
    rng = np.random.default_rng(7)
    for i in range(50):
        k = int(rng.integers(2, 6))
        alpha = rng.uniform(0.2, 8.0, size=k)
        x = sample_dirichlet_batch(DirichletParams(alpha), 20_000, RngStream(30, i))
        assert np.all(x >= 0)
        assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= SIMPLEX_SUM_TOL


def test_normalized_gamma_consistency_and_rate_invariance():
    n = 2 * 10**5
    alpha = np.array([1.5, 2.0, 0.7])
    p = DirichletParams(alpha)
    means = {}
    for rate in (1.0, 7.0):
        g = RngStream(31, int(rate)).generator()
        y = g.gamma(alpha, size=(n, 3)) / rate
        x = y / y.sum(axis=1, keepdims=True)
        means[rate] = x.mean(axis=0)
        # mixed moments up to order 3 vs the exact values
        for s in [(1, 0, 0), (0, 2, 0), (1, 1, 0), (1, 1, 1), (3, 0, 0)]:
            v = np.prod(x ** np.asarray(s), axis=1)
            se = v.std(ddof=1) / math.sqrt(n)
            assert abs(v.mean() - dirichlet_mixed_moment(p, s)) < 5 * se
    se = math.sqrt(2.0) * 0.5 / math.sqrt(n)  # crude combined bound
    assert np.all(np.abs(means[1.0] - means[7.0]) < 5 * se)


@given(st.lists(positive, min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_zero_exponent_moment_is_one(alpha):
    p = DirichletParams(alpha)
    assert dirichlet_mixed_moment(p, [0] * p.k) == 1.0


@given(st.lists(positive, min_size=2, max_size=5), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_marginal_moment_matches_beta(alpha, order):
    p = DirichletParams(alpha)
    s = [0] * p.k
    s[0] = order
    lhs = dirichlet_mixed_moment(p, s)
    rhs = beta_raw_moment(p.alpha[0], p.total - p.alpha[0], order)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stream_independence_smoke():
    n = 10**5
    a = RngStream(99, 0).generator().standard_normal(n)
    b = RngStream(99, 1).generator().standard_normal(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 5 / math.sqrt(n)


def test_stream_children_distinct():
    s = RngStream(4, 2)
    assert s.child(0) != s.child(1)
    assert s.child(0).seed == s.seed
