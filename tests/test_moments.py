import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_rwa.distributions import DirichletParams, dirichlet_mixed_moment
from dirichlet_rwa.moments import (
    DirMultParams,
    MomentIndex,
    OrderCapExceeded,
    compositions,
    dirmult_log_pmf_batch,
    dirmult_normalization_check,
    kerov_tsilevich_check,
    rwa_moment_closed_form,
    rwa_moment_expansion,
)
from dirichlet_rwa.rwa import theorem_scenario, variant_scenario

VAN_ASSCHE = theorem_scenario([[0.5, 0.5], [0.5, 0.5]])

entry = st.sampled_from([0.5, 1.0, 2.0, 3.5])


def test_moment_index_cap():
    MomentIndex((4, 4))
    with pytest.raises(OrderCapExceeded):
        MomentIndex((5, 4))
    with pytest.raises(ValueError):
        MomentIndex((-1, 0))


@given(st.integers(0, 6), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_composition_count(total, parts):
    comps = list(compositions(total, parts))
    assert len(comps) == math.comb(total + parts - 1, parts - 1)
    assert all(len(c) == parts and min(c) >= 0 and sum(c) == total for c in comps)
    assert comps == sorted(comps)  # lexicographic, hence also no duplicates
    assert len(set(comps)) == len(comps)


def _reference_compositions(total, parts):
    # the recursive definition: first part, then every composition of the rest
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _reference_compositions(total - first, parts - 1)
    ]


@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
def test_compositions_match_recursive_definition(parts):
    for total in range(7):
        assert list(compositions(total, parts)) == _reference_compositions(total, parts)


def _dirichlet_log_moment(alpha, s):
    a = sum(alpha)
    out = math.lgamma(a) - math.lgamma(a + sum(s))
    for ai, si in zip(alpha, s):
        out += math.lgamma(ai + si) - math.lgamma(ai)
    return out


def _log_multinomial(total, parts):
    return math.lgamma(total + 1) - sum(math.lgamma(h + 1) for h in parts)


def _enumerated_moment(sc, s):
    """Reference: E[prod_j z_j^{s_j}] summed term by term over composition
    tables, one composition of s_j into n parts per coordinate j."""
    columns = [_reference_compositions(sj, sc.n) for sj in s]
    terms = []
    for cols in itertools.product(*columns):
        h = np.asarray(cols, dtype=float).T  # (n, k): h[i, j]
        log_term = sum(_log_multinomial(sj, col) for sj, col in zip(s, cols))
        log_term += _dirichlet_log_moment(sc.w_alpha, h.sum(axis=1))
        for i in range(sc.n):
            log_term += _dirichlet_log_moment(sc.x_alphas[i], h[i])
        terms.append(math.exp(log_term))
    return math.fsum(terms)


@given(st.integers(2, 3), st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_generating_function_matches_enumeration(n, k, data):
    mat = data.draw(
        st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)
    )
    s = tuple(
        data.draw(
            st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(
                lambda v: sum(v) <= 5
            )
        )
    )
    sc = theorem_scenario(mat)
    want = _enumerated_moment(sc, s)
    assert rwa_moment_expansion(sc, MomentIndex(s)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("reading", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("alpha", [(1.0, 2.0), (0.5, 1.5, 3.0), (2.0, 2.0, 0.25)])
def test_generating_function_matches_enumeration_on_variant(alpha, reading):
    # weight concentrations differ from the row sums of x here
    sc = variant_scenario(alpha, reading)
    for total in range(6):
        for s in compositions(total, sc.k):
            want = _enumerated_moment(sc, s)
            got = rwa_moment_expansion(sc, MomentIndex(s))
            assert got == pytest.approx(want, rel=1e-12)


def test_expansion_examples():
    assert rwa_moment_expansion(VAN_ASSCHE, MomentIndex((1, 0))) == pytest.approx(0.5)
    assert rwa_moment_expansion(VAN_ASSCHE, MomentIndex((1, 1))) == pytest.approx(
        1 / 6, abs=1e-12
    )
    sc = theorem_scenario([[1, 2], [3, 4]])
    lhs = rwa_moment_expansion(sc, MomentIndex((2, 1)))
    rhs = dirichlet_mixed_moment(DirichletParams((4, 6)), (2, 1))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_closed_form_examples():
    assert rwa_moment_closed_form(VAN_ASSCHE, MomentIndex((0, 0))) == 1.0
    assert rwa_moment_closed_form(VAN_ASSCHE, MomentIndex((2, 0))) == pytest.approx(
        1 / 3, rel=1e-12
    )
    sc = theorem_scenario([[1, 2, 3], [4, 5, 6]])
    assert rwa_moment_closed_form(sc, MomentIndex((1, 0, 0))) == pytest.approx(
        5 / 21, rel=1e-12
    )


def test_weight_moment_examples():
    # moments of the weight Dirichlet, whose concentrations are the row sums
    def weight_moment(sc, h):
        return dirichlet_mixed_moment(DirichletParams(sc.w_alpha), h)

    sc = theorem_scenario([[1, 2], [3, 4]])
    assert weight_moment(sc, (0, 0)) == 1.0
    assert weight_moment(sc, (1, 1)) == pytest.approx(21 / 110, rel=1e-12)
    assert weight_moment(VAN_ASSCHE, (1, 0)) == pytest.approx(0.5)


@given(
    st.integers(2, 3),
    st.integers(2, 3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_expansion_equals_closed_form(n, k, data):
    mat = data.draw(
        st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n)
    )
    s = data.draw(
        st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(
            lambda v: 1 <= sum(v) <= 5
        )
    )
    sc = theorem_scenario(mat)
    a = rwa_moment_expansion(sc, MomentIndex(tuple(s)))
    b = rwa_moment_closed_form(sc, MomentIndex(tuple(s)))
    assert abs(a - b) / b < 1e-9


def test_moment_monotonicity_in_order():
    sc = theorem_scenario([[0.5, 2.0], [1.0, 3.5]])
    prev = rwa_moment_closed_form(sc, MomentIndex((0, 0)))
    for s1 in range(1, 5):
        cur = rwa_moment_closed_form(sc, MomentIndex((s1, 1)))
        assert cur < prev
        prev = cur


def test_weighted_average_moment_dimension_mismatch():
    with pytest.raises(ValueError):
        rwa_moment_expansion(VAN_ASSCHE, MomentIndex((1, 0, 0)))


def test_dirmult_pmf_examples():
    def pmf(alpha, trials, counts):
        p = DirMultParams(DirichletParams(alpha), trials)
        return float(np.exp(dirmult_log_pmf_batch(p, np.asarray([counts]))[0]))

    assert pmf((1, 1), 1, (1, 0)) == pytest.approx(0.5)
    assert pmf((1, 1), 2, (1, 1)) == pytest.approx(1 / 3)
    assert pmf((2, 3), 0, (0, 0)) == pytest.approx(1.0)


def test_dirmult_normalization_examples():
    for alpha, trials in [((1, 1), 5), ((0.5, 0.5, 0.5), 4), ((2, 3, 5), 8)]:
        total = dirmult_normalization_check(
            DirMultParams(DirichletParams(alpha), trials)
        )
        assert abs(total - 1.0) <= 1e-10


def test_dirmult_trials_cap():
    with pytest.raises(OrderCapExceeded):
        dirmult_normalization_check(DirMultParams(DirichletParams((1, 1)), 1000))


@pytest.mark.parametrize("alpha", [(0.5, 0.5), (1.0, 2.0)])
@pytest.mark.parametrize(
    "t", [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.25, -0.4), (0.0, 0.0)]
)
def test_kerov_tsilevich_identity(alpha, t):
    series, product, tail = kerov_tsilevich_check(alpha, t, order=12)
    assert abs(series - product) <= tail + 1e-6


def test_kerov_tsilevich_quadrature_cross_check():
    # independent oracle: numerically integrate (1 - t'x)^(-A) against the
    # Beta density for one case and compare with the closed-form product
    from scipy.integrate import quad
    from scipy.special import beta as beta_fn

    a1, a2 = 1.0, 2.0
    t = np.array([0.3, -0.2])
    A = a1 + a2

    def integrand(x):
        dens = x ** (a1 - 1) * (1 - x) ** (a2 - 1) / beta_fn(a1, a2)
        return dens * (1 - (t[0] * x + t[1] * (1 - x))) ** (-A)

    lhs, _ = quad(integrand, 0, 1, epsabs=1e-12)
    rhs = (1 - t[0]) ** (-a1) * (1 - t[1]) ** (-a2)
    assert lhs == pytest.approx(rhs, abs=1e-8)
