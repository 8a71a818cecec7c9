import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_rwa.distributions import DirichletParams, _log_rising_table, dirichlet_mixed_moment
from dirichlet_rwa.moments import (
    DEFAULT_ORDER_CAP,
    DirMultParams,
    MomentIndex,
    compositions,
    dirmult_normalization_check,
    kerov_tsilevich_check,
    rwa_moment_closed_form,
    rwa_moment_expansion,
)
from dirichlet_rwa import moments
from dirichlet_rwa.rwa import WeightedAverageScenario, theorem_scenario, variant_scenario

VAN_ASSCHE = theorem_scenario([[0.5, 0.5], [0.5, 0.5]])

entry = st.sampled_from([0.5, 1.0, 2.0, 3.5])


def test_moment_index_cap():
    MomentIndex((4, 4))
    with pytest.raises(ValueError, match="total order 9 exceeds the cap of 8"):
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


def asymmetric_variant(alpha):
    """The variant's other reading, (1/2 + alpha_j, 1/2) for each x_j, which
    the moment oracle refutes: its weights are not the row sums of x."""
    a = np.asarray(alpha, dtype=float)
    return WeightedAverageScenario(a, np.stack([0.5 + a, np.full_like(a, 0.5)], axis=1),
                                   (0.5 + a.sum(), 0.5))


VARIANT_READINGS = {"symmetric": variant_scenario, "asymmetric": asymmetric_variant}


@pytest.mark.parametrize("reading", VARIANT_READINGS)
@pytest.mark.parametrize("alpha", [(1.0, 2.0), (0.5, 1.5, 3.0), (2.0, 2.0, 0.25)])
def test_generating_function_matches_enumeration_on_variant(alpha, reading):
    # weight concentrations differ from the row sums of x here
    sc = VARIANT_READINGS[reading](alpha)
    for total in range(6):
        for s in compositions(total, sc.k):
            want = _enumerated_moment(sc, s)
            got = rwa_moment_expansion(sc, MomentIndex(s))
            assert got == pytest.approx(want, rel=1e-12)


def _box_expansion(sc, s):
    """Reference: the expansion computed for one index alone, on the box
    prod_j [0, s_j] flattened in C order (the oracle's body before it read
    coefficients from a table per scenario and total order)."""
    cells = np.indices(tuple(sj + 1 for sj in s)).reshape(len(s), -1)
    fits = np.ones((cells.shape[1],) * 2, dtype=bool)
    for sj, cj in zip(s, cells):
        fits &= cj[:, None] + cj[None, :] <= sj
    left, right = np.nonzero(fits)
    degree = cells.sum(axis=0)

    def rising_ratios(top, bottom, m):
        r = np.arange(m)
        out = np.ones(top.shape + (m + 1,))
        out[..., 1:] = (top[..., None] + r) / (np.asarray(bottom)[..., None] + r)
        return np.cumprod(out, axis=-1, out=out)

    a = np.asarray(sc.w_alpha)
    x = np.asarray(sc.x_alphas)
    per_row = rising_ratios(a, x.sum(axis=1), sum(s))
    per_cell = rising_ratios(x, 1.0, max(s))
    coords = np.arange(sc.k)[:, None]
    F = per_row[:, degree] * np.prod(per_cell[:, coords, cells], axis=1)
    poly = F[0]
    for f in F[1:-1]:
        poly = np.bincount(left + right, weights=poly[left] * f[right], minlength=poly.size)
    coeff = float(poly @ F[-1][::-1]) if sc.n > 1 else float(poly[-1])
    numer = [q for sj in s for q in range(1, sj + 1)]
    a_total = float(a.sum())
    return coeff * math.prod(q / (a_total + r) for r, q in enumerate(numer))


wide_entry = st.floats(1e-3, 1e4)


@given(st.integers(2, 12), st.integers(2, 4), st.integers(1, DEFAULT_ORDER_CAP),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_table_expansion_equals_box_reference(n, k, total, own_weights, data):
    mat = data.draw(st.lists(st.lists(wide_entry, min_size=k, max_size=k),
                             min_size=n, max_size=n))
    sc = theorem_scenario(mat)
    if own_weights:  # weight concentrations that are not the row sums
        w = data.draw(st.lists(wide_entry, min_size=n, max_size=n))
        sc = WeightedAverageScenario(w, sc.x_alphas, sc.target_alpha)
    for s in compositions(total, k):
        assert rwa_moment_expansion(sc, MomentIndex(s)) == _box_expansion(sc, s)


@pytest.mark.parametrize("reading", VARIANT_READINGS)
def test_table_expansion_equals_box_reference_on_variant(reading):
    sc = VARIANT_READINGS[reading]((0.5, 1.5, 3.0))
    for total in range(1, DEFAULT_ORDER_CAP + 1):
        for s in compositions(total, sc.k):
            assert rwa_moment_expansion(sc, MomentIndex(s)) == _box_expansion(sc, s)


def test_k6_order8_table_and_the_pair_cap():
    # k = 6 at total 8 has C(8 + 12, 12) = 125,970 cell pairs, all in one
    # table, whose moments are those of each index's own box
    cs, _ = moments._simplex(6, 8)
    assert len(cs.left) == math.comb(8 + 12, 12) <= moments._MAX_PAIRS
    sc = theorem_scenario(np.linspace(0.25, 4.0, 18).reshape(3, 6))
    for s in [(8, 0, 0, 0, 0, 0), (1, 1, 1, 1, 2, 2), (0, 3, 0, 2, 0, 3), (2, 1, 0, 0, 4, 1)]:
        assert rwa_moment_expansion(sc, MomentIndex(s), 8) == _box_expansion(sc, s)
    # the cap of 2^22 pairs admits k = 10 at order 8 and refuses k = 11
    moments._check_pairs(10, 8)
    with pytest.raises(ValueError, match="5,852,925 cell pairs, more than the cap of 4,194,304"):
        moments._simplex(11, 8)


@pytest.mark.parametrize("k, top", [(2, 8), (3, 5), (4, 3), (5, 8), (10, 2), (30, 1)])
def test_simplex_pairs_and_targets(k, top):
    cs, index = moments._simplex(k, top)
    cells = cs.cells.T
    assert [tuple(c) for c in cells.tolist()] == [c[:k] for c in compositions(top, k + 1)]
    assert len(cs.left) == math.comb(top + 2 * k, 2 * k)
    assert np.all(np.diff(cs.left) >= 0)
    assert np.all(cs.degree[cs.left] + cs.degree[cs.right] <= top)
    sums = cells[cs.left] + cells[cs.right]
    assert [index[tuple(c)] for c in sums.tolist()] == cs.target.tolist()
    # every pair appears once
    assert len(set(zip(cs.left.tolist(), cs.right.tolist()))) == len(cs.left)


def _three_readings(sc, indices):
    """The expansion of every index read in ascending and in descending
    order from one table as deep as the deepest index, and from the table
    of its own order, on cleared caches, each list in the order of indices."""
    top = max(idx.total for idx in indices)
    moments._moment_table.cache_clear()
    ascending = [rwa_moment_expansion(sc, idx, top) for idx in indices]
    moments._moment_table.cache_clear()
    descending = [rwa_moment_expansion(sc, idx, top) for idx in reversed(indices)][::-1]
    moments._moment_table.cache_clear()
    alone = [rwa_moment_expansion(sc, idx) for idx in indices]
    return ascending, descending, alone


@st.composite
def _matrices(draw, max_n, max_k):
    n, k = draw(st.integers(2, max_n)), draw(st.integers(2, max_k))
    return draw(st.lists(st.lists(wide_entry, min_size=k, max_size=k), min_size=n, max_size=n))


@given(_matrices(6, 4), st.integers(1, DEFAULT_ORDER_CAP))
# k = 6 at order 8: one table of 125,970 cell pairs
@example(np.linspace(0.25, 4.0, 18).reshape(3, 6).tolist(), DEFAULT_ORDER_CAP)
@settings(max_examples=40, deadline=None)
def test_one_table_reads_every_lower_order(mat, top):
    # A table of order top answers every lower order with the bits of the
    # table of that order, whichever order the indices come in.
    sc = theorem_scenario(mat)
    indices = [MomentIndex(s) for total in range(1, top + 1) for s in compositions(total, sc.k)]
    ascending, descending, alone = _three_readings(sc, indices)
    assert ascending == descending == alone


def test_run_moments_builds_one_table_per_matrix(monkeypatch):
    from dirichlet_rwa import runner
    from dirichlet_rwa.config import ScenarioConfig

    built = []
    product = moments._product

    def counting_product(w_alpha, x_alphas, cs, top):
        built.append((w_alpha, x_alphas))
        return product(w_alpha, x_alphas, cs, top)

    monkeypatch.setattr(moments, "_product", counting_product)
    moments._moment_table.cache_clear()
    sc = ScenarioConfig("m", "moments", 1, {"max_total_order": 5, "sizes": [[2, 2], [2, 3]],
                                            "entries": [0.5, 2.0]})
    tests, _ = runner._run_moments(sc)
    assert all(t["pass"] for t in tests)
    # exhaustive grids: 2^4 matrices of 2 x 2, 2^6 of 2 x 3
    assert len(built) == 2 ** 4 + 2 ** 6
    assert len(set(built)) == len(built)


def test_cached_tables_are_read_only():
    sc = theorem_scenario([[1.0, 2.0, 0.5], [3.0, 0.25, 1.5]])
    rwa_moment_expansion(sc, MomentIndex((1, 2, 0)))
    cs, _ = moments._simplex(3, 3)
    _, table = moments._moment_table(sc.w_alpha, sc.x_alphas, 3)
    support = moments._dirmult_support(3, 3)
    for arr in (*cs, table, *support):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_tables_shared_by_threads():
    # More scenarios than the caches hold and more threads than cores, with
    # frequent thread switches: every thread must still read its own
    # scenario's moments.  Tasks read a scenario's indices in ascending,
    # descending or interleaved order, from one table of order 5 or from
    # the tables of each index's own order, so threads build, read and
    # evict the same tables at once.
    scenarios = [theorem_scenario([[0.25 * (i + 1), 1.0, 2.0], [3.5, 0.5, 0.125 * (i + 1)]])
                 for i in range(24)]
    indices = [MomentIndex(s) for total in range(1, 6) for s in compositions(total, 3)]
    ascending = list(range(len(indices)))
    zigzag = [i for pair in zip(ascending, reversed(ascending)) for i in pair][:len(indices)]
    orders = [ascending, ascending[::-1], zigzag]
    tasks = [(sc, order, top) for top in (0, 5) for order in orders for sc in scenarios]

    def expand(task):
        sc, order, top = task
        got = {i: rwa_moment_expansion(sc, indices[i], top) for i in order}
        return [got[i] for i in range(len(indices))]

    want = [[_box_expansion(sc, idx.s) for idx in indices] for sc in scenarios]
    moments._moment_table.cache_clear()
    moments._simplex.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(expand, tasks, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * len(orders) * 2


def _exact_rising(x, m):
    out = Fraction(1)
    for r in range(m):
        out *= x + r
    return out


@pytest.mark.parametrize("e", [1e-3, 0.5, 1.0, 1e4, 1e6, 1e12, 1e50, 1e100])
def test_closed_form_matches_exact_moments(e):
    # prod_j (c_j)_{s_j} / (C)_S in exact rationals, at entries where
    # gammaln(x + m) - gammaln(x) cancels.  dirichlet_mixed_moment is checked
    # up to total order 12, the Kerov-Tsilevich order, above the index cap.
    for mat in ([[e, 2 * e], [3 * e, e]], [[e, 0.5 * e, 3 * e], [2 * e, e, 0.25 * e]]):
        sc = theorem_scenario(mat)
        col = [sum(Fraction(row[j]) for row in mat) for j in range(sc.k)]
        target = DirichletParams(sc.target_alpha)
        for total in range(12 + 1):
            for s in compositions(total, sc.k):
                want = math.prod(_exact_rising(c, sj) for c, sj in zip(col, s))
                want /= _exact_rising(sum(col), total)
                got = [dirichlet_mixed_moment(target, s)]
                if total <= DEFAULT_ORDER_CAP:
                    got.append(rwa_moment_closed_form(sc, MomentIndex(s)))
                for g in got:
                    assert abs(Fraction(g) - want) <= 1e-12 * want, (s, g, float(want))


def support_pmf(p):
    """The support of p and its pmf there, by the path that
    dirmult_normalization_check and kerov_tsilevich_check read."""
    support, log_multinomial = moments._dirmult_support(p.trials, p.alpha.k)
    return support.tolist(), np.exp(moments._log_pmf(p, support, log_multinomial))


@pytest.mark.parametrize("e", [1e-3, 0.5, 1e4, 1e6, 1e12, 1e100])
def test_dirmult_pmf_matches_exact(e):
    alpha = (e, 2 * e, 0.5 * e)
    trials = 7
    p = DirMultParams(DirichletParams(alpha), trials)
    support, got = support_pmf(p)
    assert support == [list(c) for c in compositions(trials, 3)]
    exact_alpha = [Fraction(a) for a in alpha]
    for counts, g in zip(support, got):
        want = Fraction(math.factorial(trials))
        for a, c in zip(exact_alpha, counts):
            want *= _exact_rising(a, c) / math.factorial(c)
        want /= _exact_rising(sum(exact_alpha), trials)
        assert abs(Fraction(float(g)) - want) <= 1e-12 * want, (counts, float(g), float(want))


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
        support, got = support_pmf(DirMultParams(DirichletParams(alpha), trials))
        return float(got[support.index(list(counts))])

    assert pmf((1, 1), 1, (1, 0)) == pytest.approx(0.5)
    assert pmf((1, 1), 2, (1, 1)) == pytest.approx(1 / 3)
    assert pmf((2, 3), 0, (0, 0)) == pytest.approx(1.0)


def test_dirmult_normalization_examples():
    for alpha, trials in [((1, 1), 5), ((0.5, 0.5, 0.5), 4), ((2, 3, 5), 8)]:
        total = dirmult_normalization_check(
            DirMultParams(DirichletParams(alpha), trials)
        )
        assert abs(total - 1.0) <= 1e-10


def _parent_normalization(p):
    """Reference: the normalization sum as fsum over the pmf array, with the
    log pmf written out in full."""
    alpha, n = p.alpha.alpha, p.trials
    c = np.asarray(list(compositions(n, len(alpha))), dtype=np.intp)
    top = max(n, DEFAULT_ORDER_CAP)
    logs = _log_rising_table(alpha, top)
    log_fact = _log_rising_table((1.0,), top)[0]
    log_pmf = (log_fact[n] - log_fact[c].sum(axis=1)
               + logs[np.arange(len(alpha)), c].sum(axis=1) - logs[-1, n])
    return float(math.fsum(np.exp(log_pmf)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dirmult_normalization_bitwise_reference(k):
    rng = np.random.default_rng(k)
    for trials in range(21):
        for alpha in (np.full(k, 0.5), np.exp(rng.uniform(np.log(1e-3), np.log(1e4), k))):
            p = DirMultParams(DirichletParams(alpha), trials)
            assert dirmult_normalization_check(p) == _parent_normalization(p), (alpha, trials)


def test_dirmult_trials_cap():
    with pytest.raises(ValueError, match="trials=1000 exceeds the enumeration cap of 64"):
        dirmult_normalization_check(DirMultParams(DirichletParams((1, 1)), 1000))


@pytest.mark.parametrize("alpha", [(0.5, 0.5), (1.0, 2.0)])
@pytest.mark.parametrize(
    "t", [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.25, -0.4), (0.0, 0.0)]
)
def test_kerov_tsilevich_identity(alpha, t):
    series, product, tail = kerov_tsilevich_check(alpha, t, order=12)
    assert abs(series - product) <= tail + 1e-6
    # Reference, term by term in exact rationals: (A)_m cancels from each
    # order, leaving sum over |h| <= 12 of prod_j (alpha_j)_{h_j} t_j^{h_j} / h_j!.
    want = Fraction(0)
    for m in range(13):
        for h in compositions(m, len(alpha)):
            want += math.prod(_exact_rising(Fraction(a), hj) * Fraction(tj) ** hj
                              / math.factorial(hj) for a, tj, hj in zip(alpha, t, h))
    assert abs(Fraction(series) - want) <= 1e-14 * abs(want)


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
