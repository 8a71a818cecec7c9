import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_rwa.distributions import DirichletParams, dirichlet_mixed_moment
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
    assert len(cs.left) == math.comb(8 + 12, 12) <= moments._MAX_ELEMENTS
    sc = theorem_scenario(np.linspace(0.25, 4.0, 18).reshape(3, 6))
    for s in [(8, 0, 0, 0, 0, 0), (1, 1, 1, 1, 2, 2), (0, 3, 0, 2, 0, 3), (2, 1, 0, 0, 4, 1)]:
        assert rwa_moment_expansion(sc, MomentIndex(s), 8) == _box_expansion(sc, s)
    # the cap of 2^22 elements admits one table of k = 10 at order 8
    # (3,108,105 cell pairs) and refuses k = 11
    moments._check_work(math.comb(8 + 20, 20), "k = 10")
    with pytest.raises(ValueError, match="^a moment table of k = 11 at order 8 builds at least "
                                         "5,852,925 elements, more than the cap of 4,194,304$"):
        moments._simplex(11, 8)


# k = 1 at order 300 has coordinates above 255, which need two bytes of a key.
@pytest.mark.parametrize("k, top", [(2, 8), (3, 5), (4, 3), (5, 8), (10, 2), (30, 1), (1, 300)]
                         + [(k, top) for k in range(1, 7) for top in range(6)
                            if (k, top) not in ((3, 5), (4, 3))])
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
    order from one table as deep as the deepest index, each order from a
    table built fresh by _tabulate, and from the table of its own order,
    each list in the order of indices."""
    top = max(idx.total for idx in indices)
    moments._tabulate([sc], top)
    ascending = [rwa_moment_expansion(sc, idx, top) for idx in indices]
    moments._tabulate([sc], top)
    descending = [rwa_moment_expansion(sc, idx, top) for idx in reversed(indices)][::-1]
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

    batches = []
    product = moments._product

    def counting_product(w, x, e, cs, top):
        batches.append([(tuple(wm), tuple(map(tuple, xm))) for wm, xm in zip(w.tolist(), x.tolist())])
        return product(w, x, e, cs, top)

    monkeypatch.setattr(moments, "_product", counting_product)
    sc = ScenarioConfig("m", "moments", 1, {"max_total_order": 5, "sizes": [[2, 2], [2, 3]],
                                            "entries": [0.5, 2.0]})
    tests, _ = runner._run_moments(sc)
    assert all(t["pass"] for t in tests)
    # exhaustive grids: 2^4 matrices of 2 x 2, 2^6 of 2 x 3, each in exactly
    # one batch of at most _BATCH_ELEMENTS cell pairs
    built = [matrix for batch in batches for matrix in batch]
    assert len(built) == 2 ** 4 + 2 ** 6
    assert len(set(built)) == len(built)
    want = []
    for matrices, k in ((2 ** 4, 2), (2 ** 6, 3)):
        size = moments._BATCH_ELEMENTS // math.comb(5 + 2 * k, 2 * k)
        want += [min(size, matrices - start) for start in range(0, matrices, size)]
    assert [len(batch) for batch in batches] == want


def _one_table(sc, top):
    """Reference: the finished moments of one matrix, by the one-matrix
    product and finishing loop that the batched builder replaced."""
    cs, _ = moments._simplex(sc.k, top)
    e = moments._scale_exponent(np.max(sc.x_alphas))
    a = np.asarray(sc.w_alpha)
    x = np.asarray(sc.x_alphas)
    per_row = moments._rising_ratios(a, x.sum(axis=1), top)
    per_cell = moments._rising_ratios(x, 1.0, top, e)
    coords = np.arange(sc.k)[:, None]
    poly = None
    for row, cell_row in zip(per_row, per_cell):
        f = row[cs.degree] * np.prod(cell_row[coords, cs.cells], axis=0)
        poly = f if poly is None else np.bincount(
            cs.target, weights=poly[cs.left] * f[cs.right], minlength=f.size)
    a_total = float(a.sum())
    ends = np.cumsum(cs.cells, axis=0)
    out = np.ones(poly.shape)
    for r in range(int(ends[-1].max(initial=0))):
        q = r + 1 - np.where(ends <= r, ends, 0).max(axis=0)
        live = ends[-1] > r
        out[live] *= q[live] / ((a_total + r) * 2.0 ** -e)
    return poly * out


# entries from 0.5 to 1e39, so that _scale_exponent differs inside a batch
span_entry = st.sampled_from([0.5, 0.75, 3.0, 1e3, 1e12, 1e39]) | st.floats(0.5, 1e39)


@st.composite
def _grids(draw):
    n, k = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    matrix = st.lists(st.lists(span_entry, min_size=k, max_size=k), min_size=n, max_size=n)
    return draw(st.lists(matrix, min_size=1, max_size=12))


@given(_grids(), st.integers(1, DEFAULT_ORDER_CAP))
# 2 x 2 tables of order 8 go 8 to a batch of the element budget, and
# entries of 1e3 to 1e36 give each matrix its own _scale_exponent
@example([[[0.5 + i, 10.0 ** (3 * i + 3)], [3.0, 2.0]] for i in range(12)], DEFAULT_ORDER_CAP)
@settings(max_examples=60, deadline=None)
def test_batched_tables_equal_tables_one_matrix_at_a_time(matrices, top):
    grid = [theorem_scenario(mat) for mat in matrices]
    want = [_one_table(sc, top).tobytes() for sc in grid]
    assert [table.tobytes() for table in moments._tabulate(grid, top)] == want
    assert [moments._tabulate([sc], top)[0].tobytes() for sc in grid] == want
    # in batches of the element budget, which a grid may cross, each table
    # read from the thread's last batch as its scenario is yielded
    chunked = [moments._last.tables[sc.w_alpha, sc.x_alphas, top].tobytes()
               for sc in moments.tabulate_moments(grid, top)]
    assert chunked == want


def test_batches_across_a_boundary_read_the_tables_of_one_matrix(monkeypatch):
    # 2 x 2 matrices at order 8 have C(12, 4) = 495 cell pairs, so this grid
    # spans three batches, in each of which _scale_exponent differs
    top = 8
    per_batch = moments._BATCH_ELEMENTS // math.comb(top + 4, 4)
    entries = [0.5, 3.0, 1e3, 1e12, 1e39]
    grid = [theorem_scenario([[entries[i % 5], entries[i * 3 % 5]],
                              [entries[i * 7 % 5], 1.0 + i]]) for i in range(2 * per_batch + 4)]
    for start in range(0, len(grid), per_batch):
        assert len({int(moments._scale_exponent(np.max(sc.x_alphas)))
                    for sc in grid[start:start + per_batch]}) > 1
    sizes = []
    tabulate = moments._tabulate

    def counting_tabulate(batch, depth):
        sizes.append(len(batch))
        return tabulate(batch, depth)

    monkeypatch.setattr(moments, "_tabulate", counting_tabulate)
    indices = [MomentIndex(s) for total in range(1, top + 1) for s in compositions(total, 2)]
    for sc in moments.tabulate_moments(iter(grid), top):
        got = np.array([rwa_moment_expansion(sc, idx, top) for idx in indices])
        cs, index = moments._simplex(2, top)
        want = _one_table(sc, top)[[index[idx.s] for idx in indices]]
        assert got.tobytes() == want.tobytes()
    assert sizes == [per_batch, per_batch, 4]


def test_cached_tables_are_read_only():
    sc = theorem_scenario([[1.0, 2.0, 0.5], [3.0, 0.25, 1.5]])
    rwa_moment_expansion(sc, MomentIndex((1, 2, 0)))
    cs, _ = moments._simplex(3, 3)
    table = moments._last.tables[sc.w_alpha, sc.x_alphas, 3]
    support = moments._dirmult_support(3, 3)
    for arr in (*cs, table, support):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_tables_shared_by_threads():
    # More threads than cores, with frequent thread switches, building the
    # shared simplex of each order afresh: every thread must still read its
    # own scenario's moments from its own last batch.  Tasks read a
    # scenario's indices in ascending, descending or interleaved order, from
    # one table of order 5 or from the tables of each index's own order, or
    # tabulate a run of scenarios in one batch first, so threads build,
    # read and replace tables of the same keys at once.
    scenarios = [theorem_scenario([[0.25 * (i + 1), 1.0, 2.0], [3.5, 0.5, 0.125 * (i + 1)]])
                 for i in range(24)]
    indices = [MomentIndex(s) for total in range(1, 6) for s in compositions(total, 3)]
    ascending = list(range(len(indices)))
    zigzag = [i for pair in zip(ascending, reversed(ascending)) for i in pair][:len(indices)]
    orders = [ascending, ascending[::-1], zigzag]
    tasks = [(sc, order, top) for top in (0, 5) for order in orders for sc in scenarios]
    tasks += [(scenarios[i:i + 6], ascending, 5) for i in range(0, len(scenarios), 6)]

    def expand(task):
        sc, order, top = task
        if isinstance(sc, list):
            return [expand((each, order, top))[0] for each in moments.tabulate_moments(sc, top)]
        got = {i: rwa_moment_expansion(sc, indices[i], top) for i in order}
        return [[got[i] for i in range(len(indices))]]

    want = [[_box_expansion(sc, idx.s) for idx in indices] for sc in scenarios]
    moments._simplex.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = [table for tables in pool.map(expand, tasks, timeout=120) for table in tables]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * len(orders) * 2 + want


def test_each_thread_keeps_its_own_batch(monkeypatch):
    # Three threads each tabulate a full batch of 2 x 2 matrices at order 8
    # (495 cell pairs each) and wait until all three are built before any
    # reads its moments.  Every thread's batch must still be there for it:
    # each matrix goes through _product exactly once.
    top = 8
    per_batch = moments._BATCH_ELEMENTS // math.comb(top + 4, 4)
    grids = [[theorem_scenario([[0.5 + t, 1.0 + i], [2.0, 0.25 * (i + 1)]])
              for i in range(per_batch)] for t in range(3)]
    indices = [MomentIndex(s) for total in range(1, top + 1) for s in compositions(total, 2)]
    built = []
    product = moments._product

    def counting_product(w, x, e, cs, depth):
        built.extend((tuple(wm), tuple(map(tuple, xm))) for wm, xm in zip(w.tolist(), x.tolist()))
        return product(w, x, e, cs, depth)

    monkeypatch.setattr(moments, "_product", counting_product)
    barrier = threading.Barrier(len(grids), timeout=60)

    def read(grid):
        got = []
        for i, sc in enumerate(moments.tabulate_moments(grid, top)):
            if i == 0:  # the whole batch is built
                barrier.wait()
            got.append([rwa_moment_expansion(sc, idx, top) for idx in indices])
        return got

    with ThreadPoolExecutor(max_workers=len(grids)) as pool:
        got = list(pool.map(read, grids, timeout=120))
    assert sorted(built) == sorted({(sc.w_alpha, sc.x_alphas) for grid in grids for sc in grid})
    cs, index = moments._simplex(2, top)
    want = [[_one_table(sc, top)[[index[idx.s] for idx in indices]].tolist() for sc in grid]
            for grid in grids]
    assert got == want


def _exact_rising(x, m):
    out = Fraction(1)
    for r in range(m):
        out *= x + r
    return out


@pytest.mark.parametrize("e", [3e-7, 1e-3, 0.5, 1.0, 1e4, 1e6, 1e12, 1e50, 1e100])
def test_closed_form_matches_exact_moments(e):
    # prod_j (c_j)_{s_j} / (C)_S in exact rationals, at entries where
    # gammaln(x + m) - gammaln(x) cancels.  dirichlet_mixed_moment is checked
    # up to total order 12, the Kerov-Tsilevich order, above the index cap.
    # Each of its S ratios (c_j + q) / (C + r) takes at most k + 3 roundings
    # (k - 1 in C, two additions, a division, a multiplication into the
    # product), so the bound is (k + 3) S 2^-53 relative while the exact value
    # is a normal double (here all are, 9.2e-19 the least);
    # rwa_moment_closed_form gives the same bits.
    for mat in ([[e, 2 * e], [3 * e, e]], [[e, 0.5 * e, 3 * e], [2 * e, e, 0.25 * e]]):
        sc = theorem_scenario(mat)
        col = [sum(Fraction(row[j]) for row in mat) for j in range(sc.k)]
        target = DirichletParams(sc.target_alpha)
        for total in range(12 + 1):
            bound = (sc.k + 3) * total * 2.0 ** -53
            for s in compositions(total, sc.k):
                want = math.prod(_exact_rising(c, sj) for c, sj in zip(col, s))
                want /= _exact_rising(sum(col), total)
                got = dirichlet_mixed_moment(target, s)
                if total <= DEFAULT_ORDER_CAP:
                    assert rwa_moment_closed_form(sc, MomentIndex(s)) == got
                assert abs(Fraction(got) - want) <= bound * want, (s, got, float(want))


def support_pmf(p):
    """The support of p and its pmf there, from the one pmf builder that
    dirmult_normalization_check and kerov_tsilevich_check read."""
    support, pmf = moments._pmf(moments._pmf_table([p.alpha.alpha], p.trials), p.trials)
    return support.tolist(), pmf[0]


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
    """Reference: the normalization sum as fsum over the support of the pmf
    prod_j (alpha_j)_{c_j}/c_j! / ((A)_n/n!), written out in full: the
    ratios (x)_h/h! multiply in the steps (x + r)/(1 + r) * 2^-e from 1.0,
    e the binary exponent of A if A >= 1, else 0, and each count vector's
    product runs over the coordinates in order."""
    alpha, n = p.alpha.alpha, p.trials
    a_total = sum(alpha)
    scale = 2.0 ** -max(math.frexp(a_total)[1], 0)

    def ratios(x):  # (x)_h/h! 2^(-eh) for h = 0..n
        out = [1.0]
        for r in range(n):
            out.append(out[-1] * ((x + r) / (1 + r) * scale))
        return out

    tables, denominator = [ratios(x) for x in alpha], ratios(a_total)[n]
    return math.fsum(math.prod(map(list.__getitem__, tables, c)) / denominator
                     for c in compositions(n, len(alpha)))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dirmult_normalization_bitwise_reference(k):
    rng = np.random.default_rng(k)
    for trials in range(21):
        for alpha in (np.full(k, 0.5), np.exp(rng.uniform(np.log(1e-3), np.log(1e4), k))):
            p = DirMultParams(DirichletParams(alpha), trials)
            assert dirmult_normalization_check(p) == _parent_normalization(p), (alpha, trials)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dirmult_batch_of_many_equals_reference(k, monkeypatch):
    rng = np.random.default_rng(10 + k)
    alphas = [np.full(k, 0.5), *np.exp(rng.uniform(np.log(1e-3), np.log(1e4), (7, k)))]
    alphas = [DirichletParams(a) for a in alphas]
    normalize = moments._normalize
    summed = []

    def counting_normalize(batch):
        summed.extend(batch)
        return normalize(batch)

    monkeypatch.setattr(moments, "_normalize", counting_normalize)
    for trials in range(21):
        params = [DirMultParams(a, trials) for a in alphas]
        want = [_parent_normalization(p) for p in params]
        assert normalize(params) == want, trials
        # each sum read from the batch that tabulate_dirmult built for it:
        # every alpha is summed once
        summed.clear()
        yielded, got = [], []
        for p in moments.tabulate_dirmult(iter(params)):
            yielded.append(p)
            got.append(dirmult_normalization_check(p))
        assert yielded == summed == params
        assert got == want, trials


def _pmf_sum_error(alpha, trials):
    """|sum of the pmf over the support - 1| in units of eps."""
    total = dirmult_normalization_check(DirMultParams(DirichletParams(alpha), trials))
    return abs(Fraction(total) - 1) / Fraction(sys.float_info.epsilon)


def test_dirmult_pmf_sums_to_one_within_64_eps():
    # The pmf's ratio tables hold (x)_h/h! 2^(-eh), e the binary exponent of
    # A, so neither large nor tiny concentrations cost accuracy; the sum of
    # the log-space pmf this replaced was up to 21,130 eps off here.
    rng = np.random.default_rng(35)
    for k in range(2, 6):
        base = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), (3, k)))
        for trials in range(21):
            for alpha in base:
                assert _pmf_sum_error(alpha, trials) <= 64, (alpha, trials)
        for scale in (1e12, 1e150, 1e300, 1e-17, 1e-150, 1e-300):
            for trials in (7, 30, 64):
                alpha = base[0] * scale
                assert _pmf_sum_error(alpha, trials) <= 64, (alpha, trials)


def test_dirmult_trials_cap():
    with pytest.raises(ValueError, match="trials=1000 exceeds the enumeration cap of 64"):
        dirmult_normalization_check(DirMultParams(DirichletParams((1, 1)), 1000))


def test_dirmult_support_cap_refused_before_enumerating(monkeypatch):
    # 14 cells at 12 trials, the Kerov-Tsilevich order, have C(25, 13) =
    # 5,200,300 count vectors of 14 coordinates, more than 2^22 elements
    def no_enumeration(*args):
        raise AssertionError("a support above the cap was enumerated")

    monkeypatch.setattr(moments, "compositions", no_enumeration)
    with pytest.raises(ValueError, match="^a Dirichlet-multinomial support of 12 trials in 14 "
                                         "cells builds at least 72,804,200 elements, more than "
                                         "the cap of 4,194,304$"):
        dirmult_normalization_check(DirMultParams(DirichletParams([1.0] * 14), 12))


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


def test_kerov_tsilevich_tiny_alpha():
    # The log form this replaced took log(A + m - 1) for (A)_m/m!, and at
    # A = 2e-300, A + 1 - 1 rounds to 0: a math domain error at m = 1.
    series, product, tail = kerov_tsilevich_check([1e-300, 1e-300], [0.5, -0.5])
    assert abs(series - product) <= tail + 1e-12
    assert series == product == 1.0


def test_one_pmf_builder_for_sums_and_series(monkeypatch):
    # The normalization sums and the Kerov-Tsilevich series read one pmf
    # builder: a batch of sums in one call, the series in one call per order.
    # At t = 0 the series is its order-0 term and the tail bound exactly 0.0.
    calls = []
    pmf = moments._pmf

    def counting_pmf(table, n):
        calls.append((len(table), n))
        return pmf(table, n)

    monkeypatch.setattr(moments, "_pmf", counting_pmf)
    params = [DirMultParams(DirichletParams(a), 5) for a in ((1, 2, 3), (0.5, 0.5, 4))]
    assert all(abs(total - 1.0) <= 1e-12 for total in moments._normalize(params))
    assert calls == [(2, 5)]
    calls.clear()
    for t in ((0.0, 0.0, 0.0), (0.0, -0.0, 0.0)):
        assert kerov_tsilevich_check((1, 2, 3), t) == (1.0, 1.0, 0.0)
    assert calls == [(1, m) for m in range(1, moments.KT_ORDER + 1)] * 2


@pytest.mark.parametrize("alpha, t", [((0.35, 4.6), (0.5, -0.5)),
                                      ((1e-3, 2.0, 40.0), (0.9, -0.3, 0.1)),
                                      ((1.0, 2.0, 3.0), (-0.99, 0.0, 0.7))])
def test_kerov_tsilevich_pmfs_from_one_table_equal_a_table_per_order(alpha, t):
    # a cumprod's prefix does not depend on its length, so the pmf of every
    # order read from the one table of depth KT_ORDER has the bits of a table
    # of that order, and so has the series
    deep = moments._pmf_table([alpha], moments.KT_ORDER, np.asarray(t))
    pmfs = [moments._pmf(moments._pmf_table([alpha], m, np.asarray(t)), m)[1]
            for m in range(1, moments.KT_ORDER + 1)]
    for m, want in enumerate(pmfs, start=1):
        assert np.array_equal(moments._pmf(deep, m)[1], want)
    weights = moments._rising_ratios(np.asarray(DirichletParams(alpha).total), 1.0,
                                     moments.KT_ORDER).tolist()
    series = math.fsum([1.0] + [w * math.fsum(pmf[0].tolist())
                                for w, pmf in zip(weights[1:], pmfs)])
    assert kerov_tsilevich_check(alpha, t)[0] == series


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
