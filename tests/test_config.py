import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_rwa import moments
from dirichlet_rwa.cli import main
from dirichlet_rwa.config import (ConfigError, ScenarioConfig, _exhaustive_grid, _work,
                                  parse_config)
from dirichlet_rwa.runner import run_scenario

DIRMULT = {"id": "first", "kind": "dirmult", "seed": 1, "max_trials": 2, "max_k": 2}


def config(out_dir, *scenarios):
    return {"format_version": 1, "output_dir": str(out_dir), "scenarios": list(scenarios)}


def run(tmp_path, cfg) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["run", "--config", str(path)])


BAD_VALUES = {
    "theorem-one-row": {"kind": "theorem", "alphas": [[1, 2]], "n_samples": 100},
    "theorem-string-entry": {"kind": "theorem", "alphas": [["1", 2], [3, 4]], "n_samples": 100},
    "override-length": {"kind": "theorem", "alphas": [[1, 2], [3, 4]], "n_samples": 100,
                        "target_override": [4, 6, 1]},
    "variant-negative": {"kind": "variant", "alpha": [1, -1], "n_samples": 100},
    "kt-default-t-length": {"kind": "kerov_tsilevich", "alphas": [[1, 2, 3]]},
    "moments-order-cap": {"kind": "moments", "max_total_order": 9},
    "dirmult-trials-cap": {"kind": "dirmult", "max_trials": 65},
    "dirmult-support-cap": {"kind": "dirmult", "max_k": 12, "max_trials": 64},
    "stieltjes-order-1": {"kind": "stieltjes", "orders": [1]},
    "moments-one-row": {"kind": "moments", "sizes": [[1, 2]]},
    "moments-pair-cap": {"kind": "moments", "sizes": [[2, 11]], "max_total_order": 8},
    # json reads NaN, Infinity and 1e400 as floats; none is a valid number
    "stieltjes-nan-grid": {"kind": "stieltjes", "grid": [float("nan")]},
    "stieltjes-infinite-grid": {"kind": "stieltjes", "grid": [2.0, float("inf")]},
    "stieltjes-grid-on-support": {"kind": "stieltjes", "grid": [1.0]},
    "kt-infinite-alpha": {"kind": "kerov_tsilevich", "alphas": [[float("inf"), 1]]},
    "override-infinite": {"kind": "theorem", "alphas": [[1, 2], [3, 4]], "n_samples": 100,
                          "target_override": [float("inf"), 1]},
    "theorem-row-sum-overflows": {"kind": "theorem", "alphas": [[1e308, 1e308], [1, 1]],
                                  "n_samples": 100},
    "kt-product-overflows": {"kind": "kerov_tsilevich", "alphas": [[1e308, 1]]},
    # the product and the tail are 1.0; (A)_12/12! overflows only at the series' order
    "kt-weights-overflow": {"kind": "kerov_tsilevich", "alphas": [[5e26, 5e26]],
                            "t_values": [[1e-30, 1e-30]]},
    "kt-alpha-sum-overflows": {"kind": "kerov_tsilevich", "alphas": [[1e308, 1e308]]},
    # 5e307 sums to infinity only in the runner's longest alphas, of max_k entries
    "dirmult-sum-overflows-at-max-k": {"kind": "dirmult", "entries": [5e307], "max_k": 4},
}


@pytest.mark.parametrize("bad", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_value_exits_2_before_any_scenario_runs(tmp_path, capsys, bad):
    cfg = config(tmp_path / "reports", DIRMULT, {"id": "second", "seed": 2, **bad})
    with pytest.raises(ConfigError, match=r"^scenarios\[1\]: "):
        parse_config(cfg)
    assert run(tmp_path, cfg) == 2
    assert capsys.readouterr().err.startswith("error: scenarios[1]: ")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("key, value", [("format_version", True), ("format_version", 1.0),
                                        ("output_dir", None), ("output_dir", 3),
                                        ("seed", True), ("seed", 1.0)])
def test_top_level_and_seed_types(tmp_path, monkeypatch, capsys, key, value):
    # True == 1 == 1.0, and str(None) would name a report directory "None"
    monkeypatch.chdir(tmp_path)
    cfg = config("reports", {"id": "s", "kind": "stieltjes", "seed": 1})
    (cfg["scenarios"][0] if key == "seed" else cfg)[key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert run(tmp_path, cfg) == 2
    assert key in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report directory


def _no_enumeration(*args):
    raise AssertionError("the validator enumerated a support")


@pytest.mark.parametrize(
    "kind,key",
    [("theorem", k) for k in ("max_moment_order", "z_threshold", "ks_level", "energy_level",
                              "energy_permutations")]
    + [("variant", k) for k in ("max_moment_order", "z_threshold", "ks_level")]
    + [("moments", "rtol"), ("dirmult", "tol"), ("stieltjes", "tol_exact"),
       ("stieltjes", "tol_numeric"), ("stieltjes", "rtol"), ("kerov_tsilevich", "order"),
       ("kerov_tsilevich", "tol")],
)
def test_fixed_bounds_are_not_config_keys(kind, key):
    sc = {"id": "s", "kind": kind, "seed": 1, key: 1}
    sc.update({"theorem": {"alphas": [[1, 2], [3, 4]], "n_samples": 100},
               "variant": {"alpha": [1, 2], "n_samples": 100},
               "kerov_tsilevich": {"alphas": [[1, 2]]}}.get(kind, {}))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(config("r", sc))


def test_scenario_config_fills_defaults():
    sc = ScenarioConfig("m", "moments", 1, {"max_total_order": 3})
    assert sc.params == {"max_total_order": 3, "sizes": ((2, 2), (2, 3), (3, 2), (3, 3)),
                         "entries": (0.5, 1.0, 2.0, 3.5), "n_random": 30}
    with pytest.raises(ConfigError, match="missing required key 'n_samples'"):
        ScenarioConfig("t", "theorem", 1, {"alphas": [[1, 2], [3, 4]]})


def test_entries_are_a_grid_not_an_alpha_vector():
    # One entry is a valid grid: the runner builds alpha vectors from it.
    cfg = config("r", {**DIRMULT, "entries": [1.0]},
                 {"id": "m", "kind": "moments", "seed": 2, "entries": [1.0]})
    assert len(parse_config(cfg).scenarios) == 2


def test_stieltjes_order_above_3_runs_below_z_2(tmp_path):
    # every order is checked at every grid point, so no grid needs a point >= 2
    sc = {"id": "s", "kind": "stieltjes", "seed": 2, "orders": [4], "grid": [1.5]}
    assert run(tmp_path, config(tmp_path / "reports", sc)) == 0


@pytest.mark.parametrize("entry", ["stieltjes", "run"])
def test_quadrature_failure_exits_2(tmp_path, capsys, entry):
    # 1.000001 is a valid grid point at which the quadrature does not converge for n = 40
    if entry == "stieltjes":
        code = main(["stieltjes", "--n", "40", "--grid", "1.000001"])
    else:
        sc = {"id": "s", "kind": "stieltjes", "seed": 1, "orders": [40], "grid": [1.000001]}
        code = run(tmp_path, config(tmp_path / "reports", sc))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "did not converge" in err


# Mostly valid values, so that most generated configs run: quarters from
# 1/4 to 5, and now and then 0 or -1, which are not valid concentrations.
NUMBER = st.integers(1, 22).map(lambda v: v / 4 if v <= 20 else 21 - v)
T = st.integers(-3, 3).map(lambda v: v / 4)
SIZE = st.sampled_from([2, 2, 3, 3, 1])


def _rows(cols, values=NUMBER, rows=st.integers(1, 2)):
    return rows.flatmap(lambda n: st.lists(
        st.lists(values, min_size=cols, max_size=cols), min_size=n, max_size=n))


def _kind(kind, required, optional):
    return st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)


SCENARIOS = st.one_of(
    st.tuples(SIZE, SIZE).flatmap(lambda s: _kind(
        "theorem",
        {"alphas": _rows(s[1], rows=st.just(s[0])), "n_samples": st.integers(2, 500)},
        {"target_override": st.lists(NUMBER, min_size=2, max_size=3)})),
    _kind("variant", {"alpha": st.lists(NUMBER, min_size=1, max_size=3),
                      "n_samples": st.integers(2, 500)}, {}),
    _kind("moments", {"n_random": st.integers(0, 3)},
          {"max_total_order": st.integers(1, 9),
           "entries": st.lists(NUMBER, min_size=1, max_size=3),
           "sizes": st.lists(st.lists(SIZE, min_size=2, max_size=2), min_size=1, max_size=2)}),
    _kind("dirmult", {}, {"max_trials": st.integers(0, 6), "max_k": st.integers(2, 4),
                          "entries": st.lists(NUMBER, min_size=1, max_size=3)}),
    _kind("stieltjes", {}, {"orders": st.lists(st.integers(1, 16), min_size=1, max_size=3),
                            "grid": st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3)}),
    SIZE.flatmap(lambda k: _kind("kerov_tsilevich", {"alphas": _rows(k)},
                                 {"t_values": _rows(k, T)})),
)


CAP = 2 ** 22


def _elements(scenario) -> int:
    """What the runner builds for an enumerating scenario, summed in full:
    the pair products of each size's moment tables (rows after the first x
    matrices x cell pairs), and alphas x count
    vectors x coordinates of each Dirichlet-multinomial support of a
    dirmult run (0..max_trials trials) or a Kerov-Tsilevich series (1..12
    trials, once per t)."""
    kind = scenario["kind"]
    p = ScenarioConfig("e", kind, 1, {k: v for k, v in scenario.items() if k != "kind"}).params

    def support(trials, k):
        return math.comb(trials + k - 1, k - 1) * k

    if kind == "moments":
        matrices = [len(p["entries"]) ** (n * k) for n, k in p["sizes"]]
        return sum((n - 1) * (m if m <= 256 else p["n_random"])
                   * math.comb(p["max_total_order"] + 2 * k, 2 * k)
                   for m, (n, k) in zip(matrices, p["sizes"]))
    if kind == "dirmult":
        return sum(len(p["entries"]) ** k * support(t, k)
                   for k in range(2, p["max_k"] + 1) for t in range(p["max_trials"] + 1))
    return sum(len(p["t_values"]) * support(m, len(a)) for a in p["alphas"] for m in range(1, 13))


def _case(scenario, elements=None):
    return scenario, _elements(scenario) if elements is None else elements


def _entries(draw):
    return [0.5 * (i + 1) for i in range(draw(st.integers(1, 4)))]


@st.composite
def _enumerating(draw):
    """A moments, dirmult or kerov_tsilevich scenario of up to 30 coordinates,
    64 trials and 10^9 random matrices, and its elements."""
    k = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["moments", "dirmult", "kerov_tsilevich"]))
    if kind == "moments":
        sizes = draw(st.lists(st.tuples(st.integers(2, 30), st.integers(2, 30)), min_size=1,
                              max_size=2))
        return _case({"kind": kind, "sizes": [list(s) for s in sizes], "entries": _entries(draw),
                      "max_total_order": draw(st.integers(1, 8)),
                      "n_random": draw(st.integers(1, 10 ** 9))})
    if kind == "dirmult":
        return _case({"kind": kind, "max_k": k, "max_trials": draw(st.integers(0, 64)),
                      "entries": _entries(draw)})
    return _case({"kind": kind,
                  "alphas": draw(st.lists(st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k),
                                          min_size=1, max_size=3)),
                  "t_values": draw(st.lists(st.lists(st.floats(-0.9, 0.9), min_size=k,
                                                     max_size=k), min_size=1, max_size=2))})


def _dirmult(max_k, max_trials, **keys):
    return {"kind": "dirmult", "max_k": max_k, "max_trials": max_trials, **keys}


def _kt(k, t_values=1):
    return {"kind": "kerov_tsilevich", "alphas": [[1.0] * k], "t_values": [[0.1] * k] * t_values}


def _refused_exactly_above_the_cap(scenario, elements):
    """A config is refused exactly when the runner would build more than 2^22
    elements; the refusal names the kind's keys, and the validator
    enumerates nothing to decide it."""
    kind = scenario["kind"]
    cfg = config("r", {"id": "e", "seed": 1, **scenario})
    with mock.patch.object(moments, "compositions", _no_enumeration):
        if elements <= CAP:
            sc = parse_config(cfg).scenarios[0]
            assert _work(kind, sc.params) == elements
            return
        with pytest.raises(ConfigError) as refusal:
            parse_config(cfg)
    keys = ", ".join(ScenarioConfig("e", kind, 1, {k: v for k, v in scenario.items()
                                                   if k != "kind"}).params)
    counted = re.fullmatch(rf"scenarios\[0\]: this {kind} scenario \({keys}\) builds at least "
                           r"([\d,]+) elements, more than the cap of 4,194,304",
                           str(refusal.value))
    assert counted, str(refusal.value)
    # the sum stops once it passes the cap
    assert CAP < int(counted[1].replace(",", "")) <= elements


def test_dirmult_support_cap_refused_without_enumerating():
    # A dirmult run enumerates every alpha of each k at every trial count;
    # its whole sum, not its largest support, is held to the cap.
    for case in (
        # One entry at 0 trials adds k elements at each k = 2..max_k: 4,194,305
        # passed a cap on count vectors, and the sum of 10^9 is refused at k = 2,896.
        _case(_dirmult(4_194_305, 0, entries=[1.0]), 4_194_305 * 4_194_306 // 2 - 1),
        _case(_dirmult(10 ** 9, 0, entries=[1.0]), 10 ** 9 * (10 ** 9 + 1) // 2 - 1),
        # The edges: 4,130,048 and 5,152,224 elements, 4,037,600 and 4,284,000.
        _case(_dirmult(4, 15)),
        _case(_dirmult(4, 16)),
        _case(_dirmult(3, 48)),
        _case(_dirmult(3, 49)),
        # Accepted under the earlier cap on count vectors, refused now.
        _case(_dirmult(4, 22)),
    ):
        _refused_exactly_above_the_cap(*case)


@given(_enumerating())
# The Kerov-Tsilevich series reads 1..12 trials: 13 coordinates build
# 67,603,887 elements, though the order-12 support alone has 2,704,156 rows.
@example(_case(_kt(13)))
@example(_case(_kt(20)))
@example(_case({"kind": "moments", "n_random": 10 ** 9}))
# The edges: 2,645,361 and 6,466,450 elements.
@example(_case(_kt(9)))
@example(_case(_kt(10)))
# Accepted under the earlier per-kind caps, refused now.
@example(_case({"kind": "moments", "sizes": [[2, 7]], "max_total_order": 8}))
@example(_case(_kt(8, t_values=5)))
# Each row after the first forms every matrix's pair products once: 3 x 6 at
# order 8 builds 7,558,200 elements, and at order 5 a 2-column size is
# accepted up to 1,110 rows; 16,000 rows ran for 2.65 s at 3,780 pairs.
@example(_case({"kind": "moments", "sizes": [[3, 6]], "max_total_order": 8}))
@example(_case({"kind": "moments", "sizes": [[1110, 2]]}))
@example(_case({"kind": "moments", "sizes": [[1111, 2]]}))
@example(_case({"kind": "moments", "sizes": [[16000, 2]]}))
@settings(max_examples=100, deadline=None)
def test_enumerating_scenarios_refused_above_the_support_cap(case):
    # Over all three enumerating kinds, the cap is the one work budget of
    # 2^22 elements: count vectors x coordinates, or matrices x cell pairs.
    _refused_exactly_above_the_cap(*case)


# One size of each grid: 3^4 = 81 matrices of 2 x 2, 3 seeded draws of 3 x 3.
DRIFT = {
    "moments": {"sizes": [[2, 2], [3, 3]], "entries": [0.5, 1.0, 2.0], "max_total_order": 3,
                "n_random": 3},
    "dirmult": {"max_k": 3, "max_trials": 3, "entries": [0.5, 2.0]},
    "kerov_tsilevich": {"alphas": [[1.0, 2.0, 3.0], [0.5, 0.5, 4.0]],
                        "t_values": [[0.1, 0.2, 0.3], [0.0, -0.5, 0.5]]},
}


@pytest.mark.parametrize("kind", DRIFT)
def test_work_counts_what_the_runner_builds(monkeypatch, kind):
    # Every moment table goes through _product, one array of cell-pair
    # products per matrix and row after the first, and every
    # Dirichlet-multinomial support through _pmf, one row of count vectors
    # per alpha; their elements add up to _work.
    built = []
    product, pmf = moments._product, moments._pmf

    def counting_product(w, x, e, cs, top):
        built.append(len(w) * (x.shape[1] - 1) * cs.left.size)
        return product(w, x, e, cs, top)

    def counting_pmf(table, n):
        support, out = pmf(table, n)
        built.append(len(table) * support.size)
        return support, out

    monkeypatch.setattr(moments, "_product", counting_product)
    monkeypatch.setattr(moments, "_pmf", counting_pmf)
    cfg = config("r", {"id": "d", "kind": kind, "seed": 5, **DRIFT[kind]})
    sc = parse_config(cfg).scenarios[0]
    if kind == "moments":
        assert [bool(_exhaustive_grid(n, k, sc.params["entries"]))
                for n, k in sc.params["sizes"]] == [True, False]
    assert run_scenario(sc, "hash")["overall_pass"]
    assert sum(built) == _work(kind, sc.params) == _elements({"kind": kind, **DRIFT[kind]})


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(SCENARIOS, min_size=1, max_size=2))
def test_config_is_rejected_or_runs(scenarios):
    scenarios = [{"id": f"s{i}", "seed": i, **sc} for i, sc in enumerate(scenarios)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = config(Path(tmp) / "reports", *scenarios)
        try:
            parse_config(cfg)
        except ConfigError:
            return
        assert run(Path(tmp), cfg) in (0, 1, 2)


def test_json_non_finite_literals_rejected(tmp_path, capsys):
    # NaN, Infinity and an overflowing literal, as a hand-written config holds them
    sc = ('{"id": "s", "kind": "stieltjes", "seed": 1, "grid": [%s]}')
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        path = tmp_path / "config.json"
        path.write_text('{"format_version": 1, "output_dir": "%s", "scenarios": [%s]}'
                        % (tmp_path / "reports", sc % literal))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: scenarios[0]: grid must be")
        assert not (tmp_path / "reports").exists()
