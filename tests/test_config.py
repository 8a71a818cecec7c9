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
from dirichlet_rwa.config import ConfigError, ScenarioConfig, parse_config

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


def _dirmult_total(max_k, trials, entries=4):
    """The count vectors that a dirmult run enumerates: entries^k alphas of
    each k = 2..max_k, each over the supports of 0..trials trials."""
    return sum(entries ** k * math.comb(t + k - 1, k - 1)
               for k in range(2, max_k + 1) for t in range(trials + 1))


def _dirmult_refusal(max_k, trials, entries=(0.5, 1.0, 2.0, 5.0)):
    """The validator's message for a dirmult grid above the cap: the total
    of k = 2..j, for the first j at which it passes 2^22."""
    j = next(j for j in range(2, max_k + 1) if _dirmult_total(j, trials, len(entries)) > 2 ** 22)
    return (rf"^scenarios\[0\]: dirmult at max_k {max_k}, max_trials {trials} and entries "
            rf"{re.escape(str(list(entries)))} enumerates "
            rf"{_dirmult_total(j, trials, len(entries)):,} count vectors at k <= {j} alone, "
            r"more than the cap of 4,194,304$")


def test_dirmult_support_cap_refused_without_enumerating(monkeypatch):
    # The runner enumerates every alpha of each k at every trial count.  At
    # max_k 5 and 64 trials that is 11,719,820,112 count vectors, though the
    # largest support, C(68, 4) = 814,385, is within the cap; at max_k 12 and
    # one trial, 16,777,216 alphas of k = 12 alone.  max_k 4 is within the
    # cap up to 22 trials (3,978,816) and above it at 23 (4,664,000).
    assert _dirmult_total(5, 64) == 11_719_820_112
    assert (_dirmult_total(4, 22), _dirmult_total(4, 23)) == (3_978_816, 4_664_000)
    monkeypatch.setattr(moments, "compositions", _no_enumeration)
    for max_k, trials in ((5, 64), (12, 1), (12, 64), (6, 10), (4, 23)):
        sc = {"id": "d", "kind": "dirmult", "seed": 1, "max_k": max_k, "max_trials": trials}
        with pytest.raises(ConfigError, match=_dirmult_refusal(max_k, trials)):
            parse_config(config("r", sc))
    for max_k, trials in ((4, 22.0), (4, 10), (2, 64)):
        parse_config(config("r", {"id": "d", "kind": "dirmult", "seed": 1, "max_k": max_k,
                                   "max_trials": trials}))


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


@st.composite
def _enumerating(draw):
    """A dirmult or kerov_tsilevich scenario of up to 30 coordinates and up
    to 64 trials, the count vectors that decide whether it is refused, and
    the refusal's message: every count vector of a dirmult run, or the
    largest support of a kerov_tsilevich run, at each alpha's length and
    order 12."""
    k = draw(st.integers(2, 30))
    if draw(st.booleans()):
        trials = draw(st.integers(0, 64))
        entries = [0.5 * (i + 1) for i in range(draw(st.integers(1, 4)))]
        total = _dirmult_total(k, trials, len(entries))
        refusal = _dirmult_refusal(k, trials, entries) if total > 2 ** 22 else None
        return ({"kind": "dirmult", "max_k": k, "max_trials": trials, "entries": entries},
                total, refusal)
    return _kt_scenario(k, draw(st.lists(st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k),
                                         min_size=1, max_size=3)),
                        draw(st.lists(st.lists(st.floats(-0.9, 0.9), min_size=k, max_size=k),
                                      min_size=1, max_size=2)))


def _kt_scenario(k, alphas, t_values):
    support = math.comb(12 + k - 1, k - 1)
    return ({"kind": "kerov_tsilevich", "alphas": alphas, "t_values": t_values}, support,
            rf"^scenarios\[0\]: alphas of {k} coordinates at 12 trials have a "
            rf"Dirichlet-multinomial support of {support:,} count vectors")


@given(_enumerating())
# 20 coordinates have 141,120,525 count vectors at order 12, and 13 have
# 2,704,156, within the cap
@example(_kt_scenario(20, [[1.0] * 20], [[0.1] * 20]))
@example(_kt_scenario(13, [[1.0] * 13], [[0.1] * 13]))
@settings(max_examples=100, deadline=None)
def test_enumerating_scenarios_refused_above_the_support_cap(scenario):
    # A config is refused exactly when its count vectors are more than 2^22,
    # and the validator enumerates none to decide it.
    scenario, count, refusal = scenario
    cfg = config("r", {"id": "e", "seed": 1, **scenario})
    with mock.patch.object(moments, "compositions", _no_enumeration):
        if count <= 2 ** 22:
            parse_config(cfg)
        else:
            with pytest.raises(ConfigError, match=refusal):
                parse_config(cfg)


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
