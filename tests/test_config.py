import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    "stieltjes-order-1": {"kind": "stieltjes", "orders": [1]},
    "stieltjes-empty-numeric-grid": {"kind": "stieltjes", "orders": [4], "grid": [1.5]},
    "moments-one-row": {"kind": "moments", "sizes": [[1, 2]]},
    # json reads NaN, Infinity and 1e400 as floats; none is a valid number
    "stieltjes-nan-grid": {"kind": "stieltjes", "grid": [float("nan")]},
    "stieltjes-infinite-grid": {"kind": "stieltjes", "grid": [2.0, float("inf")]},
    "kt-infinite-alpha": {"kind": "kerov_tsilevich", "alphas": [[float("inf"), 1]]},
    "override-infinite": {"kind": "theorem", "alphas": [[1, 2], [3, 4]], "n_samples": 100,
                          "target_override": [float("inf"), 1]},
    "theorem-row-sum-overflows": {"kind": "theorem", "alphas": [[1e308, 1e308], [1, 1]],
                                  "n_samples": 100},
    "kt-product-overflows": {"kind": "kerov_tsilevich", "alphas": [[1e308, 1]]},
    "kt-alpha-sum-overflows": {"kind": "kerov_tsilevich", "alphas": [[1e308, 1e308]]},
}


@pytest.mark.parametrize("bad", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_value_exits_2_before_any_scenario_runs(tmp_path, capsys, bad):
    cfg = config(tmp_path / "reports", DIRMULT, {"id": "second", "seed": 2, **bad})
    with pytest.raises(ConfigError, match=r"^scenarios\[1\]: "):
        parse_config(cfg)
    assert run(tmp_path, cfg) == 2
    assert capsys.readouterr().err.startswith("error: scenarios[1]: ")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "kind,key",
    [("theorem", k) for k in ("max_moment_order", "z_threshold", "ks_level", "energy_level",
                              "energy_permutations")]
    + [("variant", k) for k in ("max_moment_order", "z_threshold", "ks_level")]
    + [("moments", "rtol"), ("dirmult", "tol"), ("stieltjes", "tol_exact"),
       ("stieltjes", "tol_numeric"), ("kerov_tsilevich", "order"), ("kerov_tsilevich", "tol")],
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


@pytest.mark.parametrize("entry", ["stieltjes", "run"])
def test_quadrature_failure_exits_2(tmp_path, capsys, entry):
    if entry == "stieltjes":
        code = main(["stieltjes", "--n", "14", "--grid", "2,3,5"])
    else:
        sc = {"id": "s", "kind": "stieltjes", "seed": 1, "orders": [40]}
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
