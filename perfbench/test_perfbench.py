"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import gate
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from dirichlet_rwa.config import parse_config  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", ["theorem-battery", "exact-identities"])
def test_generated_configs_are_accepted(name):
    wl = workloads.generate(name, 3)
    cfg = parse_config(json.loads(json.dumps(wl.config)))
    assert {sc.id for sc in cfg.scenarios} == set(wl.expected)


def test_battery_keeps_fixtures_and_plants_one_alternative():
    a, b = workloads.generate("theorem-battery", 1), workloads.generate("theorem-battery", 2)
    fixtures = dict(workloads.PAPER_FIXTURES)
    for wl in (a, b):
        for sc in wl.config["scenarios"]:
            if sc["id"] in fixtures:
                assert sc["alphas"] == fixtures[sc["id"]]
        assert [sid for sid, ok in wl.expected.items() if not ok] == ["planted-alternative"]
    assert [sc["seed"] for sc in a.config["scenarios"]] != [
        sc["seed"] for sc in b.config["scenarios"]
    ]


def _report(sid, passed, timing=1.0):
    return {"scenario_id": sid, "overall_pass": passed, "tests": [{"pass": passed}],
            "notes": [], "timing": {"wall_clock_seconds": timing}}


def _write_reports(out, verdicts, timing=1.0):
    out.mkdir(exist_ok=True)
    for sid, passed in verdicts.items():
        (out / f"{sid}.json").write_text(json.dumps(_report(sid, passed, timing)))


EXPECTED = {"fixture": True, "planted-alternative": False}


def test_gate_counts_flipped_planted_verdict(tmp_path):
    _write_reports(tmp_path, {"fixture": True, "planted-alternative": False})
    assert gate.check_run(1, tmp_path, EXPECTED).failed == 0
    _write_reports(tmp_path, {"fixture": True, "planted-alternative": True})
    outcome = gate.check_run(0, tmp_path, EXPECTED)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_gate_counts_false_alarm(tmp_path):
    _write_reports(tmp_path, {"fixture": False, "planted-alternative": False})
    assert gate.check_run(1, tmp_path, EXPECTED).failed == 1


def test_gate_aborts_on_structural_failure(tmp_path):
    _write_reports(tmp_path, {"fixture": True, "planted-alternative": False})
    with pytest.raises(gate.GateError):
        gate.check_run(2, tmp_path, EXPECTED)
    with pytest.raises(gate.GateError):  # exit 0 although a scenario failed
        gate.check_run(0, tmp_path, EXPECTED)
    (tmp_path / "fixture.json").unlink()
    with pytest.raises(gate.GateError):
        gate.check_run(1, tmp_path, EXPECTED)


def _csv(path, rows):
    path.write_text("z_1,z_2\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))


def test_gate_counts_off_simplex_rows(tmp_path):
    path = tmp_path / "z.csv"
    _csv(path, [(0.25, 0.75), (0.5, 0.5 + 1e-9), (-1e-3, 1.001), (0.125, 0.875)])
    outcome = gate.check_csv(0, path, rows=4, cols=2)
    assert (outcome.attempted, outcome.failed) == (4, 2)


def test_gate_aborts_on_csv_shape(tmp_path):
    path = tmp_path / "z.csv"
    _csv(path, [(0.25, 0.75)] * 3)
    with pytest.raises(gate.GateError):
        gate.check_csv(0, path, rows=4, cols=2)
    with pytest.raises(gate.GateError):
        gate.check_csv(0, path, rows=3, cols=3)
    with pytest.raises(gate.GateError):
        gate.check_csv(1, path, rows=3, cols=2)


def test_digest_ignores_only_timing():
    base = {"a.json": _report("a", True, timing=1.0)}
    digest = gate.report_digest(base)
    assert gate.report_digest({"a.json": _report("a", True, timing=2.5)}) == digest
    for key, value in [("notes", ["x"]), ("tests", []), ("overall_pass", False)]:
        changed = {"a.json": {**base["a.json"], key: value}}
        assert gate.report_digest(changed) != digest
    assert gate.report_digest({"b.json": base["a.json"]}) != digest


def test_self_time_and_thread_overlap():
    spans = [
        ("cli.main", 0.0, 10.0, -1, {}),
        ("runner.run_config", 1.0, 9.0, 0, {}),
        ("runner.scenario", 1.0, 6.0, 1, {}),  # two worker threads
        ("runner.scenario", 2.0, 8.0, 1, {}),
        ("moments.expansion", 2.0, 4.0, 2, {"terms": 40}),
    ]
    m, acc = layers.layer_metrics(spans, cpu_per_wall=1.0)
    assert m["runner.self_s"] == pytest.approx(3.0 + 6.0)
    assert m["moments.terms_per_s"] == pytest.approx(20.0)
    assert m["runner.queue_wait_s"] == pytest.approx(0.0 + 1.0)
    assert m["runner.scenario_s_max"] == pytest.approx(6.0)
    assert m["trace.other_s"] == pytest.approx(2.0 + 1.0)
    assert acc["overlap_s"] == pytest.approx(4.0)
    assert acc["self_sum_s"] - acc["overlap_s"] == pytest.approx(10.0)


def test_traced_child_records_layers(tmp_path):
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4;5,6", "--n-samples", "200", "--seed", "5",
            "--out", str(out)]
    res = run.spawn("traced", SRC, tmp_path, argv)
    m, acc = layers.layer_metrics(res["spans"], res["cpu_s"] / res["wall_s"])
    assert res["exit_code"] == 0
    assert m["distributions.dirichlet_calls"] == 4  # the weights, then one per row
    assert m["cli.csv_bytes"] == out.stat().st_size
    assert m["rwa.draws_per_s"] > 0
    assert acc["overlap_s"] == 0.0
    assert acc["self_sum_s"] == pytest.approx(res["wall_s"], rel=0.05)


def test_traced_child_counts_expansion_terms(tmp_path):
    config = {"format_version": 1, "output_dir": "reports", "scenarios": [
        {"id": "m", "kind": "moments", "seed": 1, "max_total_order": 2,
         "sizes": [[3, 2]], "entries": [1.0, 2.0, 3.0], "n_random": 2},
        {"id": "d", "kind": "dirmult", "seed": 2, "max_k": 2, "max_trials": 3,
         "entries": [1.0]},
    ]}
    (tmp_path / "c.json").write_text(json.dumps(config))
    argv = ["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r"),
            "--workers", "2"]
    res = run.spawn("traced", SRC, tmp_path, argv)
    m, _ = layers.layer_metrics(res["spans"], 1.0)
    assert res["exit_code"] == 0
    # two matrices x five indices of total order <= 2; C(s+2, 2) terms each
    per_matrix = sum(math.comb(a + 2, 2) * math.comb(b + 2, 2)
                     for a in range(3) for b in range(3) if 1 <= a + b <= 2)
    assert m["moments.expansion_calls"] == 10
    assert m["moments.terms"] == 2 * per_matrix
    assert m["moments.dirmult_support"] == sum(t + 1 for t in range(4))


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in layers.METRICS.items()
    }


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sample-export", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
