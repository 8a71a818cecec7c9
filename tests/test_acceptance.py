"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (every scenario seed is frozen in
configs/acceptance.json or in this file).
"""
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dirichlet_rwa.config import ScenarioConfig, load_config
from dirichlet_rwa.distributions import DirichletParams
from dirichlet_rwa.moments import (
    DirMultParams,
    MomentIndex,
    dirmult_normalization_check,
    kerov_tsilevich_check,
    rwa_moment_closed_form,
    rwa_moment_expansion,
)
from dirichlet_rwa.runner import moment_indices, run_config, run_scenario
from dirichlet_rwa.rwa import theorem_scenario
from dirichlet_rwa.stieltjes import (
    PowerSemicircleParams,
    equation1_check,
    equation3_residual,
    power_semicircle_transform,
)

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_CONFIG = ROOT / "configs" / "acceptance.json"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    cfg = load_config(ACCEPTANCE_CONFIG)
    start = time.perf_counter()
    code = run_config(cfg, out_dir=out)
    elapsed = time.perf_counter() - start
    return cfg, out, code, elapsed


def test_criterion_1_theorem_statistical_suite(acceptance_run):
    cfg, out, code, elapsed = acceptance_run
    reports = {p.stem: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))}
    ok = (
        code == 0
        and len(reports) == 5
        and all(r["overall_pass"] for r in reports.values())
        and elapsed < 60.0
    )
    report(
        "1 theorem-statistical-suite",
        ok,
        f"{len(reports)} fixtures, exit={code}, {elapsed:.1f}s",
    )


def test_criterion_2_planted_alternative_power():
    # fixture (d) with one target parameter bumped by +1 must be detected
    start = time.perf_counter()
    sc = ScenarioConfig(
        "planted",
        "theorem",
        20260201,
        {
            "alphas": [[1, 2, 3], [4, 5, 6]],
            "n_samples": 100_000,
            "target_override": [6, 7, 9],
        },
    )
    rep = run_scenario(sc, config_hash="acceptance")
    elapsed = time.perf_counter() - start
    n_fail = sum(1 for t in rep["tests"] if not t["pass"])
    ok = n_fail >= 1 and elapsed < 15.0
    report("2 planted-alternative-power", ok, f"{n_fail} failing tests, {elapsed:.1f}s")


def _moment_fixture_specs():
    entries = (0.5, 1.0, 2.0, 3.5)
    rng = np.random.default_rng(20260301)
    specs = []
    # exhaustive over the 2x2 grid, seeded samples for the larger shapes
    for combo in itertools.product(entries, repeat=4):
        specs.append(np.asarray(combo).reshape(2, 2))
    for n, k in [(2, 3), (3, 2), (3, 3)]:
        for _ in range(30):
            specs.append(rng.choice(entries, size=(n, k)))
    return specs


def test_criterion_3_moment_oracle_equality():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for mat in _moment_fixture_specs():
        sc = theorem_scenario(mat)
        for s in moment_indices(sc.k, 5):
            idx = MomentIndex(s)
            a = rwa_moment_expansion(sc, idx)
            b = rwa_moment_closed_form(sc, idx)
            worst = max(worst, abs(a - b) / b)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(
        "3 moment-oracle-equality",
        ok,
        f"{checked} moments, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_dirmult_normalization():
    start = time.perf_counter()
    entries = (0.5, 1.0, 2.0, 5.0)
    worst = 0.0
    for k in (2, 3, 4):
        for alpha in itertools.product(entries, repeat=k):
            p = DirichletParams(alpha)
            for trials in range(11):
                total = dirmult_normalization_check(DirMultParams(p, trials))
                worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report("4 dirmult-normalization", ok, f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_stieltjes_residuals():
    start = time.perf_counter()
    grid = [1.5, 2.0, 3.0, 5.0]
    ok = True
    details = []
    for n, tol in ((2, 1e-8), (3, 1e-8), (4, 1e-6)):
        r3 = float(np.max(equation3_residual(n, grid)))
        r1 = float(np.max(equation1_check(n, grid)))
        details.append(f"n={n}: {max(r3, r1):.1e}")
        ok = ok and r3 < tol and r1 < tol
        p = PowerSemicircleParams(n)
        for z in (10.0, 1e3, 1e6):
            ok = ok and abs(z * power_semicircle_transform(p, z) - 1.0) <= 2.0 / z
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report("5 stieltjes-residuals", ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_kerov_tsilevich_identity():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    t_grid = [
        (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5),
        (0.25, 0.1), (-0.4, 0.3), (0.0, 0.5), (0.0, 0.0),
    ]
    for alpha in ((0.5, 0.5), (1.0, 2.0)):
        for t in t_grid:
            series, product, tail = kerov_tsilevich_check(alpha, t, order=12)
            resid = abs(series - product)
            worst = max(worst, resid - tail)
            ok = ok and resid <= tail + 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        "6 kerov-tsilevich-identity",
        ok,
        f"worst residual beyond tail bound {worst:.2e}, {elapsed:.1f}s",
    )


def _strip_timing(report_dict):
    rep = dict(report_dict)
    rep.pop("timing", None)
    return rep


def test_criterion_7_determinism(acceptance_run, tmp_path):
    cfg, first_out, _, _ = acceptance_run
    second_out = tmp_path / "rerun"
    run_config(cfg, out_dir=second_out)
    ok = True
    for path in sorted(first_out.glob("*.json")):
        a = _strip_timing(json.loads(path.read_text()))
        b = _strip_timing(json.loads((second_out / path.name).read_text()))
        sa = json.dumps(a, sort_keys=True)
        sb = json.dumps(b, sort_keys=True)
        ok = ok and sa == sb
    report("7 determinism", ok, f"{len(list(first_out.glob('*.json')))} reports compared")
