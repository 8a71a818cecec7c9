import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirichlet_rwa import cli, runner, rwa, stattest, stieltjes
from dirichlet_rwa.cli import main
from dirichlet_rwa.config import ConfigError, ScenarioConfig, load_config, parse_config
from dirichlet_rwa.distributions import DirichletParams, RngStream
from dirichlet_rwa.moments import rwa_moment_expansion
from dirichlet_rwa.runner import (MAX_MOMENT_ORDER, moment_indices, run_config, run_scenario,
                                   write_report)
from dirichlet_rwa.rwa import sample_rwa_direct_batch, theorem_scenario
from dirichlet_rwa.stattest import ks_marginal, moment_ztest
from test_distributions import SIMPLEX_SUM_TOL
from test_rwa import B, einsum_sample_batch
from test_stattest import energy_record


def small_config(out_dir, **overrides):
    cfg = {
        "format_version": 1,
        "output_dir": str(out_dir),
        "scenarios": [
            {
                "id": "tiny",
                "kind": "theorem",
                "seed": 7,
                "alphas": [[1, 1], [1, 1]],
                "n_samples": 20000,
            }
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_small_config_exit0(tmp_path):
    path = write_config(tmp_path, small_config(tmp_path / "reports"))
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "reports" / "tiny.json").read_text())
    assert report["overall_pass"] is True
    assert report["seed"] == 7
    assert report["tool_version"]
    assert report["config_hash"]


def test_run_planted_wrong_target_exit1(tmp_path):
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"][0]["target_override"] = [3, 1]
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 1


def test_run_negative_alpha_exit2(tmp_path):
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"][0]["alphas"] = [[1, -1], [1, 1]]
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2


def test_run_malformed_json_exit2_line_anchored(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format_version": 1,\n  oops\n}')
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err  # line-anchored message


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = small_config(tmp_path / "r")
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config(cfg)


def test_unknown_scenario_key_rejected(tmp_path):
    cfg = small_config(tmp_path / "r")
    cfg["scenarios"][0]["typo_key"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(cfg)


def test_missing_seed_rejected(tmp_path):
    cfg = small_config(tmp_path / "r")
    del cfg["scenarios"][0]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cfg)


def test_duplicate_scenario_ids_rejected(tmp_path):
    cfg = small_config(tmp_path / "r")
    cfg["scenarios"].append(dict(cfg["scenarios"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(cfg)


def test_load_config_hash_stable(tmp_path):
    p1 = write_config(tmp_path, small_config(tmp_path / "r"), "a.json")
    p2 = write_config(tmp_path, small_config(tmp_path / "r"), "b.json")
    assert load_config(p1).config_hash == load_config(p2).config_hash


def test_sample_deterministic_and_header(tmp_path):
    args = [
        "sample",
        "--alphas",
        "0.5,0.5;0.5,0.5",
        "--n-samples",
        "3",
        "--seed",
        "9",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "z_1,z_2"
    assert len(lines) == 4


def test_sample_column_means_uniform_target(tmp_path):
    out = tmp_path / "samples.csv"
    assert (
        main(
            [
                "sample",
                "--alphas",
                "0.5,0.5;0.5,0.5",
                "--n-samples",
                "100000",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert 0.49 < data[:, 0].mean() < 0.51
    assert 0.49 < data[:, 1].mean() < 0.51


def test_verify_theorem_johnson_kotz(tmp_path):
    code = main(
        [
            "verify-theorem",
            "--alphas",
            "2,2;2,2",
            "--n-samples",
            "50000",
            "--seed",
            "13",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "verify-theorem.json").read_text())
    assert report["overall_pass"] is True


def test_stieltjes_subcommand_csv(tmp_path):
    out = tmp_path / "resid.csv"
    code = main(
        ["stieltjes", "--n", "3", "--grid", "1.5,2,3,5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,z,lhs,rhs,residual"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-8


def test_stieltjes_csv_lhs_is_the_computed_left_side(tmp_path):
    # n=3, z=5: the computed left side is below the right side, so a column
    # written as rhs + residual would sit above it.
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "3", "--grid", "5", "--out", str(out)]) == 0
    _, z, lhs, rhs, resid = out.read_text().splitlines()[1].split(",")
    assert float(z) == 5.0
    assert float(lhs) < float(rhs)
    assert abs(float(lhs) - float(rhs)) <= float(resid)


NEAR_SUPPORT_GRID = "1.26,1.3,1.5,1.9,2,3,5"


@pytest.mark.parametrize("n, grid", [(n, NEAR_SUPPORT_GRID) for n in range(2, 9)]
                         + [(6, "1.26,2"), (5, "1.5"), (5, "1.5,2")])
def test_stieltjes_command_exits_as_run(tmp_path, n, grid):
    # one judge: the command is the one-scenario run of its order and grid
    cfg = small_config(tmp_path / "reports", scenarios=[
        {"id": "stieltjes", "kind": "stieltjes", "seed": 0, "orders": [n],
         "grid": [float(z) for z in grid.split(",")]},
    ])
    run = main(["run", "--config", str(write_config(tmp_path, cfg))])
    command = main(["stieltjes", "--n", str(n), "--grid", grid,
                    "--out", str(tmp_path / "resid.csv")])
    assert command == run


def test_stieltjes_csv_lists_the_points_run_checks(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "6", "--grid", "1.26,2,3", "--out", str(out)]) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == [
        "1.26", "2", "3"]
    assert "stieltjes: PASS (2/2 checks)" in capsys.readouterr().out


@pytest.mark.parametrize("n, z", [("8", "100"), ("5", "1.5")])
def test_stieltjes_orders_above_3_are_checked_at_every_point(tmp_path, n, z):
    assert main(["stieltjes", "--n", n, "--grid", z, "--out", str(tmp_path / "r.csv")]) == 0


def test_stieltjes_far_field_left_side_is_relatively_close(tmp_path):
    # Both sides are about 1e-30 here: an absolute bound would take any left
    # side, of either sign.
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "5", "--grid", "1e6", "--out", str(out)]) == 0
    _, _, lhs, rhs, resid = out.read_text().splitlines()[1].split(",")
    assert abs(float(lhs) - float(rhs)) <= 1e-8 * abs(float(rhs))
    assert float(resid) <= 1e-8


def test_verify_moments_subcommand(tmp_path):
    code = main(["verify-moments", "--max-order", "3", "--seed", "17", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify-moments.json").read_text())
    assert all(t["pass"] for t in report["tests"])


def test_bad_alpha_matrix_string_exit2():
    assert main(["sample", "--alphas", "1,2;x,4", "--seed", "1", "--out", "/tmp/x.csv"]) == 2


def test_run_all_scenario_kinds(tmp_path):
    cfg = {
        "format_version": 1,
        "output_dir": str(tmp_path / "reports"),
        "scenarios": [
            {
                "id": "variant",
                "kind": "variant",
                "seed": 31,
                "alpha": [1.0, 2.0],
                "n_samples": 20000,
            },
            {
                "id": "moment-equality",
                "kind": "moments",
                "seed": 32,
                "sizes": [[2, 2]],
                "n_random": 5,
            },
            {"id": "dirmult", "kind": "dirmult", "seed": 33, "max_trials": 4, "max_k": 3},
            {
                "id": "stieltjes",
                "kind": "stieltjes",
                "seed": 34,
                "orders": [2, 3],
                "grid": [2.0, 3.0],
            },
            {
                "id": "product-mgf",
                "kind": "kerov_tsilevich",
                "seed": 35,
                "alphas": [[0.5, 0.5]],
                "t_values": [[0.5, -0.5]],
            },
        ],
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--workers", "2"]) == 0
    reports = {p.stem: json.loads(p.read_text()) for p in (tmp_path / "reports").glob("*.json")}
    assert len(reports) == 5
    assert all(r["overall_pass"] for r in reports.values())
    assert any("symmetric" in n for n in reports["variant"]["notes"])
    assert any("coefficient" in n for n in reports["stieltjes"]["notes"])


RECORD_KINDS = {"moment", "ks", "energy", "variant-resolution", "moment-equality",
                "dirmult-normalization", "derivative-identity", "product-mgf-identity"}
COMPARISONS = {"<=": lambda v, b: v <= b, "<": lambda v, b: v < b, ">": lambda v, b: v > b}


def test_every_record_passes_by_its_value_comparison_and_bound(tmp_path, monkeypatch):
    # The acceptance config and the benchmark's two report workloads at seed
    # 7 (sample-export writes a CSV, no report) cover every record kind.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [load_config(root / "configs" / "acceptance.json")]
    configs += [parse_config(workloads.generate(name, 7).config)
                for name in ("theorem-battery", "exact-identities")]
    kinds = set()
    for i, cfg in enumerate(configs):
        run_config(cfg, out_dir=tmp_path / str(i))
        for path in (tmp_path / str(i)).glob("*.json"):
            report = json.loads(path.read_text())
            assert report["format_version"] == 2
            for t in report["tests"]:
                assert {"kind", "value", "compare", "bound", "path", "size"} <= t.keys(), t
                assert t["pass"] is COMPARISONS[t["compare"]](t["value"], t["bound"]), t
                kinds.add(t["kind"])
    assert kinds == RECORD_KINDS


def test_failed_lines_name_path_value_and_bound(tmp_path, capsys, monkeypatch):
    # verify-theorem on the benchmark's planted alternative, whose claimed
    # target moves one column sum: one line per failed record.  Only the
    # energy record, which compares the two replicates, passes.
    scenario = cli._scenario
    monkeypatch.setattr(cli, "_scenario", lambda *args, **params: scenario(
        *args, **params, target_override=[6, 7, 9]))
    argv = ["verify-theorem", "--alphas", "1,2,3;4,5,6", "--n-samples", "100000",
            "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 1
    failed = [t for t in json.loads((tmp_path / "verify-theorem.json").read_text())["tests"]
              if not t["pass"]]
    assert {t["path"] for t in failed} == {"direct", "gamma"}
    lines = [line for line in capsys.readouterr().out.splitlines() if "failed:" in line]
    assert lines == [f"  failed: {t['kind']} ({t['path']}): value {cli._fmt(t['value'])} "
                     f"not {t['compare']} bound {cli._fmt(t['bound'])}" for t in failed]
    assert lines[0].startswith("  failed: moment (direct): value ")
    assert lines[0].endswith(" not <= bound 5")


TINY_ALPHAS = "1e-3,1e-3;1e-3,1e-3"


@pytest.mark.parametrize("command", ["sample", "verify-theorem"])
def test_tiny_alphas_run_without_error(tmp_path, command):
    # Gamma(1e-3) draws underflow to zero about half the time; the sampler
    # must still return points of the simplex, not NaN or an error.
    argv = [command, "--alphas", TINY_ALPHAS, "--n-samples", "1000", "--seed", "1"]
    if command == "verify-theorem":
        # Its KS checks may fail on this true instance (exit 1), but it must
        # not raise or exit 2.
        assert main(argv + ["--out", str(tmp_path / "reports")]) in (0, 1)
        return
    out = tmp_path / "z.csv"
    assert main(argv + ["--out", str(out)]) == 0
    z = np.loadtxt(out, delimiter=",", skiprows=1)
    assert z.shape == (1000, 2) and not np.isnan(z).any()
    assert np.max(np.abs(z.sum(axis=1) - 1.0)) <= SIMPLEX_SUM_TOL


@pytest.mark.parametrize("sid", ["a/b", "../x", "", ["x"], 5],
                         ids=["slash", "parent", "empty", "list", "number"])
def test_bad_scenario_id_exits_2(tmp_path, capsys, sid):
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"][0]["id"] = sid
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: scenarios[0]: ")
    assert not (tmp_path / "reports").exists()


def test_verify_theorem_rejects_one_sample_exit2(tmp_path, capsys):
    argv = ["verify-theorem", "--alphas", "1,2;3,4", "--n-samples", "1", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "n_samples must be an integer >= 4" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("kind", ["theorem", "variant"])
@pytest.mark.parametrize("n_samples", [1, 0, -5, 2.5, True, "1000", None, 3])
def test_run_rejects_bad_n_samples_exit2(tmp_path, capsys, kind, n_samples):
    sc = {"id": "s", "kind": kind, "seed": 1, "n_samples": n_samples}
    sc.update({"alphas": [[1, 2], [3, 4]]} if kind == "theorem" else {"alpha": [1, 2]})
    cfg = {"format_version": 1, "output_dir": str(tmp_path / "r"), "scenarios": [sc]}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "n_samples must be an integer >= 4" in capsys.readouterr().err


def test_integral_float_n_samples_accepted():
    cfg = small_config("r")
    cfg["scenarios"][0]["n_samples"] = 2e4
    assert parse_config(cfg).scenarios[0].params["n_samples"] == 2e4


def test_verify_theorem_runs_at_n_samples_minimum(tmp_path):
    # two energy blocks of two rows
    argv = ["verify-theorem", "--alphas", "1,2;3,4", "--n-samples", "4", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path)]) in (0, 1)
    (path,) = tmp_path.glob("*.json")

    def non_finite(literal):
        raise AssertionError(f"report holds {literal}")

    report = json.loads(path.read_text(), parse_constant=non_finite)
    (energy,) = [t for t in report["tests"] if t["kind"] == "energy"]
    assert (energy["block_rows"], energy["size"]) == (2, 2)


def test_battery_replicates_come_from_distinct_streams():
    # Both replicates use one sampler, on streams (seed, 1) and (seed, 2);
    # drawn from one stream they would be identical, and the energy record
    # would be that of a replicate against itself.
    params = {"alphas": [[1, 2], [3, 4]], "n_samples": 2000}
    report = run_scenario(ScenarioConfig("replicates", "theorem", 3, params), "adhoc")
    (energy,) = [t for t in report["tests"] if t["path"] == "direct-vs-gamma"]
    assert energy["kind"] == "energy"
    scenario = theorem_scenario(params["alphas"])
    direct, gamma = (sample_rwa_direct_batch(scenario, 2000, RngStream(3, i)) for i in (1, 2))
    assert energy == {**energy_record(direct, gamma), "path": "direct-vs-gamma"}
    assert energy != {**energy_record(direct, direct), "path": "direct-vs-gamma"}


def one_after_another(alphas, seed, n_samples):
    """Reference: the battery's records from whole replicates on streams
    (seed, 1) and (seed, 2), each test run after the one before."""
    scenario = theorem_scenario(alphas)
    target = DirichletParams(scenario.target_alpha)
    direct, gamma = (sample_rwa_direct_batch(scenario, n_samples, RngStream(seed, i))
                     for i in (1, 2))
    tests = []
    for path, batch in (("direct", direct), ("gamma", gamma)):
        tests += [{**moment_ztest(batch, target, s), "path": path}
                  for s in moment_indices(scenario.k, MAX_MOMENT_ORDER)]
        tests += [{**ks_marginal(batch, target, c), "path": path} for c in range(scenario.k)]
    return tests + [{**energy_record(direct, gamma), "path": "direct-vs-gamma"}]


# the fewest draws; one sampler block; three sampler blocks, the last partial,
# with energy blocks across their seams and rows past the last energy block.
# Each on a k = 3 matrix, whose energy blocks take scipy's distance matrices,
# and on a k = 2 matrix (ids ending in "-k2"), whose energy blocks sort their
# first coordinates.
@pytest.mark.parametrize("n_samples, alphas", [
    pytest.param(n, alphas, id=f"{n}{suffix}")
    for suffix, alphas in (("", [[1, 2, 3], [4, 5, 6]]), ("-k2", [[1, 2], [3, 4]]))
    for n in (4, B, 2 * B + 137)])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_battery_records_equal_tests_run_one_after_another(n_samples, alphas, cpus,
                                                           monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    monkeypatch.setattr(rwa, "ThreadPoolExecutor", RecordingPool)
    params = {"alphas": alphas, "n_samples": n_samples}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so an unfinished row would show
    try:
        report = run_scenario(ScenarioConfig("overlap", "theorem", 11, params), "adhoc")
    finally:
        sys.setswitchinterval(interval)
    # the energy test shares the sampler's one pool of min(CPUs, 1 + n)
    # threads, or of one thread for a single block
    assert pools == ([min(cpus, 3)] if n_samples > B else [1])
    assert report["tests"] == one_after_another(alphas, 11, n_samples)


def raise_degenerate(*args):
    raise ValueError("degenerate batch")


@pytest.mark.parametrize("where", ["energy block", "moment test", "ks test"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_battery_error_exits_2_and_leaves_no_thread(tmp_path, capsys, monkeypatch, where, cpus):
    # an energy block, a moment z-test or a KS test that raises on a pool
    # thread while the other tasks are queued: the run exits 2 with the
    # message, and the queued tasks are cancelled or joined
    if where == "energy block":
        monkeypatch.setattr(runner, "energy_block_statistics", raise_degenerate)
        monkeypatch.setattr(stattest, "energy_block_statistics", raise_degenerate)
    elif where == "moment test":
        monkeypatch.setattr(runner, "moment_ztest", raise_degenerate)
    else:
        monkeypatch.setattr(runner, "ks_marginal", raise_degenerate)
    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    threads = threading.active_count()
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"][0]["n_samples"] = 3 * B
    argv = ["run", "--config", str(write_config(tmp_path, cfg))]
    codes = []
    battery = threading.Thread(target=lambda: codes.append(main(argv)))
    battery.start()
    battery.join(timeout=60)
    assert not battery.is_alive() and codes == [2]
    err = capsys.readouterr().err
    assert err == "error: degenerate batch\n", err
    assert not (tmp_path / "reports").exists()
    assert threading.active_count() == threads


def test_run_prints_one_verdict_line_per_scenario(tmp_path, capsys):
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"].append({**cfg["scenarios"][0], "id": "planted", "target_override": [3, 1]})
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("planted: FAIL (") and lines[0].endswith("/23 checks)")
    assert lines[1] == "tiny: PASS (23/23 checks)"


def reference_csv(z):
    """The sample CSV written value by value with f-strings."""
    header = ",".join(f"z_{j + 1}" for j in range(z.shape[1])) + "\n"
    return header + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in z)


def assert_same_lines(text, ref):
    # A plain == on strings of 65k lines makes pytest build a diff for minutes.
    a, b = text.splitlines(keepends=True), ref.splitlines(keepends=True)
    diff = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    same = text == ref
    assert same, f"line {diff}: {a[diff:diff + 1]} != {b[diff:diff + 1]}"


def chunked_csv(z):
    fh = io.StringIO()
    fh.write(",".join(f"z_{j + 1}" for j in range(z.shape[1])) + "\n")
    cli._write_csv_rows(fh, z)
    return fh.getvalue()


# 0.1 + 0.2 = 0.30000000000000004 is the nearest double only at 17 digits.
AWKWARD = [0.0, 1.0, 1 - 2**-53, 5e-324, 1e-300, 0.1 + 0.2]


def test_awkward_values_need_and_survive_17_digits():
    assert float(f"{AWKWARD[-1]:.16g}") != AWKWARD[-1]
    text = chunked_csv(np.array([AWKWARD]))
    assert text == reference_csv(np.array([AWKWARD]))
    assert [float(v) for v in text.splitlines()[1].split(",")] == AWKWARD


@pytest.mark.parametrize("offset", [None, 1, 0, -1], ids=["one", "block+1", "block", "block-1"])
def test_chunked_csv_matches_per_value_reference(offset):
    rows = 1 if offset is None else cli.CSV_BLOCK_ROWS + offset
    z = np.random.default_rng(rows).dirichlet([0.5, 1.0, 2.0], size=rows)
    # awkward values at both ends and on both sides of the block boundary
    for r in {0, rows - 1, min(cli.CSV_BLOCK_ROWS, rows) - 1, min(cli.CSV_BLOCK_ROWS, rows - 1)}:
        z[r] = np.roll(AWKWARD, r)[:3]
    text = chunked_csv(z)
    assert_same_lines(text, reference_csv(z))
    assert text.count("\n") == rows + 1


def test_chunked_csv_empty_is_header_only():
    assert chunked_csv(np.empty((0, 4))) == reference_csv(np.empty((0, 4))) == "z_1,z_2,z_3,z_4\n"


def test_decade_thresholds_round_up_from_their_powers_of_ten():
    # The kernel takes v >= 1e-4 and reads floor(log10 v) off v >= 1e-3, 1e-2,
    # 1e-1: exact because each threshold double lies above its power of ten
    # and the one before it below.  That one lies more than half a unit of its
    # 17th digit below, so the 17-digit rounding never carries into the next
    # decade.
    for k in range(1, 5):
        t, below = Fraction(10.0 ** -k), Fraction(np.nextafter(10.0 ** -k, 0))
        assert below < Fraction(1, 10**k) <= t
        assert (Fraction(1, 10**k) - below) * 10 ** (17 + k) > Fraction(1, 2)


def halfway_values():
    """Every v in [1e-4, 1) whose 17-digit rounding is an exact tie: v * 10**p
    is an odd multiple of 1/2 for p = 16 - floor(log10 v), so v = q / 2**(p + 1)
    with q odd."""
    values = []
    for p in range(17, 21):
        scale = 2 ** (p + 1)
        q_lo = -(-scale // 10 ** (p - 16))  # v >= 10**(16 - p)
        q_hi = -(-scale // 10 ** (p - 17))  # v < 10**(17 - p)
        values.append(np.arange(q_lo | 1, q_hi, 2) / float(scale))
    return np.concatenate(values)


def ulps_around(x, before, after):
    bits = np.array([x]).view(np.int64)[0]
    return (bits + np.arange(-before, after + 1)).view(np.float64)


def test_csv_kernel_matches_reference_on_halfway_values():
    v = halfway_values()
    assert len(v) == 147_221
    assert all(Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1 == Fraction(1, 2)
               for x in v[::997])
    z = v.reshape(-1, 1)
    assert_same_lines(chunked_csv(z), reference_csv(z))


def test_csv_kernel_matches_reference_around_decades():
    v = np.concatenate([ulps_around(x, 3000, 3000) for x in (1e-3, 1e-2, 0.1, 1.0)]
                       + [ulps_around(1e-4, 0, 6000)])
    z = v.reshape(-1, 5)
    assert_same_lines(chunked_csv(z), reference_csv(z))


def test_csv_kernel_matches_reference_on_log_uniform_values():
    z = 10.0 ** np.random.default_rng(17).uniform(-4, 0, size=(250_000, 4))
    assert_same_lines(chunked_csv(z), reference_csv(z))


@pytest.mark.parametrize("value", AWKWARD, ids=repr)
def test_csv_kernel_blocks_with_one_awkward_value(value):
    rows = cli.CSV_BLOCK_ROWS
    z = np.random.default_rng(rows).uniform(1e-4, 1, size=(2 * rows, 3))
    flat = z.reshape(-1)
    for i in (0, rows * 3 - 1, rows + 1, 2 * rows * 3 - 1):
        flat[i] = value
    assert_same_lines(chunked_csv(z), reference_csv(z))


def test_sample_csv_bytes_match_reference_on_readme_matrix(tmp_path):
    # 0.5,0.5;0.5,0.5 puts about 1 value in 10,000 below 1e-4, so some blocks
    # mix the kernel's text with %.17g's and some hold the kernel's alone
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "0.5,0.5;0.5,0.5", "--n-samples", "200000", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    z = einsum_sample_batch(theorem_scenario([[0.5, 0.5], [0.5, 0.5]]), 200_000, RngStream(1, 1))
    outside = [((block < 1e-4) | (block >= 1)).any()
               for block in np.array_split(z, range(cli.CSV_BLOCK_ROWS, len(z), cli.CSV_BLOCK_ROWS))]
    assert any(outside) and not all(outside)
    assert_same_lines(out.read_text(), reference_csv(z))


def test_sample_csv_bytes_match_reference_on_tiny_matrix(tmp_path):
    # 1e-3,1e-3;1e-3,1e-3 puts about three values in four at exactly 0 or 1,
    # which take constant fields; -0.0 keeps its %.17g directive and "-0"
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1e-3,1e-3;1e-3,1e-3", "--n-samples", "200000", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    z = einsum_sample_batch(theorem_scenario([[1e-3, 1e-3], [1e-3, 1e-3]]), 200_000,
                            RngStream(3, 1))
    assert np.mean((z == 0) | (z == 1)) > 0.5
    assert_same_lines(out.read_text(), reference_csv(z))
    r = 3 * cli.CSV_BLOCK_ROWS + 5
    z[r, 1] = -0.0
    text = chunked_csv(z)
    assert text.splitlines()[1 + r].split(",")[1] == "-0"
    assert_same_lines(text, reference_csv(z))


def test_sample_csv_bytes_match_reference(tmp_path):
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4;5,6", "--n-samples", "1000", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    z = einsum_sample_batch(theorem_scenario([[1, 2], [3, 4], [5, 6]]), 1000, RngStream(5, 1))
    assert out.read_bytes() == reference_csv(z).encode("utf-8")


def test_sample_zero_rows_writes_header_only(tmp_path):
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4", "--n-samples", "0", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == b"z_1,z_2\n"


@pytest.mark.parametrize("n_samples", [0, 1, B - 1, B, 2 * B + 137])
@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_csv_equals_one_write_of_all_rows(tmp_path, monkeypatch, n_samples, cpus):
    z = sample_rwa_direct_batch(theorem_scenario([[1, 2, 3], [4, 5, 6]]), n_samples,
                                RngStream(5, 1))
    expected = chunked_csv(z)
    writes = []

    def recorded_write(fh, z):
        writes.append(len(z))
        write_csv_rows(fh, z)

    write_csv_rows = cli._write_csv_rows
    monkeypatch.setattr(cli, "_write_csv_rows", recorded_write)
    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2,3;4,5,6", "--n-samples", str(n_samples), "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected
    # one write per sampler block, as the block's rows become final; each
    # block is whole CSV blocks, so the CSV is formatted in the same blocks
    assert writes == [min(B, n_samples - start) for start in range(0, n_samples, B)]
    assert B % cli.CSV_BLOCK_ROWS == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_sample_write_error_exits_2_and_leaves_no_csv_or_thread(tmp_path, capsys, monkeypatch,
                                                                 cpus):
    def fail_second_block(fh, z):
        calls.append(len(z))
        if len(calls) == 2:
            raise OSError("disk full")
        write_csv_rows(fh, z)

    calls, write_csv_rows = [], cli._write_csv_rows
    monkeypatch.setattr(cli, "_write_csv_rows", fail_second_block)
    monkeypatch.setattr(rwa, "_cpus", lambda: cpus)
    threads = threading.active_count()
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4", "--n-samples", str(3 * B), "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert calls == [B, B]
    assert not out.exists()
    assert threading.active_count() == threads


def test_sample_negative_count_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled despite a negative count")

    monkeypatch.setattr(cli, "sample_rwa_direct_batch", no_sampling)
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4", "--n-samples", "-1", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "--n-samples" in capsys.readouterr().err
    assert not out.exists()


def test_sample_bad_output_path_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the output file was opened")

    monkeypatch.setattr(cli, "sample_rwa_direct_batch", no_sampling)
    out = tmp_path / "missing" / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4", "--n-samples", "1000", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("alphas", ["inf,1;1,1", "1e308,1e308;1,1", "nan,1;1,1"])
def test_sample_non_finite_concentrations_exit_2(tmp_path, capsys, alphas):
    # inf passes the > 0 check; 1e308 + 1e308 overflows in the row sums
    out = tmp_path / "z.csv"
    assert main(["sample", "--alphas", alphas, "--n-samples", "5", "--seed", "1",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas, name", [("1e308,1e308;1,1", "row 0 of x"),
                                          ("1,1;1e308,1e308", "row 1 of x"),
                                          ("1e308,1;1e308,1", "weights")])
def test_refused_concentration_vector_is_named(tmp_path, capsys, alphas, name):
    # a row's sum overflows, or only the weights' sum (the row sums') does
    out = tmp_path / "z.csv"
    assert main(["sample", "--alphas", alphas, "--n-samples", "5", "--seed", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {name}: concentrations must be finite and > 0 "
                                       "with a finite sum, got (1e+308, 1e+308)\n")
    # the column sums equal the weights' in total, so only an explicit target
    # fails on its own
    cfg = {"format_version": 1, "output_dir": str(tmp_path / "reports"),
           "scenarios": [{"id": "t", "kind": "theorem", "seed": 1, "alphas": [[1, 2], [3, 4]],
                          "n_samples": 100, "target_override": [1e308, 1e308]}]}
    with pytest.raises(ConfigError, match=r"^scenarios\[0\]: target: concentrations must be "):
        parse_config(cfg)


# 10**15 draws ask numpy for petabytes, beyond the address space: the
# allocation fails at once, with nothing touched
TOO_MANY_DRAWS = 10**15


def test_sample_too_many_draws_exits_2_and_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "z.csv"
    argv = ["sample", "--alphas", "1,2;3,4", "--n-samples", str(TOO_MANY_DRAWS), "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_too_many_draws_exits_2_and_writes_no_report(tmp_path, capsys):
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"][0]["n_samples"] = TOO_MANY_DRAWS
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("argv, flag", [
    (["sample", "--alphas", "1,2;3", "--seed", "1", "--out", "z.csv"], "--alphas"),
    (["verify-theorem", "--alphas", "1,2;3,x", "--seed", "1"], "--alphas"),
    (["stieltjes", "--n", "3", "--grid", ""], "--grid"),
    (["stieltjes", "--n", "3", "--grid", "2,,3"], "--grid"),
])
def test_parse_errors_name_the_flag(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {flag} "), err
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_one_exit_2(tmp_path, capsys, monkeypatch, workers):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a scenario with fewer than one worker")

    monkeypatch.setattr(cli, "run_config", no_run)
    path = write_config(tmp_path, small_config(tmp_path / "reports"))
    assert main(["run", "--config", str(path), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("error: --workers must be >= 1")


@pytest.mark.parametrize("n, z", [("5", "100"), ("6", "100"), ("4", "1000"), ("13", "5"),
                                  ("14", "2,3,5")])
def test_stieltjes_far_field_converges(tmp_path, n, z):
    # far from the support both sides fall like z^-n; the left side is a
    # positive integral, judged relative to the right side
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", n, "--grid", z, "--out", str(out)]) == 0


def test_stieltjes_non_finite_terms_exit_2(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "3", "--grid", "1e308", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("z", ["1e200", "1e103"])
def test_stieltjes_right_side_without_a_relative_residual_exits_2(tmp_path, z):
    # At n = 3 the right side underflows to 0 at z = 1e200 and is subnormal
    # at z = 1e103.
    out = str(tmp_path / "resid.csv")
    proc = cli_process(["stieltjes", "--n", "3", "--grid", z, "--out", out])
    assert proc.returncode == 2
    assert proc.stderr == (f"error: the identity's right side is zero, subnormal or not "
                           f"finite at z=[{float(z)!r}]\n")
    assert not Path(out).exists()


def test_stieltjes_unresolved_point_exits_2_and_is_named(tmp_path, capsys):
    # At n = 40, z = 1.000001 the last two node counts differ by 2.5e-8 relative.
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "40", "--grid", "2,1.000001,3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature of E[(z - X)^-40] did not converge at z=[1.000001] ")
    assert not out.exists()


def cli_process(argv, **env):
    """The CLI in a fresh interpreter, whose stderr shows numpy's warnings as
    a user sees them, with ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dirichlet_rwa.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)


# numpy's AVX-512 loops (power, exp, log, ...) are not all correctly rounded;
# with these targets disabled, numpy dispatches to its AVX2 or baseline loops.
# Features the CPU lacks are ignored.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_battery_report_independent_of_numpy_cpu_dispatch(tmp_path):
    reports = []
    for i, disabled in enumerate(["", NO_AVX512]):
        out = tmp_path / f"reports-{i}"
        proc = cli_process(["verify-theorem", "--alphas", "1,2,3;4,5,6", "--n-samples", "20000",
                            "--seed", "3", "--out", str(out)],
                           NPY_DISABLE_CPU_FEATURES=disabled)
        assert proc.returncode == 0, proc.stderr
        (path,) = out.glob("*.json")
        report = json.loads(path.read_text())
        report.pop("timing")
        reports.append(report)
    assert reports[0] == reports[1]


# numpy's loops whose SIMD versions are not all correctly rounded.  A `**` on
# an array reaches np.power without looking the attribute up, so it would
# slip past the patch below; src/ has no such use.
TRANSCENDENTALS = ("log", "exp", "power", "float_power", "sin", "cos", "log1p", "expm1")


def test_reports_call_no_numpy_transcendental(tmp_path, monkeypatch):
    # Every report kind, run with those numpy functions raising, must equal an
    # unpatched run: no report number depends on which loop numpy dispatches
    # to, by construction.  The exact-identities workload at seed 7, a
    # Stieltjes scenario up to order 200 near the support, and 20k-draw
    # theorem (k = 2 and k = 3) and variant scenarios.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    scenarios = workloads.exact_identities(7).config["scenarios"] + [
        {"id": "stieltjes-high", "kind": "stieltjes", "seed": 6,
         "orders": list(range(2, 41)) + [100, 200], "grid": [1.01, 1.26, 1.5, 2, 3, 5, 17]},
        {"id": "theorem-k2", "kind": "theorem", "seed": 3, "alphas": [[1, 2], [3, 4]],
         "n_samples": 20000},
        {"id": "theorem-k3", "kind": "theorem", "seed": 3, "alphas": [[1, 2, 3], [4, 5, 6]],
         "n_samples": 20000},
        {"id": "variant", "kind": "variant", "seed": 3, "alpha": [1, 2, 3], "n_samples": 20000},
    ]
    cfg = parse_config({"format_version": 1, "output_dir": "reports", "scenarios": scenarios})

    def reports(out):
        run_config(cfg, out_dir=out)
        found = {}
        for path in sorted(out.glob("*.json")):
            report = json.loads(path.read_text())
            report.pop("timing")
            found[path.name] = report
        return found

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a report called np.{name}")
        return call

    # The patched run goes first and the node cache is emptied, so that nothing
    # it reads was computed before the patch.
    stieltjes._gauss_legendre_nodes.cache_clear()
    for name in TRANSCENDENTALS:
        monkeypatch.setattr(np, name, refuse(name))
    got = reports(tmp_path / "patched")
    monkeypatch.undo()
    assert len(got) == len(scenarios)
    assert got == reports(tmp_path / "plain")


@pytest.mark.parametrize("command", ["sample", "stieltjes", "kerov_tsilevich",
                                     "kerov_tsilevich_weights"])
def test_overflowing_input_prints_only_its_error_line(tmp_path, command):
    out = str(tmp_path / "out.csv")
    if command == "sample":
        argv = ["sample", "--alphas", "1e308,1e308;1,1", "--n-samples", "5", "--seed", "1",
                "--out", out]
    elif command == "stieltjes":
        argv = ["stieltjes", "--n", "3", "--grid", "1e308", "--out", out]
    else:
        cfg = small_config(tmp_path / "reports")
        cfg["scenarios"] = [{"id": "kt", "kind": "kerov_tsilevich", "seed": 1,
                             "alphas": [[1e308, 1]]}]
        if command == "kerov_tsilevich_weights":  # numpy's overflow warning stays off stderr
            cfg["scenarios"][0].update(alphas=[[5e26, 5e26]], t_values=[[1e-30, 1e-30]])
        argv = ["run", "--config", str(write_config(tmp_path, cfg))]
    proc = cli_process(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("kind", ["moments", "theorem"])
def test_overflowing_grand_total_refused_by_the_validator(tmp_path, kind):
    # Every row and column sum of 4e307 on 3 x 3 is finite, the grand total
    # is not.  The theorem scenario follows one that would run first.
    if kind == "moments":
        scenarios = [{"id": "huge", "kind": "moments", "seed": 1, "sizes": [[3, 3]],
                      "entries": [4e307]}]
    else:
        scenarios = [{"id": "s", "kind": "stieltjes", "seed": 1},
                     {"id": "huge", "kind": "theorem", "seed": 1, "alphas": [[4e307] * 3] * 3,
                      "n_samples": 10}]
    out = tmp_path / "reports"
    cfg = small_config(out, scenarios=scenarios)
    proc = cli_process(["run", "--config", str(write_config(tmp_path, cfg))])
    assert proc.returncode == 2
    where = f"scenarios[{len(scenarios) - 1}]: "
    assert proc.stderr.startswith("error: " + where), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_overflow_in_a_command_exits_2(tmp_path, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "run_config", overflow)
    path = write_config(tmp_path, small_config(tmp_path / "reports"))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_with_nan_exits_2_and_writes_no_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dirichlet_rwa.runner.kerov_tsilevich_check",
                        lambda alpha, t: (float("nan"), 1.0, 0.0))
    cfg = small_config(tmp_path / "reports")
    cfg["scenarios"] = [
        {"id": "a-finite", "kind": "dirmult", "seed": 1, "max_trials": 1, "max_k": 2},
        {"id": "b-nan", "kind": "kerov_tsilevich", "seed": 2, "alphas": [[1, 2]]},
    ]
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 2
    assert "b-nan" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def large_entry_config(out_dir, entry):
    return small_config(out_dir, scenarios=[
        {"id": "moments", "kind": "moments", "seed": 1, "sizes": [[2, 2]], "entries": [entry]},
        {"id": "dirmult", "kind": "dirmult", "seed": 2, "entries": [entry]},
    ])


@pytest.mark.parametrize("entry", [1e6, 1e12])
def test_exact_route_holds_at_large_entries(tmp_path, entry):
    # gammaln(x + m) - gammaln(x) cancels at such entries; the closed forms
    # sum log rising factorials instead
    cfg = large_entry_config(tmp_path / "reports", entry)
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    moments = json.loads((tmp_path / "reports" / "moments.json").read_text())
    assert max(t["value"] for t in moments["tests"]) < 1e-13


def test_variant_at_large_alpha_passes(tmp_path, capsys):
    # the variant oracle's target moment must not cancel at such alphas,
    # which would quarantine a true variant scenario
    cfg = small_config(tmp_path / "reports", scenarios=[
        {"id": "variant", "kind": "variant", "seed": 3, "alpha": [1e6, 2e6],
         "n_samples": 20000},
    ])
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "reports" / "variant.json").read_text())
    assert report["tests"][0] == {"kind": "variant-resolution", "value": 0, "compare": "<=",
                                  "bound": 0, "path": "expansion-vs-closed-form", "size": 9,
                                  "reading": "symmetric", "pass": True}


def test_variant_the_oracle_does_not_confirm_is_quarantined(tmp_path, monkeypatch):
    # a NaN from the moment oracle is not a match: the report holds only the
    # failed resolution record, no sampled test runs, and the run exits 1
    monkeypatch.setattr(runner, "rwa_moment_expansion", lambda sc, s, top=0: float("nan"))
    cfg = small_config(tmp_path / "reports", scenarios=[
        {"id": "variant", "kind": "variant", "seed": 3, "alpha": [1.0, 2.0],
         "n_samples": 20000},
    ])
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 1
    report = json.loads((tmp_path / "reports" / "variant.json").read_text())
    assert report["tests"] == [{"kind": "variant-resolution", "value": 9, "compare": "<=",
                                "bound": 0, "path": "expansion-vs-closed-form", "size": 9,
                                "reading": None, "pass": False}]
    assert report["notes"][0].startswith("variant scenario quarantined: ")


def test_exact_route_and_export_import_no_scipy(tmp_path, monkeypatch):
    # The exact kinds, verify-moments, stieltjes and sample need numpy only;
    # scipy loads with the KS and energy tests of the sampled battery.  The
    # config is the exact-identities benchmark workload at seed 7.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    config = write_config(tmp_path, workloads.exact_identities(7).config)
    commands = [
        ["run", "--config", str(config), "--out", str(tmp_path / "reports")],
        ["verify-moments", "--max-order", "3", "--seed", "1"],
        ["stieltjes", "--n", "3", "--out", str(tmp_path / "resid.csv")],
        ["sample", "--alphas", "1,2;3,4", "--n-samples", "100", "--seed", "1",
         "--out", str(tmp_path / "z.csv")],
    ]
    script = (
        "import sys\n"
        "from dirichlet_rwa.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:3]\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_two_coordinate_battery_imports_no_scipy_spatial():
    # On k = 2 samples the energy test sorts first coordinates, so of scipy
    # only scipy.special (the KS and energy p-values) loads.
    script = (
        "import sys\n"
        "from dirichlet_rwa.cli import main\n"
        "argv = ['verify-theorem', '--alphas', '1,2;3,4', '--n-samples', '20000', '--seed', '1']\n"
        "assert main(argv) == 0\n"
        "assert 'scipy.special' in sys.modules\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.spatial'))\n"
        "assert not loaded, loaded[:3]\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_moment_expansion_overflow_exits_2(tmp_path, capsys, monkeypatch):
    # (x)_h/h! passes the largest double at entries of 1e39 and order 8; the
    # expansion scales it back, so these moments pass
    for entry in (1e39, 1e200):
        out = tmp_path / f"reports-{entry:g}"
        cfg = small_config(out, scenarios=[
            {"id": "moments", "kind": "moments", "seed": 1, "sizes": [[2, 2]],
             "entries": [entry], "max_total_order": 8},
        ])
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert moments["tests"][0]["value"] < 1e-13
    capsys.readouterr()

    def exits_2(cfg):
        assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'moments'" in err
        assert not (tmp_path / "reports").exists()

    # a closed form that underflowed to 0, as the (2, 0) moment does here,
    # leaves no relative error to judge
    for entries in ([1.0, 1e300], [1e39, 4e307]):
        exits_2(small_config(tmp_path / "reports", scenarios=[
            {"id": "moments", "kind": "moments", "seed": 1, "sizes": [[2, 2]],
             "entries": entries, "max_total_order": 2},
        ]))

    # a NaN expansion, as one that overflowed would give, must not read as
    # an error of 0
    def expansion(sc, s, top=0):
        return float("nan") if s.s == (1, 1) else rwa_moment_expansion(sc, s, top)

    monkeypatch.setattr("dirichlet_rwa.runner.rwa_moment_expansion", expansion)
    exits_2(large_entry_config(tmp_path / "reports", 2.0))


def test_dirmult_nan_error_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("dirichlet_rwa.runner.dirmult_normalization_check",
                        lambda p: float("nan") if p.trials == 1 else 1.0)
    cfg = small_config(tmp_path / "reports",
                       scenarios=[{"id": "dirmult", "kind": "dirmult", "seed": 1}])
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "'dirmult'" in capsys.readouterr().err


def test_finite_report_bytes_unchanged(tmp_path):
    sc = ScenarioConfig("kt", "kerov_tsilevich", 3, {"alphas": [[1, 2]]})
    report = run_scenario(sc, config_hash="h")
    path = write_report(report, tmp_path)
    with io.StringIO() as ref:
        json.dump(report, ref, sort_keys=True, indent=2)
        assert path.read_text(encoding="utf-8") == ref.getvalue() + "\n"
