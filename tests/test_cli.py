import io
import json

import numpy as np
import pytest

from dirichlet_rwa import cli
from dirichlet_rwa.cli import main
from dirichlet_rwa.config import ConfigError, ScenarioConfig, load_config, parse_config
from dirichlet_rwa.distributions import SIMPLEX_SUM_TOL, RngStream
from dirichlet_rwa.runner import run_scenario, write_report
from dirichlet_rwa.rwa import theorem_scenario
from test_rwa import einsum_sample_batch


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
    # n=3, z=2: the computed left side is below the right side, so a column
    # written as rhs + residual would sit above it.
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "3", "--grid", "2", "--out", str(out)]) == 0
    _, z, lhs, rhs, resid = out.read_text().splitlines()[1].split(",")
    assert float(z) == 2.0
    assert float(lhs) < float(rhs)
    assert abs(float(lhs) - float(rhs)) <= float(resid)


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
    assert "n_samples must be an integer >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("kind", ["theorem", "variant"])
@pytest.mark.parametrize("n_samples", [1, 0, -5, 2.5, True, "1000", None])
def test_run_rejects_bad_n_samples_exit2(tmp_path, capsys, kind, n_samples):
    sc = {"id": "s", "kind": kind, "seed": 1, "n_samples": n_samples}
    sc.update({"alphas": [[1, 2], [3, 4]]} if kind == "theorem" else {"alpha": [1, 2]})
    cfg = {"format_version": 1, "output_dir": str(tmp_path / "r"), "scenarios": [sc]}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "n_samples must be an integer >= 2" in capsys.readouterr().err


def test_integral_float_n_samples_accepted():
    cfg = small_config("r")
    cfg["scenarios"][0]["n_samples"] = 2e4
    assert parse_config(cfg).scenarios[0].params["n_samples"] == 2e4


def test_battery_replicates_come_from_distinct_streams():
    # Both replicates use one sampler; drawn from the same stream they would
    # be identical and the energy statistic would be exactly 0.0.
    params = {"alphas": [[1, 2], [3, 4]], "n_samples": 2000}
    report = run_scenario(ScenarioConfig("replicates", "theorem", 3, params), "adhoc")
    (energy,) = [t for t in report["tests"] if t["path"] == "direct-vs-gamma"]
    assert energy["kind"] == "energy"
    assert energy["statistic"] != 0.0


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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_one_exit_2(tmp_path, capsys, monkeypatch, workers):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a scenario with fewer than one worker")

    monkeypatch.setattr(cli, "run_config", no_run)
    path = write_config(tmp_path, small_config(tmp_path / "reports"))
    assert main(["run", "--config", str(path), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("error: --workers must be >= 1")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_stieltjes_non_finite_terms_exit_2(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    assert main(["stieltjes", "--n", "3", "--grid", "1e308", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
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


def test_finite_report_bytes_unchanged(tmp_path):
    sc = ScenarioConfig("kt", "kerov_tsilevich", 3, {"alphas": [[1, 2]]})
    report = run_scenario(sc, config_hash="h")
    path = write_report(report, tmp_path)
    with io.StringIO() as ref:
        json.dump(report, ref, sort_keys=True, indent=2)
        assert path.read_text(encoding="utf-8") == ref.getvalue() + "\n"
