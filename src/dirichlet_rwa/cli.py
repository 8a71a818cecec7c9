"""Command-line entry point.

Subcommands:
  run             execute a JSON experiment config, write one report per scenario
  sample          draw weighted-average samples to CSV
  verify-theorem  statistical suite for one alpha matrix
  verify-moments  expansion vs closed-form moment equality over a fixture grid
  stieltjes       derivative-identity residuals, CSV output

Exit codes: 0 all checks passed, 1 at least one statistical/numerical check
failed, 2 configuration or I/O error, a non-finite number or a non-converging quadrature.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .runner import (STIELTJES_TOL_EXACT, STIELTJES_TOL_NUMERIC, run_config, run_scenario,
                     write_report)
from .rwa import sample_rwa_direct_batch, theorem_scenario
from .distributions import RngStream
from .stieltjes import QuadratureError, equation1_check, equation3_terms


def _parse_matrix(text: str) -> list:
    """Rows separated by ';', entries by ',': "1,2,3;4,5,6"."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise ConfigError(f"bad alpha matrix {text!r}: {e}") from e
    return rows


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# Rows per formatted block of the sample CSV: the Python floats and strings
# of one block are all that formatting holds at once, whatever n_samples.
CSV_BLOCK_ROWS = 65_536


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_config(args.config)
    return run_config(cfg, out_dir=args.out, workers=args.workers,
                      on_report=lambda report: print(_verdict(report)))


def _write_csv_rows(fh, z: np.ndarray) -> None:
    """Write the rows of z as CSV lines, each value as "%.17g" (the bytes of
    _fmt), one C-level % format per block of CSV_BLOCK_ROWS rows."""
    line = ",".join(["%.17g"] * z.shape[1]) + "\n"
    for start in range(0, len(z), CSV_BLOCK_ROWS):
        block = z[start:start + CSV_BLOCK_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _cmd_sample(args) -> int:
    if args.n_samples < 0:
        raise ConfigError(f"--n-samples must be >= 0, got {args.n_samples}")
    sc = theorem_scenario(_parse_matrix(args.alphas))
    out = Path(args.out)
    # opened before sampling, so that a bad path fails before the sampling cost
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"z_{j + 1}" for j in range(sc.k)) + "\n")
        z = sample_rwa_direct_batch(sc, args.n_samples, RngStream(args.seed, 1))
        _write_csv_rows(fh, z)
    print(f"wrote {args.n_samples} samples to {out}")
    return 0


def _scenario(sid: str, kind: str, seed: int, **params) -> ScenarioConfig:
    # Built through parse_config so that it is validated exactly as in `run`.
    scenario = {"id": sid, "kind": kind, "seed": seed, **params}
    raw = {"format_version": 1, "output_dir": ".", "scenarios": [scenario]}
    return parse_config(raw).scenarios[0]


def _verdict(report: dict) -> str:
    """One line: "<id>: PASS|FAIL (<passed>/<total> checks)"."""
    n_pass = sum(1 for t in report["tests"] if t["pass"])
    n_total = len(report["tests"])
    verdict = "PASS" if report["overall_pass"] else "FAIL"
    return f"{report['scenario_id']}: {verdict} ({n_pass}/{n_total} checks)"


def _print_summary(report: dict) -> None:
    print(_verdict(report))
    for t in report["tests"]:
        if not t["pass"]:
            print(f"  failed: {json.dumps(t, sort_keys=True)}")
    for note in report["notes"]:
        print(f"  note: {note}")


def _run_single(sc: ScenarioConfig, out_dir) -> int:
    report = run_scenario(sc, config_hash="adhoc")
    _print_summary(report)
    if out_dir:
        path = write_report(report, out_dir)
        print(f"report written to {path}")
    return 0 if report["overall_pass"] else 1


def _cmd_verify_theorem(args) -> int:
    sc = _scenario("verify-theorem", "theorem", args.seed,
                   alphas=_parse_matrix(args.alphas), n_samples=args.n_samples)
    return _run_single(sc, args.out)


def _cmd_verify_moments(args) -> int:
    sc = _scenario("verify-moments", "moments", args.seed, max_total_order=args.max_order)
    return _run_single(sc, args.out)


def _cmd_stieltjes(args) -> int:
    grid = [float(z) for z in args.grid.split(",")]
    lhs, rhs, r3 = equation3_terms(args.n, grid)
    r1 = equation1_check(args.n, grid)
    lines = ["n,z,lhs,rhs,residual"]
    for z, left, right, resid in zip(grid, lhs, rhs, r3):
        lines.append(
            f"{args.n},{_fmt(z)},{_fmt(left.real)},{_fmt(right.real)},{_fmt(float(resid))}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote residual table to {args.out}")
    else:
        sys.stdout.write(text)
    tol = STIELTJES_TOL_EXACT if args.n <= 3 else STIELTJES_TOL_NUMERIC
    worst = max(float(np.max(r3)), float(np.max(r1)))
    print(f"max residual (transform form): {float(np.max(r3)):.3e}")
    print(f"max residual (integral form):  {float(np.max(r1)):.3e}")
    return 0 if worst < tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-rwa",
        description="Weighted averages of Dirichlet vectors: sampling and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("--config", required=True, help="path to the experiment JSON")
    p.add_argument("--out", default=None, help="report directory (overrides config)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sample", help="draw z samples to CSV")
    p.add_argument("--alphas", required=True, help="matrix, e.g. '1,2;3,4'")
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify-theorem", help="statistical suite for one alpha matrix")
    p.add_argument("--alphas", required=True)
    p.add_argument("--n-samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-moments", help="expansion vs closed-form equality")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="report directory")
    p.set_defaults(func=_cmd_verify_moments)

    p = sub.add_parser("stieltjes", help="derivative-identity residual table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="1.5,2,3,5", help="comma-separated z values")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_stieltjes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, OverflowError, QuadratureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
