"""Correctness gate and determinism digest for one workload repetition.

A structural failure (unexpected exit code, a missing or malformed report, a
CSV of the wrong shape) raises GateError and aborts the benchmark.  Wrong
verdicts are not structural: a true scenario that fails, a planted
alternative that passes, or an off-simplex CSV row is counted as a failed
operation, so a statistical false alarm is measured rather than fatal.

The digest is a sha256 over the reports with only their ``timing`` block
removed (the tool promises byte-reproducible reports outside that block), or
over the CSV bytes.
"""
from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The program's SIMPLEX_SUM_TOL, fixed here so that the benchmark's criterion
# does not move with the code it measures.
SIMPLEX_SUM_TOL = 1e-12


class GateError(RuntimeError):
    """The repetition's output is structurally wrong; no metric is valid."""


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    digest: str


def report_digest(reports: dict) -> str:
    """sha256 over {file name: report} with each report's timing removed."""
    h = hashlib.sha256()
    for name in sorted(reports):
        body = {k: v for k, v in reports[name].items() if k != "timing"}
        h.update(name.encode() + b"\0")
        h.update(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _load_reports(out_dir: Path, expected: dict) -> dict:
    names = {p.name for p in out_dir.glob("*.json")} if out_dir.is_dir() else set()
    want = {f"{sid}.json" for sid in expected}
    if names != want:
        raise GateError(f"reports {sorted(names)} != expected {sorted(want)}")
    reports = {}
    for name in sorted(want):
        try:
            rep = json.loads((out_dir / name).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            raise GateError(f"unreadable report {name}: {e}") from e
        if (
            not isinstance(rep, dict)
            or not isinstance(rep.get("overall_pass"), bool)
            or not isinstance(rep.get("tests"), list)
            or "timing" not in rep
            or f"{rep.get('scenario_id')}.json" != name
        ):
            raise GateError(f"malformed report {name}")
        reports[name] = rep
    return reports


def check_run(exit_code: int, out_dir: Path, expected: dict) -> Outcome:
    """Gate a `run` invocation: one report per scenario, and an exit code
    that agrees with the verdicts (0 iff every scenario passed)."""
    if exit_code not in (0, 1):
        raise GateError(f"run exited with {exit_code}")
    reports = _load_reports(Path(out_dir), expected)
    verdicts = {rep["scenario_id"]: rep["overall_pass"] for rep in reports.values()}
    if exit_code != (0 if all(verdicts.values()) else 1):
        raise GateError(f"exit code {exit_code} disagrees with verdicts {verdicts}")
    failed = sum(verdicts[sid] != want for sid, want in expected.items())
    return Outcome(len(expected), failed, report_digest(reports))


def check_csv(exit_code: int, path: Path, rows: int, cols: int) -> Outcome:
    """Gate a `sample` invocation: header and shape must be exact; each row
    off the simplex (a negative entry, or a sum off 1 by more than
    SIMPLEX_SUM_TOL) is a failed operation."""
    if exit_code != 0:
        raise GateError(f"sample exited with {exit_code}")
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise GateError(f"missing CSV: {e}") from e
    header, _, body = data.partition(b"\n")
    if header.decode() != ",".join(f"z_{j + 1}" for j in range(cols)):
        raise GateError(f"bad CSV header {header[:80]!r}")
    lines = body.count(b"\n")
    if lines != rows or not body.endswith(b"\n"):
        raise GateError(f"CSV has {lines} data lines, expected {rows}")
    try:
        z = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    except ValueError as e:
        raise GateError(f"unparsable CSV: {e}") from e
    if z.shape != (rows, cols) or not np.all(np.isfinite(z)):
        raise GateError(f"CSV values have shape {z.shape} or are not finite")
    off = (z < 0).any(axis=1) | (np.abs(z.sum(axis=1) - 1.0) > SIMPLEX_SUM_TOL)
    return Outcome(rows, int(off.sum()), hashlib.sha256(data).hexdigest())
