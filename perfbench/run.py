"""Benchmark of the dirichlet-rwa verdict pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repetition is one CLI invocation (``dirichlet_rwa.cli.main``) in a fresh
interpreter, one at a time (a closed loop with one caller), on inputs the
workload generator derives from ``--seed``.  Repetitions continue until
``--seconds`` have passed and at least MIN_REPS have run; metrics are medians
over the repetitions.

``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, peak_rss_mb and
ok_ratio (1 - failed_ratio).  ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  A structural failure exits 1 without a
result; a directory without ``src/dirichlet_rwa`` exits 2.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SETUP_PROBES = 2
# Stop starting repetitions that could push a run past 180 seconds.
MAX_RUN_S = 140.0
CHILD_TIMEOUT_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(wl: workloads.Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "workers": wl.workers,
        # Each worker may call into BLAS, which computes on its own threads.
        "compute_threads": wl.workers * (threads or 1),
    }


def spawn(mode: str, src: Path, work: Path, argv: list) -> dict:
    """Run child.py once; return its result or raise GateError."""
    result = work / "result.json"
    log = work / "child.log"
    result.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), repr(spawned_at), str(src),
               str(result), mode, "--", *argv]
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise gate.GateError(f"{mode} repetition timed out") from e
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise gate.GateError(f"{mode} repetition crashed (exit {proc.returncode}):\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def repetition(wl: workloads.Workload, mode: str, src: Path, work: Path):
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    target = out if wl.config is not None else out / "z.csv"
    out.mkdir()
    argv = [a.format(config=work / "config.json", out=target) for a in wl.argv]
    res = spawn(mode, src, work, argv)
    if wl.config is not None:
        outcome = gate.check_run(res["exit_code"], out, wl.expected)
    else:
        outcome = gate.check_csv(res["exit_code"], target, wl.rows, wl.cols)
    shutil.rmtree(out)
    return res, outcome


def measure(wl: workloads.Workload, seconds: int, trace: bool, src: Path, work: Path):
    if wl.config is not None:
        (work / "config.json").write_text(json.dumps(wl.config, indent=1), encoding="utf-8")
    probe_argv = [a.format(config=work / "config.json", out=work / "probe")
                  for a in wl.argv]
    spawn("setup", src, work, probe_argv)  # warm-up: bytecode and file cache
    start = time.monotonic()
    setups = [spawn("setup", src, work, probe_argv)["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    kinds = ("plain", "traced") if trace else ("plain",)
    modes = itertools.cycle(kinds)
    need = 1 if trace else MIN_REPS
    while True:
        mode = next(modes)
        t = time.monotonic()
        res, outcome = repetition(wl, mode, src, work)
        reps.append((mode, res, outcome))
        print(f"rep {len(reps)} {mode}: setup_s={res['setup_s']:.4f} "
              f"wall_s={res['wall_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f} "
              f"failed={outcome.failed}/{outcome.attempted} digest={outcome.digest[:16]}",
              flush=True)
        now = time.monotonic()
        done = min(sum(m == k for m, _, _ in reps) for k in kinds) >= need
        if done and (now - start >= seconds or now - start + (now - t) > MAX_RUN_S):
            break
    return setups, reps


def end_to_end(setups, reps) -> dict:
    plain = [r for m, r, _ in reps if m == "plain"]
    attempted = sum(o.attempted for _, _, o in reps)
    failed = sum(o.failed for _, _, o in reps)
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(reps) -> dict:
    plain_wall = statistics.median(r["wall_s"] for m, r, _ in reps if m == "plain")
    traced = [r for m, r, _ in reps if m == "traced"]
    rows = []
    for r in traced:
        m, acc = layers.layer_metrics(r["spans"], r["cpu_s"] / r["wall_s"])
        rows.append(m)
        print(f"accounting: self times {acc['self_sum_s']:.4f} s - thread overlap "
              f"{acc['overlap_s']:.4f} s = {acc['self_sum_s'] - acc['overlap_s']:.4f} s; "
              f"traced wall_s {r['wall_s']:.4f} s; untraced wall_s {plain_wall:.4f} s")
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        # Counts stay whole numbers: median_low picks one of them.
        pick = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[name] = pick(values)
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - plain_wall
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dirichlet_rwa" / "cli.py").is_file():
        print(f"error: no src/dirichlet_rwa under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = workloads.generate(args.workload, args.seed)
    machine = machine_block(wl)
    print("machine:", json.dumps(machine, sort_keys=True))
    if wl.config is not None:
        print("expected verdicts (true = must pass, false = must be detected):",
              json.dumps(wl.expected))
    else:
        print(f"expected: {wl.rows} rows of {wl.cols} coordinates on the simplex")
    if machine["compute_threads"] > machine["nproc"]:
        print(f"error: {wl.name} would run {machine['compute_threads']} compute threads "
              f"on {machine['nproc']} CPUs", file=sys.stderr)
        return 2

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        setups, reps = measure(wl, args.seconds, bool(args.trace), src, work)
    except gate.GateError as e:
        print(f"error: structural failure in {wl.name}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    digests = sorted({o.digest for _, _, o in reps})
    attempted = sum(o.attempted for _, _, o in reps)
    failed = sum(o.failed for _, _, o in reps)
    print(f"digest: {' '.join(digests)}")
    print(f"failed_ratio: {failed / attempted} ({failed}/{attempted})")
    if args.trace:
        values = per_layer(reps)
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
        for name, (unit, _, moves, on) in layers.METRICS.items():
            print(f"{name} = {values[name]} {unit}  (moves {moves} on {', '.join(on) or '-'})")
    else:
        values = end_to_end(setups, reps)
        units = END_TO_END
        for name, unit in units.items():
            print(f"{name} = {values[name]} {unit}")
    result = {
        # Reports (timing aside) and the CSV are byte-reproducible, so every
        # repetition of one seed must produce the same digest.
        "correct": len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
