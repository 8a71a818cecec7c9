"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the package with wrappers at
the name their caller looks up (``runner.energy_two_sample``,
``cli.run_config``, ``rwa.sample_dirichlet_batch``, ...), so nothing under
``src/`` changes.  Each call becomes a span (name, start, end, parent) kept in
memory; parents are tracked per thread, and a span opened by a worker thread
with an empty stack is parented to the innermost open span of the main
thread, which is ``runner.run_config`` when the runner uses a thread pool.

``layer_metrics`` turns the spans of one traced repetition into the
per-layer metrics.  A span's self time is its duration minus the union of
its children's intervals, so self times sum to the traced wall time plus the
time during which worker threads overlapped.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import time


def _draws(args):
    return {"draws": int(args[1])}


def _terms(args):
    # One composition of s_j into n parts per coordinate: the expansion sums
    # prod_j C(s_j + n - 1, n - 1) terms.
    spec, idx = args[0], args[1]
    return {"terms": math.prod(math.comb(s + spec.n - 1, spec.n - 1) for s in idx.s)}


def _support(args):
    p = args[0]
    return {"support": math.comb(p.trials + p.alpha.k - 1, p.alpha.k - 1)}


def _points(args):
    return {"points": len(args[1])}


def _csv_bytes(args):
    return {"bytes": os.path.getsize(args[0].out)}


# (module, attribute looked up by the caller, span name, count function)
WRAPS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "config.load", None),
    ("cli", "run_config", "runner.run_config", None),
    ("cli", "_cmd_sample", "cli.sample", _csv_bytes),
    ("cli", "sample_rwa_direct_batch", "rwa.sample", _draws),
    ("runner", "run_scenario", "runner.scenario", None),
    ("runner", "write_report", "runner.write", None),
    ("runner", "sample_rwa_direct_batch", "rwa.sample", _draws),
    ("runner", "sample_rwa_gamma_path_batch", "rwa.sample", _draws),
    ("runner", "resolve_variant_reading", "rwa.resolve_variant", None),
    ("rwa", "sample_dirichlet_batch", "distributions.dirichlet", None),
    ("runner", "moment_ztest", "stattest.moment", None),
    ("runner", "ks_marginal", "stattest.ks", None),
    ("runner", "energy_two_sample", "stattest.energy", None),
    ("runner", "rwa_moment_expansion", "moments.expansion", _terms),
    ("runner", "rwa_moment_closed_form", "moments.closed_form", None),
    ("runner", "dirmult_normalization_check", "moments.dirmult", _support),
    ("runner", "kerov_tsilevich_check", "moments.kt", None),
    ("runner", "equation3_residual", "stieltjes.eq3", _points),
    ("runner", "equation1_check", "stieltjes.eq1", _points),
    ("runner", "power_semicircle_transform", "stieltjes.norm", None),
)

# Per-layer metric -> (unit, better, the end-to-end metric it should move,
# the workloads on which it should move it).  BENCHMARK.json's per_layer list
# holds exactly these names; BENCHMARK.json cannot carry the mapping itself.
METRICS = {
    "rwa.sample_s": ("s", "lower", "wall_s", ["sample-export", "theorem-battery"]),
    "rwa.draws_per_s": ("1/s", "higher", "wall_s", ["sample-export", "theorem-battery"]),
    "distributions.dirichlet_s": ("s", "lower", "wall_s peak_rss_mb", ["sample-export"]),
    "distributions.dirichlet_calls": ("count", "lower", "wall_s peak_rss_mb", ["sample-export"]),
    "rwa.resolve_variant_s": ("s", "lower", "wall_s", ["theorem-battery"]),
    "stattest.energy_s": ("s", "lower", "wall_s peak_rss_mb", ["theorem-battery"]),
    "stattest.moment_s": ("s", "lower", "wall_s peak_rss_mb", ["theorem-battery"]),
    "stattest.moment_tests": ("count", "higher", "wall_s", ["theorem-battery"]),
    "stattest.ks_s": ("s", "lower", "wall_s peak_rss_mb", ["theorem-battery"]),
    "stattest.ks_tests": ("count", "higher", "wall_s", ["theorem-battery"]),
    "moments.expansion_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "moments.expansion_calls": ("count", "higher", "wall_s", ["exact-identities"]),
    "moments.terms": ("count", "higher", "wall_s", ["exact-identities"]),
    "moments.terms_per_s": ("1/s", "higher", "wall_s", ["exact-identities"]),
    "moments.closed_form_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "moments.dirmult_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "moments.dirmult_support": ("count", "higher", "wall_s", ["exact-identities"]),
    "moments.kt_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "stieltjes.eq3_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "stieltjes.eq1_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "stieltjes.norm_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "stieltjes.residual_points": ("count", "higher", "wall_s", ["exact-identities"]),
    "runner.scenario_s_max": ("s", "lower", "wall_s", ["exact-identities"]),
    "runner.queue_wait_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "runner.self_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "runner.write_s": ("s", "lower", "wall_s", ["exact-identities"]),
    "runner.cpu_per_wall": ("ratio", "higher", "wall_s", ["exact-identities"]),
    "config.load_s": ("s", "lower", "setup_s",
                      ["theorem-battery", "exact-identities"]),
    "cli.csv_write_s": ("s", "lower", "wall_s", ["sample-export"]),
    "cli.csv_bytes": ("count", "lower", "wall_s", ["sample-export"]),
    "trace.overhead_s": ("s", "lower", "-", []),
    "trace.other_s": ("s", "lower", "wall_s", []),
    "trace.spans": ("count", "lower", "-", []),
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, counts)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, package) -> None:
        for module, attr, name, count in WRAPS:
            mod = getattr(package, module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else -1
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            counts = {}
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans[idx] = (name, start, end, parent, counts)

        return traced


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, cpu_per_wall: float):
    """(metrics, accounting) of one traced repetition.  The metrics lack
    trace.overhead_s, which needs an untraced repetition to compare with;
    the accounting holds the sums showing that the self times add up to the
    traced wall time.  Times named *_s are self times; rwa.draws_per_s
    divides by the samplers' whole time, their Dirichlet draws included."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s, total_s, calls, counts = {}, {}, {}, {}
    overlap = 0.0
    for (name, start, end, _, cnt), kids in zip(spans, children):
        covered = _union(kids)
        overlap += sum(hi - lo for lo, hi in kids) - covered
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, v in cnt.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v

    scen = [(s, e) for n, s, e, _, _ in spans if n == "runner.scenario"]
    run_starts = [s for n, s, _, _, _ in spans if n == "runner.run_config"]
    queue_wait = sum(s - run_starts[0] for s, _ in scen) if run_starts else 0.0
    sampler_s = total_s.get("rwa.sample", 0.0)
    expansion_s = self_s.get("moments.expansion", 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "rwa.sample_s": self_s.get("rwa.sample", 0.0),
        "rwa.draws_per_s": rate(counts.get("rwa.sample.draws", 0), sampler_s),
        "distributions.dirichlet_s": self_s.get("distributions.dirichlet", 0.0),
        "distributions.dirichlet_calls": calls.get("distributions.dirichlet", 0),
        "rwa.resolve_variant_s": self_s.get("rwa.resolve_variant", 0.0),
        "stattest.energy_s": self_s.get("stattest.energy", 0.0),
        "stattest.moment_s": self_s.get("stattest.moment", 0.0),
        "stattest.moment_tests": calls.get("stattest.moment", 0),
        "stattest.ks_s": self_s.get("stattest.ks", 0.0),
        "stattest.ks_tests": calls.get("stattest.ks", 0),
        "moments.expansion_s": expansion_s,
        "moments.expansion_calls": calls.get("moments.expansion", 0),
        "moments.terms": counts.get("moments.expansion.terms", 0),
        "moments.terms_per_s": rate(counts.get("moments.expansion.terms", 0), expansion_s),
        "moments.closed_form_s": self_s.get("moments.closed_form", 0.0),
        "moments.dirmult_s": self_s.get("moments.dirmult", 0.0),
        "moments.dirmult_support": counts.get("moments.dirmult.support", 0),
        "moments.kt_s": self_s.get("moments.kt", 0.0),
        "stieltjes.eq3_s": self_s.get("stieltjes.eq3", 0.0),
        "stieltjes.eq1_s": self_s.get("stieltjes.eq1", 0.0),
        "stieltjes.norm_s": self_s.get("stieltjes.norm", 0.0),
        "stieltjes.residual_points": counts.get("stieltjes.eq3.points", 0)
        + counts.get("stieltjes.eq1.points", 0),
        "runner.scenario_s_max": max((e - s for s, e in scen), default=0.0),
        "runner.queue_wait_s": queue_wait,
        "runner.self_s": self_s.get("runner.scenario", 0.0),
        "runner.write_s": self_s.get("runner.write", 0.0),
        "runner.cpu_per_wall": cpu_per_wall,
        "config.load_s": self_s.get("config.load", 0.0),
        "cli.csv_write_s": self_s.get("cli.sample", 0.0),
        "cli.csv_bytes": counts.get("cli.sample.bytes", 0),
        "trace.other_s": self_s.get("cli.main", 0.0) + self_s.get("runner.run_config", 0.0),
        "trace.spans": len(spans),
    }
    # Self times tile the traced call: their sum less the worker-thread
    # overlap is the wall time inside cli.main.
    accounting = {"self_sum_s": sum(self_s.values()), "overlap_s": overlap}
    return m, accounting
