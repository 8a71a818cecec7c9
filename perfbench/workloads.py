"""Seeded workload generator.

Every scenario seed and every random alpha entry is derived from the
benchmark seed with ``random.Random`` (whose integer seeding and
``getrandbits``/``randrange`` streams are stable across Python versions), so
one seed always gives byte-identical inputs.  The paper fixtures keep their
alpha matrices; they are copied here rather than read from the repository's
config so that later edits to that file do not change the benchmark.

Each workload is one CLI invocation.  ``Workload.expected`` records the
verdict each scenario must reach: True means the scenario's checks must pass,
False means the scenario is a planted alternative that must be detected.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

# The five theorem fixtures of the acceptance config, alpha matrices only.
PAPER_FIXTURES = (
    ("van-assche", [[0.5, 0.5], [0.5, 0.5]]),
    ("johnson-kotz", [[2, 2], [2, 2]]),
    ("corollary-symmetric", [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    ("asymmetric", [[1, 2, 3], [4, 5, 6]]),
    ("half-integer", [[0.5, 1], [2, 0.5], [1, 3]]),
)
BATTERY_DRAWS = 200_000
PLANTED_DRAWS = 100_000
# True column sums of [[1,2,3],[4,5,6]] are [5,7,9]; the override moves one.
PLANTED_ALPHAS = [[1, 2, 3], [4, 5, 6]]
PLANTED_TARGET = [6, 7, 9]
VARIANT_ALPHA = [1, 2, 3]

# exact-identities: four random entries per grid keeps the composition-table
# call count fixed (9,020 expansions at total order 5) whatever the values.
GRID_ENTRIES = 4
MOMENT_ORDER = 5
MOMENT_RANDOM = 30
DIRMULT_MAX_K = 4
DIRMULT_MAX_TRIALS = 10
KT_VECTORS = 3
STIELTJES_ORDERS = [2, 3, 4]
# One worker: with two, the GIL-bound threads handed the lock back and forth
# so erratically that single repetitions ranged from 8.5 to 13.8 s.
EXACT_WORKERS = 1

SAMPLE_SHAPE = (8, 4)
SAMPLE_DRAWS = 500_000
# Entries stay >= 1 so that every seed draws gammas by the same algorithm
# (numpy switches algorithm below shape 1, which costs more per draw); a
# seed-dependent share of small shapes made wall_s vary from seed to seed.
SAMPLE_ENTRY_RANGE = (1.0, 4.0)


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI arguments; "{config}" and "{out}" are filled in per repetition.
    argv: tuple
    workers: int
    config: dict | None = None
    expected: dict = field(default_factory=dict)
    # sample-export: shape of the CSV body.
    rows: int = 0
    cols: int = 0


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _entries(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """`count` distinct values in [lo, hi] on a 0.05 grid."""
    steps = int(round((hi - lo) / 0.05))
    picks = rng.sample(range(steps + 1), count)
    return [round(lo + 0.05 * p, 2) for p in picks]


def _config(scenarios: list) -> dict:
    return {"format_version": 1, "output_dir": "reports", "scenarios": scenarios}


def theorem_battery(seed: int) -> Workload:
    rng = random.Random(seed)
    scenarios = [
        {"id": sid, "kind": "theorem", "seed": _seed(rng), "alphas": alphas,
         "n_samples": BATTERY_DRAWS}
        for sid, alphas in PAPER_FIXTURES
    ]
    scenarios.append({"id": "variant-123", "kind": "variant", "seed": _seed(rng),
                      "alpha": VARIANT_ALPHA, "n_samples": BATTERY_DRAWS})
    scenarios.append({"id": "planted-alternative", "kind": "theorem", "seed": _seed(rng),
                      "alphas": PLANTED_ALPHAS, "target_override": PLANTED_TARGET,
                      "n_samples": PLANTED_DRAWS})
    expected = {sc["id"]: sc["id"] != "planted-alternative" for sc in scenarios}
    return Workload("theorem-battery",
                    ("run", "--config", "{config}", "--out", "{out}", "--workers", "1"),
                    workers=1, config=_config(scenarios), expected=expected)


def exact_identities(seed: int) -> Workload:
    rng = random.Random(seed)
    scenarios = [
        {"id": "moments-small", "kind": "moments", "seed": _seed(rng),
         "max_total_order": MOMENT_ORDER, "sizes": [[2, 2], [2, 3], [3, 2]],
         "entries": _entries(rng, GRID_ENTRIES, 0.25, 5.0), "n_random": MOMENT_RANDOM},
        {"id": "moments-3x3", "kind": "moments", "seed": _seed(rng),
         "max_total_order": MOMENT_ORDER, "sizes": [[3, 3]],
         "entries": _entries(rng, GRID_ENTRIES, 0.25, 5.0), "n_random": MOMENT_RANDOM},
        {"id": "dirmult", "kind": "dirmult", "seed": _seed(rng),
         "max_k": DIRMULT_MAX_K, "max_trials": DIRMULT_MAX_TRIALS,
         "entries": _entries(rng, GRID_ENTRIES, 0.25, 5.0)},
        {"id": "kerov-tsilevich", "kind": "kerov_tsilevich", "seed": _seed(rng),
         "alphas": [_entries(rng, 2, 0.25, 5.0) for _ in range(KT_VECTORS)]},
        {"id": "stieltjes", "kind": "stieltjes", "seed": _seed(rng),
         "orders": STIELTJES_ORDERS},
    ]
    expected = {sc["id"]: True for sc in scenarios}
    return Workload("exact-identities",
                    ("run", "--config", "{config}", "--out", "{out}",
                     "--workers", str(EXACT_WORKERS)),
                    workers=EXACT_WORKERS, config=_config(scenarios), expected=expected)


def sample_export(seed: int) -> Workload:
    rng = random.Random(seed)
    n, k = SAMPLE_SHAPE
    lo, hi = SAMPLE_ENTRY_RANGE
    matrix = [_entries(rng, k, lo, hi) for _ in range(n)]
    alphas = ";".join(",".join(repr(v) for v in row) for row in matrix)
    return Workload("sample-export",
                    ("sample", "--alphas", alphas, "--n-samples", str(SAMPLE_DRAWS),
                     "--seed", str(_seed(rng)), "--out", "{out}"),
                    workers=1, rows=SAMPLE_DRAWS, cols=k)


GENERATORS = {
    "theorem-battery": theorem_battery,
    "exact-identities": exact_identities,
    "sample-export": sample_export,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
