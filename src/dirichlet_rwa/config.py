"""Experiment configuration: strict JSON parsing and canonical hashing.

Unknown keys are fatal everywhere: a silently ignored typo in an alpha matrix
would invalidate the scientific conclusion a run is supposed to support.
Every scenario must carry an explicit seed; seeds are never auto-generated.
Values are checked by building what the runner builds, so a config that
parses never fails on a bad value after earlier scenarios have run.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .distributions import DirichletParams
from .moments import DIRMULT_TRIALS_CAP, KT_ORDER, MomentIndex, _check_work, _kt_terms
from .rwa import WeightedAverageScenario, theorem_scenario, variant_scenario
from .stieltjes import _check_grid

__all__ = ["ConfigError", "ScenarioConfig", "ExperimentConfig", "load_config"]

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "output_dir", "scenarios"}
# A scenario id names its report file: no path separator, no leading dot.
_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

_REQUIRED = object()
# Every settable key of each scenario kind with its default; _REQUIRED marks
# a key without one.  A target_override of None keeps the column sums.
_SCENARIO_PARAMS = {
    "theorem": {"alphas": _REQUIRED, "n_samples": _REQUIRED, "target_override": None},
    "variant": {"alpha": _REQUIRED, "n_samples": _REQUIRED},
    "moments": {"max_total_order": 5, "sizes": ((2, 2), (2, 3), (3, 2), (3, 3)),
                "entries": (0.5, 1.0, 2.0, 3.5), "n_random": 30},
    "dirmult": {"max_trials": 10, "max_k": 4, "entries": (0.5, 1.0, 2.0, 5.0)},
    "stieltjes": {"orders": (2, 3, 4), "grid": (1.5, 2.0, 3.0, 5.0)},
    "kerov_tsilevich": {"alphas": _REQUIRED, "t_values": (
        (0.5, 0.5), (0.5, -0.5), (-0.5, -0.5), (0.25, 0.4), (-0.3, 0.1))},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; params holds every key of its kind, defaults filled in."""

    id: str
    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _SCENARIO_PARAMS:
            raise ConfigError(
                f"unknown kind {self.kind!r}; expected one of {sorted(_SCENARIO_PARAMS)}"
            )
        table = _SCENARIO_PARAMS[self.kind]
        unknown = set(self.params) - set(table)
        if unknown:
            raise ConfigError(f"unknown keys for kind {self.kind!r}: {sorted(unknown)}")
        for key, default in table.items():
            if default is _REQUIRED and key not in self.params:
                raise ConfigError(f"missing required key {key!r}")
        object.__setattr__(self, "params", {**table, **self.params})


@dataclass(frozen=True)
class ExperimentConfig:
    format_version: int
    output_dir: str
    scenarios: tuple
    config_hash: str


def _canonical_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def _numbers(v, key: str) -> list:
    """v as a non-empty list of finite JSON numbers; np.asarray(v, dtype=float)
    would also take "1", and json reads NaN, Infinity and 1e400 as floats."""
    if (
        not isinstance(v, (list, tuple))
        or not v
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   and math.isfinite(x) for x in v)
    ):
        raise ValueError(f"{key} must be a non-empty list of finite numbers, got {v!r}")
    return list(v)


def _rows(v, key: str) -> list:
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError(f"{key} must be a non-empty list of lists, got {v!r}")
    return [_numbers(r, key) for r in v]


def _count(v, key: str, low: int) -> None:
    integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral or v < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {v!r}")


# Least value of each integer key; 4 draws give the energy test two blocks of
# two rows, fewer leave its standard error undefined, and smaller values of
# the others would check nothing.
_COUNT_MIN = {"n_samples": 4, "max_total_order": 1, "n_random": 1, "max_trials": 0, "max_k": 2}


def _exhaustive_grid(n: int, k: int, entries) -> int:
    """The len(entries)^(n k) matrices the runner checks if at most 256, else 0."""
    size = len(entries) ** min(n * k, 9)  # 2^9 > 256 spares the full power
    return size if size <= 256 else 0


def _work(kind: str, p: dict) -> int:
    """The elements the runner builds, counted as a batch's; raises once the
    sum passes the cap, so a long max_k adds at most a few thousand terms."""
    if kind == "moments":  # rows after the first x matrices x cell pairs of each size
        terms = ((n - 1) * (_exhaustive_grid(n, k, p["entries"]) or int(p["n_random"]))
                 * math.comb(int(p["max_total_order"]) + 2 * k, 2 * k) for n, k in p["sizes"])
    elif kind == "dirmult":  # |entries|^k alphas x count vectors of 0..max_trials x k
        terms = (len(p["entries"]) ** k * math.comb(int(p["max_trials"]) + k, k) * k
                 for k in range(2, int(p["max_k"]) + 1))
    else:  # each t of each alpha reads the supports of 1..KT_ORDER trials
        terms = (len(p["t_values"]) * (math.comb(KT_ORDER + len(a), len(a)) - 1) * len(a)
                 for a in p["alphas"])
    what, total = f"this {kind} scenario ({', '.join(_SCENARIO_PARAMS[kind])})", 0
    for term in terms:
        total += term
        _check_work(total, what)
    return total


def _check_values(kind: str, p: dict) -> None:
    """Build what the runner builds from the parameters, once _work allows
    it; a bad value raises ValueError."""
    for key, low in _COUNT_MIN.items():
        if key in p:
            _count(p[key], key, low)
    if kind == "theorem":
        sc = theorem_scenario(_rows(p["alphas"], "alphas"))
        if p["target_override"] is not None:
            WeightedAverageScenario(sc.w_alpha, sc.x_alphas,
                                    _numbers(p["target_override"], "target_override"))
    elif kind == "variant":
        variant_scenario(_numbers(p["alpha"], "alpha"))
    elif kind == "moments":
        MomentIndex([p["max_total_order"]])  # the order cap
        entries, sizes = _numbers(p["entries"], "entries"), _rows(p["sizes"], "sizes")
        _work(kind, p)
        for n, k in sizes:
            for e in entries:
                theorem_scenario(np.full((n, k), e))
    elif kind == "dirmult":
        if p["max_trials"] > DIRMULT_TRIALS_CAP:
            raise ValueError(f"max_trials exceeds the cap of {DIRMULT_TRIALS_CAP}")
        entries = _numbers(p["entries"], "entries")
        _work(kind, p)
        for e in entries:
            DirichletParams((e,) * int(p["max_k"]))  # the runner's longest alphas
    elif kind == "stieltjes":
        _check_grid(_numbers(p["grid"], "grid"))
        for n in _numbers(p["orders"], "orders"):
            _count(n, "orders", 2)  # PowerSemicircleParams needs n >= 2
    else:
        t_values, alphas = _rows(p["t_values"], "t_values"), _rows(p["alphas"], "alphas")
        _work(kind, p)
        for alpha in alphas:
            for t in t_values:
                _kt_terms(alpha, t, KT_ORDER)  # all but the series


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    if type(raw["format_version"]) is not int or raw["format_version"] != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {raw['format_version']!r}; expected {FORMAT_VERSION}"
        )
    if not isinstance(raw["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {raw['output_dir']!r}")
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("scenarios must be a non-empty list")

    scenarios = []
    seen_ids = set()
    for i, sc in enumerate(raw["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise ConfigError(f"{where}: must be an object")
        for key in ("id", "seed"):
            if key not in sc:
                raise ConfigError(f"{where}: missing required key {key!r}")
        if type(sc["seed"]) is not int or not (0 <= sc["seed"] < 2**64):
            raise ConfigError(f"{where}: seed must be an unsigned 64-bit integer")
        if not isinstance(sc["id"], str) or not _ID.fullmatch(sc["id"]):
            raise ConfigError(f"{where}: id must match {_ID.pattern}, got {sc['id']!r}")
        if sc["id"] in seen_ids:
            raise ConfigError(f"{where}: duplicate scenario id {sc['id']!r}")
        seen_ids.add(sc["id"])
        params = {k: v for k, v in sc.items() if k not in ("id", "kind", "seed")}
        try:
            scenario = ScenarioConfig(sc["id"], sc.get("kind"), sc["seed"], params)
            _check_values(scenario.kind, scenario.params)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{where}: {e}") from e
        except OverflowError as e:
            raise ConfigError(f"{where}: a value overflows: {e}") from e
        scenarios.append(scenario)

    return ExperimentConfig(
        format_version=FORMAT_VERSION,
        output_dir=raw["output_dir"],
        scenarios=tuple(scenarios),
        config_hash=_canonical_hash(raw),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e
    return parse_config(raw)
