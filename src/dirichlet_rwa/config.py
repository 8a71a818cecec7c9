"""Experiment configuration: strict JSON parsing and canonical hashing.

Unknown keys are fatal everywhere: a silently ignored typo in an alpha matrix
would invalidate the scientific conclusion a run is supposed to support.
Every scenario must carry an explicit seed; seeds are never auto-generated.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

__all__ = ["ConfigError", "ScenarioConfig", "ExperimentConfig", "load_config"]

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "output_dir", "scenarios"}

_COMMON_KEYS = {"id", "kind", "seed"}
_SCENARIO_KEYS = {
    "theorem": _COMMON_KEYS
    | {
        "alphas",
        "n_samples",
        "max_moment_order",
        "z_threshold",
        "ks_level",
        "energy_level",
        "energy_permutations",
        "target_override",
    },
    "variant": _COMMON_KEYS
    | {"alpha", "n_samples", "max_moment_order", "z_threshold", "ks_level"},
    "moments": _COMMON_KEYS
    | {"max_total_order", "sizes", "entries", "n_random", "rtol"},
    "dirmult": _COMMON_KEYS | {"max_trials", "max_k", "entries", "tol"},
    "stieltjes": _COMMON_KEYS | {"orders", "grid", "tol_exact", "tol_numeric"},
    "kerov_tsilevich": _COMMON_KEYS | {"alphas", "t_values", "order", "tol"},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    id: str
    kind: str
    seed: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    format_version: int
    output_dir: str
    scenarios: tuple
    config_hash: str


def _canonical_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


def _require_positive_matrix(m, where: str):
    if (
        not isinstance(m, list)
        or not m
        or not all(isinstance(r, list) and r for r in m)
        or len({len(r) for r in m}) != 1
    ):
        raise ConfigError(f"{where}: alphas must be a non-empty rectangular matrix")
    for r in m:
        for v in r:
            if not isinstance(v, (int, float)) or not v > 0:
                raise ConfigError(f"{where}: matrix entries must be positive numbers, got {v!r}")


def _require_sample_count(v, where: str):
    # One draw leaves the standard errors undefined, so at least two.
    integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral or v < 2:
        raise ConfigError(f"{where}: n_samples must be an integer >= 2, got {v!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
    if raw["format_version"] != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {raw['format_version']!r}; expected {FORMAT_VERSION}"
        )
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("scenarios must be a non-empty list")

    scenarios = []
    seen_ids = set()
    for i, sc in enumerate(raw["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise ConfigError(f"{where}: must be an object")
        kind = sc.get("kind")
        if kind not in _SCENARIO_KEYS:
            raise ConfigError(
                f"{where}: unknown kind {kind!r}; expected one of {sorted(_SCENARIO_KEYS)}"
            )
        unknown = set(sc) - _SCENARIO_KEYS[kind]
        if unknown:
            raise ConfigError(f"{where}: unknown keys for kind {kind!r}: {sorted(unknown)}")
        for key in ("id", "seed"):
            if key not in sc:
                raise ConfigError(f"{where}: missing required key {key!r}")
        if not isinstance(sc["seed"], int) or not (0 <= sc["seed"] < 2**64):
            raise ConfigError(f"{where}: seed must be an unsigned 64-bit integer")
        if sc["id"] in seen_ids:
            raise ConfigError(f"{where}: duplicate scenario id {sc['id']!r}")
        seen_ids.add(sc["id"])
        if kind == "theorem":
            if "alphas" not in sc or "n_samples" not in sc:
                raise ConfigError(f"{where}: theorem scenarios need alphas and n_samples")
            _require_positive_matrix(sc["alphas"], where)
            if "target_override" in sc:
                for v in sc["target_override"]:
                    if not isinstance(v, (int, float)) or not v > 0:
                        raise ConfigError(f"{where}: target_override entries must be positive")
        if kind == "variant" and ("alpha" not in sc or "n_samples" not in sc):
            raise ConfigError(f"{where}: variant scenarios need alpha and n_samples")
        if kind in ("theorem", "variant"):
            _require_sample_count(sc["n_samples"], where)
        if kind == "kerov_tsilevich" and "alphas" not in sc:
            raise ConfigError(f"{where}: kerov_tsilevich scenarios need alphas")
        params = {k: v for k, v in sc.items() if k not in ("id", "kind", "seed")}
        scenarios.append(ScenarioConfig(str(sc["id"]), kind, sc["seed"], params))

    return ExperimentConfig(
        format_version=FORMAT_VERSION,
        output_dir=str(raw["output_dir"]),
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
