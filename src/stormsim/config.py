"""Scenario configuration: parameter dataclasses, JSON parsing, validation.

Scenarios are described by a JSON document rather than command-line flags;
unknown keys are hard errors so a typo cannot silently fall back to a
default and corrupt an experiment.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .core import slots_per_day
from .geometry import TaQuantizer, max_ta_index

MAX_SEED = 2**64 - 1
MAX_TABLE_BYTES = 2**30  # cap on one dense int64 (days, slots, TA) count table


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class ScoringMode(str, Enum):
    """When anomaly values are evaluated: on every request, or once per interval."""

    PER_RSR = "per_rsr"
    INTERVAL_END = "interval_end"


@dataclass(frozen=True)
class LegitTrafficSpec:
    """Legitimate workload: per-device request rate with a sinusoidal day profile."""

    base_rate_per_hour: float = 5.0
    diurnal_amplitude: float = 0.35
    device_count: int = 100


@dataclass(frozen=True)
class AttackSpec:
    """Adversary workload: Poisson burst onsets, fixed-size volleys."""

    adversary_count: int = 5
    bursts_per_day: float = 3.0
    rsrs_per_burst: int = 100
    burst_window_s: float = 5.0


def default_gamma_grid() -> tuple[float, ...]:
    return tuple(i * 0.5 for i in range(21))


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of a simulation run, including both named seeds."""

    cell_radius_m: float = 2000.0
    numerology_mu: int = 2
    interval_seconds: int = 300
    legit: LegitTrafficSpec = field(default_factory=LegitTrafficSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    training_days: int = 30
    eval_days: int = 20
    sigma_floor: float = 1.0
    gamma: float = 6.5
    gamma_grid: tuple[float, ...] = field(default_factory=default_gamma_grid)
    seed_train: int = 101
    seed_eval: int = 202
    scoring_mode: ScoringMode = ScoringMode.PER_RSR

    def __post_init__(self) -> None:
        # stored as float, so a config built in code writes the JSON that a parsed one does
        for name in ("cell_radius_m", "sigma_floor", "gamma"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        object.__setattr__(self, "gamma_grid", tuple(_real("gamma_grid entry", g) for g in self.gamma_grid or ()))
        if not 0 < self.cell_radius_m < math.inf:  # also rejects nan
            raise ConfigError("cell_radius_m must be positive and finite")
        if self.numerology_mu not in (0, 1, 2, 3):
            raise ConfigError("numerology_mu must be one of 0, 1, 2, 3")
        try:
            slots_per_day(self.interval_seconds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.legit.base_rate_per_hour <= 0:
            raise ConfigError("legit.base_rate_per_hour must be positive")
        if not 0.0 <= self.legit.diurnal_amplitude < 1.0:
            raise ConfigError("legit.diurnal_amplitude must lie in [0, 1)")
        if self.legit.device_count < 0:
            raise ConfigError("legit.device_count must be non-negative")
        if self.attack.adversary_count < 0:
            raise ConfigError("attack.adversary_count must be non-negative")
        if self.attack.bursts_per_day <= 0:
            raise ConfigError("attack.bursts_per_day must be positive")
        if self.attack.rsrs_per_burst < 1:
            raise ConfigError("attack.rsrs_per_burst must be at least 1")
        if self.attack.burst_window_s <= 0:
            raise ConfigError("attack.burst_window_s must be positive")
        if self.training_days < 1:
            raise ConfigError("training_days must be at least 1")
        if self.eval_days < 1:
            raise ConfigError("eval_days must be at least 1")
        days = max(self.training_days, self.eval_days)
        n_slots = slots_per_day(self.interval_seconds)
        n_ta = max_ta_index(self.cell_radius_m, TaQuantizer(self.numerology_mu)) + 1
        table_bytes = 8 * days * n_slots * n_ta
        if table_bytes > MAX_TABLE_BYTES:
            raise ConfigError(
                f"a {days}-day count table of {n_slots} slots x {n_ta} TA bins takes "
                f"{table_bytes / 2**30:.1f} GiB, over the {MAX_TABLE_BYTES / 2**30:g} GiB cap; "
                "use fewer days, a longer interval_seconds, a smaller cell or a lower numerology_mu"
            )
        if self.sigma_floor <= 0:
            raise ConfigError("sigma_floor must be positive")
        if math.isnan(self.gamma):
            raise ConfigError("gamma must not be NaN")
        if not self.gamma_grid:
            raise ConfigError("gamma_grid must not be empty")
        if any(math.isnan(g) for g in self.gamma_grid):
            raise ConfigError("gamma_grid must not contain NaN")
        for name, seed in (("seed_train", self.seed_train), ("seed_eval", self.seed_eval)):
            if not 0 <= seed <= MAX_SEED:
                raise ConfigError(f"{name} must be a 64-bit unsigned integer")


def _real(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


_LEGIT_FIELDS = {"base_rate_per_hour", "diurnal_amplitude", "device_count"}
_ATTACK_FIELDS = {"adversary_count", "bursts_per_day", "rsrs_per_burst", "burst_window_s"}
_TOP_FIELDS = {
    "cell_radius_m",
    "numerology_mu",
    "interval_seconds",
    "legit",
    "attack",
    "training_days",
    "eval_days",
    "sigma_floor",
    "gamma",
    "gamma_grid",
    "seed_train",
    "seed_eval",
    "scoring_mode",
}


def _check_keys(doc: Mapping[str, Any], allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _as_int(doc: Mapping[str, Any], key: str, default: int, where: str = "") -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _as_float(doc: Mapping[str, Any], key: str, default: float, where: str = "") -> float:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}{key} must be a number, got {value!r}")
    return float(value)


def config_from_dict(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(doc, _TOP_FIELDS, "config")

    legit_doc = doc.get("legit", {})
    if not isinstance(legit_doc, Mapping):
        raise ConfigError("legit must be an object")
    _check_keys(legit_doc, _LEGIT_FIELDS, "legit")
    legit = LegitTrafficSpec(
        base_rate_per_hour=_as_float(legit_doc, "base_rate_per_hour", 5.0, "legit."),
        diurnal_amplitude=_as_float(legit_doc, "diurnal_amplitude", 0.35, "legit."),
        device_count=_as_int(legit_doc, "device_count", 100, "legit."),
    )

    attack_doc = doc.get("attack", {})
    if not isinstance(attack_doc, Mapping):
        raise ConfigError("attack must be an object")
    _check_keys(attack_doc, _ATTACK_FIELDS, "attack")
    attack = AttackSpec(
        adversary_count=_as_int(attack_doc, "adversary_count", 5, "attack."),
        bursts_per_day=_as_float(attack_doc, "bursts_per_day", 3.0, "attack."),
        rsrs_per_burst=_as_int(attack_doc, "rsrs_per_burst", 100, "attack."),
        burst_window_s=_as_float(attack_doc, "burst_window_s", 5.0, "attack."),
    )

    grid_doc = doc.get("gamma_grid", None)
    if grid_doc is None:
        gamma_grid = default_gamma_grid()
    else:
        if not isinstance(grid_doc, (list, tuple)) or not grid_doc:
            raise ConfigError("gamma_grid must be a non-empty array of numbers")
        for g in grid_doc:
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise ConfigError(f"gamma_grid entries must be numbers, got {g!r}")
        gamma_grid = tuple(float(g) for g in grid_doc)

    mode_doc = doc.get("scoring_mode", ScoringMode.PER_RSR.value)
    try:
        scoring_mode = ScoringMode(mode_doc)
    except ValueError as exc:
        raise ConfigError(
            f"scoring_mode must be one of {[m.value for m in ScoringMode]}, got {mode_doc!r}"
        ) from exc

    return ScenarioConfig(
        cell_radius_m=_as_float(doc, "cell_radius_m", 2000.0),
        numerology_mu=_as_int(doc, "numerology_mu", 2),
        interval_seconds=_as_int(doc, "interval_seconds", 300),
        legit=legit,
        attack=attack,
        training_days=_as_int(doc, "training_days", 30),
        eval_days=_as_int(doc, "eval_days", 20),
        sigma_floor=_as_float(doc, "sigma_floor", 1.0),
        gamma=_as_float(doc, "gamma", 6.5),
        gamma_grid=gamma_grid,
        seed_train=_as_int(doc, "seed_train", 101),
        seed_eval=_as_int(doc, "seed_eval", 202),
        scoring_mode=scoring_mode,
    )


def parse_config(path) -> ScenarioConfig:
    """Load and validate a scenario JSON file; missing fields take defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Fully resolved configuration as a JSON-ready dict (defaults included)."""
    return {
        "cell_radius_m": config.cell_radius_m,
        "numerology_mu": config.numerology_mu,
        "interval_seconds": config.interval_seconds,
        "legit": {
            "base_rate_per_hour": config.legit.base_rate_per_hour,
            "diurnal_amplitude": config.legit.diurnal_amplitude,
            "device_count": config.legit.device_count,
        },
        "attack": {
            "adversary_count": config.attack.adversary_count,
            "bursts_per_day": config.attack.bursts_per_day,
            "rsrs_per_burst": config.attack.rsrs_per_burst,
            "burst_window_s": config.attack.burst_window_s,
        },
        "training_days": config.training_days,
        "eval_days": config.eval_days,
        "sigma_floor": config.sigma_floor,
        "gamma": config.gamma,
        "gamma_grid": list(config.gamma_grid),
        "seed_train": config.seed_train,
        "seed_eval": config.seed_eval,
        "scoring_mode": config.scoring_mode.value,
    }
