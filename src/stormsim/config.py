"""Scenario configuration: parameter dataclasses, JSON parsing, validation.

Scenarios are described by a JSON document rather than command-line flags;
unknown and repeated keys are hard errors so a typo cannot silently fall
back to a default, or override an earlier value, and corrupt an
experiment. The three frozen dataclasses are the one schema: their fields
name the keys and hold the defaults, and their constructors check and
coerce every value, so a config built in code meets the rules of a parsed
one and serialises to the same JSON.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Mapping

from .core import slots_per_day
from .geometry import ta_index

MAX_SEED = 2**64 - 1
MAX_TABLE_BYTES = 2**30  # cap on one dense count or profile table, a workload's request times at 8 bytes each, or its devices


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class ScoringMode(str, Enum):
    """When anomaly values are evaluated: on every request, or once per interval."""

    PER_RSR = "per_rsr"
    INTERVAL_END = "interval_end"


def _real(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_types(spec: Any, prefix: str = "") -> None:
    """Hold each ``int`` and ``float`` field of ``spec`` to its declared type.

    An int field takes any integral number but a bool, NumPy integers
    included, and a float field any real number but a bool. Each is stored
    as exactly ``int`` or ``float``, so a config built in code writes the
    JSON that a parsed one does. (Field types are strings here, as this
    module uses ``from __future__ import annotations``.)
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "int":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{prefix}{f.name} must be an integer, got {value!r}")
            object.__setattr__(spec, f.name, int(value))
        elif f.type == "float":
            object.__setattr__(spec, f.name, _real(prefix + f.name, value))


@dataclass(frozen=True)
class LegitTrafficSpec:
    """Legitimate workload: per-device request rate with a sinusoidal day profile."""

    base_rate_per_hour: float = 5.0
    diurnal_amplitude: float = 0.35
    device_count: int = 100

    def __post_init__(self) -> None:
        _check_types(self, "legit.")
        if not 0 < self.base_rate_per_hour < math.inf:  # also rejects nan
            raise ConfigError("legit.base_rate_per_hour must be positive and finite")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError("legit.diurnal_amplitude must lie in [0, 1)")
        if self.device_count < 0:
            raise ConfigError("legit.device_count must be non-negative")


@dataclass(frozen=True)
class AttackSpec:
    """Adversary workload: Poisson burst onsets, fixed-size volleys."""

    adversary_count: int = 5
    bursts_per_day: float = 3.0
    rsrs_per_burst: int = 100
    burst_window_s: float = 5.0

    def __post_init__(self) -> None:
        _check_types(self, "attack.")
        if self.adversary_count < 0:
            raise ConfigError("attack.adversary_count must be non-negative")
        if not 0 < self.bursts_per_day < math.inf:  # also rejects nan
            raise ConfigError("attack.bursts_per_day must be positive and finite")
        if self.rsrs_per_burst < 1:
            raise ConfigError("attack.rsrs_per_burst must be at least 1")
        if not 0 < self.burst_window_s < math.inf:  # also rejects nan
            raise ConfigError("attack.burst_window_s must be positive and finite")


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
    gamma_grid: tuple[float, ...] = tuple(i * 0.5 for i in range(21))
    seed_train: int = 101
    seed_eval: int = 202
    scoring_mode: ScoringMode = ScoringMode.PER_RSR

    def __post_init__(self) -> None:
        _check_types(self)
        if not (isinstance(self.legit, LegitTrafficSpec) and isinstance(self.attack, AttackSpec)):
            raise ConfigError("legit must be a LegitTrafficSpec and attack an AttackSpec")
        if not isinstance(self.gamma_grid, (list, tuple)) or not self.gamma_grid:
            raise ConfigError(f"gamma_grid must be a non-empty array of numbers, got {self.gamma_grid!r}")
        object.__setattr__(self, "gamma_grid", tuple(_real("gamma_grid entry", g) for g in self.gamma_grid))
        try:
            object.__setattr__(self, "scoring_mode", ScoringMode(self.scoring_mode))
        except ValueError as exc:
            raise ConfigError(
                f"scoring_mode must be one of {[m.value for m in ScoringMode]}, got {self.scoring_mode!r}"
            ) from exc
        if not 0 < self.cell_radius_m < math.inf:  # also rejects nan
            raise ConfigError("cell_radius_m must be positive and finite")
        if self.numerology_mu not in (0, 1, 2, 3):
            raise ConfigError("numerology_mu must be one of 0, 1, 2, 3")
        try:
            n_slots = slots_per_day(self.interval_seconds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.training_days < 1:
            raise ConfigError("training_days must be at least 1")
        if self.eval_days < 1:
            raise ConfigError("eval_days must be at least 1")
        days = max(self.training_days, self.eval_days)
        n_ta = self.max_ta + 1
        table_bytes = 8 * days * n_slots * n_ta
        if table_bytes > MAX_TABLE_BYTES:
            raise ConfigError(
                f"a {days}-day count table of {n_slots} slots x {n_ta} TA bins takes "
                f"{table_bytes / 2**30:.1f} GiB, over the {MAX_TABLE_BYTES / 2**30:g} GiB cap; "
                "use fewer days, a longer interval_seconds, a smaller cell or a lower numerology_mu"
            )
        legit, attack = self.legit, self.attack
        try:  # the longer horizon's expected times: every legit thinning candidate and every attack row
            times = days * (
                legit.device_count * legit.base_rate_per_hour * (1 + legit.diurnal_amplitude) * 24
                + attack.adversary_count * attack.bursts_per_day * attack.rsrs_per_burst
            )
        except OverflowError:  # a count past the float range
            times = math.inf
        if 8 * max(times, attack.rsrs_per_burst) > MAX_TABLE_BYTES:
            raise ConfigError(
                f"a {days}-day trace of about {times:.3g} request times in bursts of {attack.rsrs_per_burst} "
                f"passes the {MAX_TABLE_BYTES / 2**30:g} GiB cap; use fewer days, devices or attack RSRs"
            )
        devices = legit.device_count + attack.adversary_count
        if devices > MAX_TABLE_BYTES // 512:  # each placed device and its substream take about 0.45 KiB
            raise ConfigError(
                f"{devices} devices and adversaries at about 0.45 KiB each pass the "
                f"{MAX_TABLE_BYTES / 2**30:g} GiB cap of {MAX_TABLE_BYTES // 512} devices; use fewer devices"
            )
        if not 0 < self.sigma_floor < math.inf:  # also rejects nan
            raise ConfigError("sigma_floor must be positive and finite")
        if math.isnan(self.gamma):
            raise ConfigError("gamma must not be NaN")
        if any(math.isnan(g) for g in self.gamma_grid):
            raise ConfigError("gamma_grid must not contain NaN")
        for name, seed in (("seed_train", self.seed_train), ("seed_eval", self.seed_eval)):
            if not 0 <= seed <= MAX_SEED:
                raise ConfigError(f"{name} must be a 64-bit unsigned integer")

    @property
    def max_ta(self) -> int:
        """The cell's largest TA index: the last TA bin of its count table and profile."""
        return ta_index(self.cell_radius_m, self.numerology_mu)


def _keyword_arguments(cls: type, doc: Mapping[str, Any], where: str) -> dict:
    """``doc`` as keyword arguments to ``cls``, refusing a key that names none of its fields."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    return dict(doc)


def config_from_dict(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration must be a JSON object")
    kwargs = _keyword_arguments(ScenarioConfig, doc, "config")
    for f in fields(ScenarioConfig):
        # the nested specs, legit and attack, are the fields a dataclass builds by default
        spec = f.default_factory
        if is_dataclass(spec) and f.name in kwargs:
            if not isinstance(kwargs[f.name], Mapping):
                raise ConfigError(f"{f.name} must be an object")
            kwargs[f.name] = spec(**_keyword_arguments(spec, kwargs[f.name], f.name))
    return ScenarioConfig(**kwargs)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object's pairs as a dict, refusing a repeated key rather than keeping its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def parse_config(path) -> ScenarioConfig:
    """Load and validate a scenario JSON file; missing fields take defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return config_from_dict(json.load(fh, object_pairs_hook=_unique_keys))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_dict(config: ScenarioConfig) -> dict:
    """Fully resolved configuration as a JSON-ready dict (defaults included), in field order."""
    doc = asdict(config)
    doc["gamma_grid"] = list(config.gamma_grid)
    doc["scoring_mode"] = config.scoring_mode.value
    return doc
