"""stormsim: signaling-storm traffic simulator and TA-profile anomaly detector.

Generates legitimate and adversarial RRC-setup-request traffic in a single
5G IIoT cell, learns per-(time-of-day, timing-advance) KPI profiles from
clean days, scores live counts against them, and sweeps the detection
threshold to trade detection probability against false alarms.
"""

from .config import (
    AttackSpec,
    ConfigError,
    LegitTrafficSpec,
    ScenarioConfig,
    ScoringMode,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from .core import (
    SECONDS_PER_DAY,
    Decision,
    RsrEvent,
    Trace,
    Verdict,
    Verdicts,
    read_trace,
    slots_per_day,
    write_json,
    write_trace,
)
from .detector import DetectorConfig, DetectorState, Policy, anomaly_score, on_rsr
from .geometry import place_devices, ta_index, ta_step_m
from .pipeline import (
    Metrics,
    build_score_cache,
    compute_metrics,
    metrics_at,
    run,
    write_policy_log,
)
from .profiler import (
    KpiProfile,
    count_per_interval,
    load_profile,
    save_profile,
    train,
)
from .sweep import run_experiment, train_profile_for, write_sweep_csv
from .traffic import (
    Burst,
    build_trace,
    diurnal_rate,
    gen_attack_bursts,
    gen_legit_events,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "Burst",
    "ConfigError",
    "Decision",
    "DetectorConfig",
    "DetectorState",
    "KpiProfile",
    "LegitTrafficSpec",
    "Metrics",
    "Policy",
    "RsrEvent",
    "ScenarioConfig",
    "ScoringMode",
    "SECONDS_PER_DAY",
    "Trace",
    "Verdict",
    "Verdicts",
    "anomaly_score",
    "build_score_cache",
    "build_trace",
    "compute_metrics",
    "config_from_dict",
    "config_to_dict",
    "count_per_interval",
    "diurnal_rate",
    "gen_attack_bursts",
    "gen_legit_events",
    "load_profile",
    "metrics_at",
    "on_rsr",
    "parse_config",
    "place_devices",
    "read_trace",
    "run",
    "run_experiment",
    "save_profile",
    "slots_per_day",
    "ta_index",
    "ta_step_m",
    "train",
    "train_profile_for",
    "write_json",
    "write_policy_log",
    "write_sweep_csv",
    "write_trace",
]
