"""Threshold sweep over a single evaluation trace.

The same trace is reused for every gamma (paired comparison), so both curves
are exactly monotone in the threshold rather than statistically so. Scores do
not depend on gamma, so ``pipeline.build_score_cache`` computes them once, in
the config's scoring mode, through the same ``detector.score_events`` call
``stormsim run`` makes, and ``pipeline.metrics_at`` thresholds them per grid
point; replaying the trace through ``detector.on_rsr`` one event at a time
is the oracle for that shortcut.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .config import ScenarioConfig
from .pipeline import Metrics, build_score_cache, metrics_at
from .profiler import KpiProfile, count_per_interval, train
from .traffic import build_trace


def train_profile_for(config: ScenarioConfig) -> KpiProfile:
    """Generate the configured clean training days and fold them into a profile."""
    trace, _bursts, _layout = build_trace(
        config, seed=config.seed_train, days=config.training_days, include_attacks=False
    )
    counts = count_per_interval(trace, config.interval_seconds, config.max_ta, config.training_days)
    return train(counts)


def run_experiment(config: ScenarioConfig, profile: Optional[KpiProfile] = None) -> tuple[Metrics, ...]:
    """Train (unless a profile is supplied), generate the evaluation trace once,
    then sweep the whole gamma grid over it in the config's scoring mode: one
    row per gamma, ascending, so the probabilities never rise down the rows."""
    if profile is None:
        profile = train_profile_for(config)
    trace, _bursts, _layout = build_trace(
        config, seed=config.seed_eval, days=config.eval_days, include_attacks=True
    )
    cache = build_score_cache(trace, profile, config.sigma_floor, config.eval_days, config.scoring_mode)
    return tuple(metrics_at(cache, gamma) for gamma in sorted(config.gamma_grid))


SWEEP_CSV_HEADER = "gamma,p_detection,p_false_alarm,p_false_alarm_per_cell,bursts_total,intervals_total"


def write_sweep_csv(rows: Sequence[Metrics], path) -> None:
    """Plot-ready CSV; floats keep full round-trip precision, '.' decimal point."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        p_detection = float("nan") if row.p_detection is None else float(row.p_detection)
        lines.append(
            f"{float(row.gamma)!r},{p_detection!r},{float(row.p_false_alarm)!r},"
            f"{float(row.p_false_alarm_per_cell)!r},{row.denominators['bursts']},{row.denominators['intervals']}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
