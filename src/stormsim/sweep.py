"""Threshold sweep over a single evaluation trace.

The same trace is reused for every gamma (paired comparison), so both curves
are exactly monotone in the threshold rather than statistically so. Scores do
not depend on gamma, so they are computed once by ``detector.score_events``
and thresholded per grid point by ``pipeline.metrics_at``, the same
definition ``stormsim run`` uses; replaying the trace through
``detector.on_rsr`` one event at a time is the oracle for that shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .config import ScenarioConfig
from .core import Trace
from .detector import score_events
from .pipeline import Metrics, ScoreCache, metrics_at, score_cache
from .profiler import KpiProfile, count_per_interval, train
from .traffic import Burst, build_trace


@dataclass(frozen=True)
class SweepResult:
    """Rows sorted by gamma ascending; probabilities non-increasing down the rows."""

    rows: tuple[Metrics, ...]


def train_profile_for(config: ScenarioConfig) -> KpiProfile:
    """Generate the configured clean training days and fold them into a profile."""
    trace, _bursts, _layout = build_trace(
        config, seed=config.seed_train, days=config.training_days, include_attacks=False
    )
    counts = count_per_interval(trace, config.interval_seconds, config.max_ta, config.training_days)
    return train(counts)


def build_score_cache(
    trace: Trace,
    bursts: Sequence[Burst],
    profile: KpiProfile,
    sigma_floor: float,
    horizon_days: int,
) -> ScoreCache:
    """Score every event once and aggregate per burst, per cell and per interval."""
    cells, scores = score_events(trace.time_s, trace.ta, profile, sigma_floor, horizon_days)
    return score_cache(trace, bursts, cells, scores, profile.max_ta + 1, horizon_days * profile.n_slots)


def run_experiment(config: ScenarioConfig, profile: Optional[KpiProfile] = None) -> SweepResult:
    """Train (unless a profile is supplied), generate the evaluation trace once,
    then sweep the whole gamma grid over it."""
    if profile is None:
        profile = train_profile_for(config)
    trace, bursts, _layout = build_trace(
        config, seed=config.seed_eval, days=config.eval_days, include_attacks=True
    )
    cache = build_score_cache(trace, bursts, profile, config.sigma_floor, config.eval_days)
    rows = tuple(metrics_at(cache, gamma) for gamma in sorted(config.gamma_grid))
    return SweepResult(rows=rows)


SWEEP_CSV_HEADER = "gamma,p_detection,p_false_alarm,p_false_alarm_per_cell,bursts_total,intervals_total"


def write_sweep_csv(result: SweepResult, path) -> None:
    """Plot-ready CSV; floats keep full round-trip precision, '.' decimal point."""
    lines = [SWEEP_CSV_HEADER]
    for row in result.rows:
        p_detection = float("nan") if row.p_detection is None else float(row.p_detection)
        lines.append(
            f"{float(row.gamma)!r},{p_detection!r},{float(row.p_false_alarm)!r},"
            f"{float(row.p_false_alarm_per_cell)!r},{row.denominators['bursts']},{row.denominators['intervals']}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
