"""Threshold sweep over a single evaluation trace.

The same trace is reused for every gamma (paired comparison), so both curves
are exactly monotone in the threshold rather than statistically so. Scores do
not depend on gamma, so they are computed once by ``detector.score_events``
and thresholded per grid point; replaying the trace through
``detector.on_rsr`` one event at a time is the oracle for that shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ScenarioConfig
from .core import Trace, slots_per_day
from .detector import group_max, score_events
from .geometry import TaQuantizer, max_ta_index
from .profiler import KpiProfile, count_per_interval, train
from .traffic import Burst, build_trace


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    p_detection: Optional[float]
    p_false_alarm: float
    p_false_alarm_per_cell: float
    bursts_total: int
    intervals_total: int


@dataclass(frozen=True)
class SweepResult:
    """Rows sorted by gamma ascending; probabilities non-increasing down the rows."""

    rows: tuple[SweepRow, ...]


@dataclass
class ScoreCache:
    """Gamma-independent scoring of one trace, reduced to what the sweep needs.

    Within a cell the running-count score rises strictly with every event, so
    a cell's flag state at threshold gamma is just "last score > gamma" and an
    event's verdict is "own score > gamma".
    """

    scores: np.ndarray
    burst_max: np.ndarray
    interval_clean_max: np.ndarray
    clean_cell_last: np.ndarray
    bursts_total: int
    intervals_total: int
    cells_total: int


def train_profile_for(config: ScenarioConfig) -> KpiProfile:
    """Generate the configured clean training days and fold them into a profile."""
    trace, _bursts, _layout = build_trace(
        config, seed=config.seed_train, days=config.training_days, include_attacks=False
    )
    max_ta = max_ta_index(config.cell_radius_m, TaQuantizer(config.numerology_mu))
    counts = count_per_interval(trace, config.interval_seconds, max_ta, config.training_days)
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
    attack = trace.attack
    clean = ~np.isin(cells, cells[attack])
    clean_cells, clean_last, _cell_of = group_max(cells[clean], scores[clean])
    clean_intervals = clean_cells // (profile.max_ta + 1)
    _intervals, interval_clean_max, _interval_of = group_max(clean_intervals, clean_last)
    _bursts, burst_max, _burst_of = group_max(trace.burst_id[attack], scores[attack])

    intervals_total = horizon_days * slots_per_day(profile.interval_seconds)
    return ScoreCache(
        scores=scores,
        burst_max=np.sort(burst_max),
        interval_clean_max=np.sort(interval_clean_max),
        clean_cell_last=np.sort(clean_last),
        bursts_total=sum(1 for b in bursts if b.count > 0),
        intervals_total=intervals_total,
        cells_total=intervals_total * (profile.max_ta + 1),
    )


def metrics_at(cache: ScoreCache, gamma: float) -> SweepRow:
    """Threshold the cached scores at one gamma."""
    detected = int(np.count_nonzero(cache.burst_max > gamma))
    p_detection = detected / cache.bursts_total if cache.bursts_total else None
    fa_intervals = int(np.count_nonzero(cache.interval_clean_max > gamma))
    fa_cells = int(np.count_nonzero(cache.clean_cell_last > gamma))
    return SweepRow(
        gamma=float(gamma),
        p_detection=p_detection,
        p_false_alarm=fa_intervals / cache.intervals_total,
        p_false_alarm_per_cell=fa_cells / cache.cells_total,
        bursts_total=cache.bursts_total,
        intervals_total=cache.intervals_total,
    )


def run_experiment(config: ScenarioConfig, profile: Optional[KpiProfile] = None) -> SweepResult:
    """Train (unless a profile is supplied), generate the evaluation trace once,
    then sweep the whole gamma grid over it."""
    if not config.gamma_grid:
        raise ValueError("gamma_grid must not be empty")
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
            f"{float(row.p_false_alarm_per_cell)!r},{row.bursts_total},{row.intervals_total}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
