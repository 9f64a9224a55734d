"""End-to-end run of a labeled trace through the detector.

Each request is the tail of the Msg1/Msg2/Msg3 exchange: the detector sees a
copy, answers accept or reject, and the outcome is recorded against the
event's ground-truth label so detection and false-alarm probabilities can be
computed afterwards. Verdicts and policies derive from the batch scoring
kernel ``detector.score_events``, and every metric derives from one
threshold of a ``ScoreCache`` in ``metrics_at``; replaying the trace through
``detector.on_rsr`` one event at a time is the oracle they are tested
against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ScoringMode
from .core import Trace, Verdicts, cell_keys, slots_per_day
from .detector import DetectorConfig, Policy, group_max, score_events
from .profiler import KpiProfile
from .traffic import Burst


@dataclass
class RunReport:
    """Everything one run produced: the scored trace, its verdicts and its policies."""

    gamma: float
    sigma_floor: float
    scoring_mode: ScoringMode
    interval_seconds: int
    max_ta: int
    horizon_days: int
    trace: Trace
    verdicts: Verdicts
    policies: list[Policy]


@dataclass(frozen=True)
class Metrics:
    """Detection and false-alarm probabilities at one gamma plus the raw counts behind them.

    ``p_detection`` is None when the run saw no attack bursts at all.
    """

    gamma: float
    p_detection: Optional[float]
    p_false_alarm: float
    p_false_alarm_per_cell: float
    numerators: dict
    denominators: dict


@dataclass
class ScoreCache:
    """Gamma-independent scores of one trace, reduced to what the metrics need.

    Within a cell the running-count score rises strictly with every event, so
    a cell's flag state at threshold gamma is just "last score > gamma" and an
    event's verdict is "own score > gamma". Interval-end scores, where every
    event carries its cell's last score, reduce to the same cache.
    """

    scores: np.ndarray
    attack_scores: np.ndarray
    burst_max: np.ndarray
    interval_clean_max: np.ndarray
    clean_cell_last: np.ndarray
    bursts_total: int
    intervals_total: int
    cells_total: int


def run(
    trace: Trace,
    profile: KpiProfile,
    config: DetectorConfig,
    horizon_days: int,
    scoring_mode: ScoringMode = ScoringMode.PER_RSR,
) -> RunReport:
    """Score every event and derive verdicts and policies; fully deterministic.

    ``per_rsr`` rejects an event when its own score exceeds gamma and issues
    a policy at each cell's first crossing, in trace order. ``interval_end``
    scores each cell once on its full count: every event of a flagged cell
    is rejected and carries the cell's score, and policies are issued at the
    interval end in (day, slot, TA) order. ``scoring_mode`` may also be given
    by its value (``"per_rsr"``); any other value raises ``ValueError``.
    """
    scoring_mode = ScoringMode(scoring_mode)
    cells, anomalies = score_events(trace.time_s, trace.ta, profile, config.sigma_floor, horizon_days)
    n_ta = profile.max_ta + 1
    if scoring_mode is ScoringMode.PER_RSR:
        crossings = np.flatnonzero(anomalies > config.gamma)
        _cells, first = np.unique(cells[crossings], return_index=True)
        issued = np.sort(crossings[first])
        policy_cells, issued_at_s = cells[issued], trace.time_s[issued].tolist()
    else:
        cell_set, cell_final, cell_of = group_max(cells, anomalies)
        anomalies = cell_final[cell_of]
        policy_cells = cell_set[cell_final > config.gamma]
        issued_at_s = ((policy_cells // n_ta + 1) * profile.interval_seconds).astype(float).tolist()
    day_slot, policy_tas = np.divmod(policy_cells, n_ta)
    days, slots = np.divmod(day_slot, profile.n_slots)
    policies = list(map(Policy, policy_tas.tolist(), days.tolist(), slots.tolist(), issued_at_s))
    return RunReport(
        gamma=config.gamma,
        sigma_floor=config.sigma_floor,
        scoring_mode=scoring_mode,
        interval_seconds=profile.interval_seconds,
        max_ta=profile.max_ta,
        horizon_days=horizon_days,
        trace=trace,
        verdicts=Verdicts(anomalies > config.gamma, anomalies),
        policies=policies,
    )


def score_cache(
    trace: Trace,
    bursts: Sequence[Burst],
    cells: np.ndarray,
    scores: np.ndarray,
    n_ta: int,
    intervals_total: int,
) -> ScoreCache:
    """Aggregate each event's score, keyed by its flat cell, per burst, per clean cell and per interval."""
    attack = trace.attack
    clean = ~np.isin(cells, cells[attack])
    clean_cells, clean_last, _cell_of = group_max(cells[clean], scores[clean])
    _intervals, interval_clean_max, _interval_of = group_max(clean_cells // n_ta, clean_last)
    attack_scores = scores[attack]
    _bursts, burst_max, _burst_of = group_max(trace.burst_id[attack], attack_scores)
    return ScoreCache(
        scores=scores,
        attack_scores=attack_scores,
        burst_max=burst_max,
        interval_clean_max=interval_clean_max,
        clean_cell_last=clean_last,
        bursts_total=sum(1 for b in bursts if b.count > 0),
        intervals_total=intervals_total,
        cells_total=intervals_total * n_ta,
    )


def metrics_at(cache: ScoreCache, gamma: float) -> Metrics:
    """Detection and false-alarm probabilities at threshold gamma.

    An event is rejected when its score exceeds gamma. A burst counts as
    detected when at least one of its events was rejected; the denominator
    is every burst with at least one event inside the horizon. A false alarm
    is an interval instance with at least one flagged TA whose cell received
    zero attack events; intervals are counted over the whole horizon,
    including empty ones. The per-cell rate is co-reported with
    (intervals x TA bins) as denominator.
    """
    detected = int(np.count_nonzero(cache.burst_max > gamma))
    fa_intervals = int(np.count_nonzero(cache.interval_clean_max > gamma))
    fa_cells = int(np.count_nonzero(cache.clean_cell_last > gamma))
    return Metrics(
        gamma=float(gamma),
        p_detection=detected / cache.bursts_total if cache.bursts_total else None,
        p_false_alarm=fa_intervals / cache.intervals_total,
        p_false_alarm_per_cell=fa_cells / cache.cells_total,
        numerators={
            "detected_bursts": detected,
            "false_alarm_intervals": fa_intervals,
            "false_alarm_cells": fa_cells,
            "rejected_attack_events": int(np.count_nonzero(cache.attack_scores > gamma)),
        },
        denominators={
            "bursts": cache.bursts_total,
            "intervals": cache.intervals_total,
            "cells": cache.cells_total,
            "attack_events": cache.attack_scores.size,
        },
    )


def compute_metrics(report: RunReport, bursts: Sequence[Burst]) -> Metrics:
    """``metrics_at`` the run's gamma over its anomalies: in both scoring modes an
    event is rejected when its anomaly exceeds gamma, and an interval-end
    anomaly is its cell's full-count score."""
    trace = report.trace
    cells = cell_keys(trace.time_s, trace.ta, report.interval_seconds, report.max_ta)
    intervals_total = report.horizon_days * slots_per_day(report.interval_seconds)
    cache = score_cache(trace, bursts, cells, report.verdicts.anomaly, report.max_ta + 1, intervals_total)
    return metrics_at(cache, report.gamma)


def write_policy_log(path, policies: Sequence[Policy]) -> None:
    """Emit policies as JSONL records: {time_s, slot, ta, action}."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for policy in policies:
            record = {
                "time_s": policy.issued_at_s,
                "slot": policy.slot_of_day,
                "ta": policy.ta,
                "action": "reject_all_ta",
            }
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")


def write_summary(path, metrics: Metrics) -> None:
    """Single-run summary JSON with both false-alarm variants and raw counts."""
    summary = {
        "gamma": metrics.gamma,
        "p_detection": metrics.p_detection,
        "p_false_alarm": metrics.p_false_alarm,
        "p_false_alarm_per_cell": metrics.p_false_alarm_per_cell,
        "numerators": metrics.numerators,
        "denominators": metrics.denominators,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
