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
from .core import Trace, Verdicts, group_starts
from .detector import DetectorConfig, Policy, score_events
from .profiler import KpiProfile


@dataclass
class RunReport:
    """Everything one run produced: the trace's verdicts, its policies and its metrics."""

    verdicts: Verdicts
    policies: list[Policy]
    metrics: Metrics


@dataclass(frozen=True)
class Metrics:
    """Detection and false-alarm probabilities at one gamma plus the raw counts behind them.

    ``p_detection`` is None when the run saw no attack bursts at all. The
    fields, in this order, are the keys of ``summary.json``.
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
    ``burst_max`` holds one entry per distinct burst id among the attack
    events, so its size is the number of bursts with an event in the trace.
    """

    attack_scores: np.ndarray
    burst_max: np.ndarray
    interval_clean_max: np.ndarray
    clean_cell_last: np.ndarray
    intervals_total: int
    cells_total: int


def run(
    trace: Trace,
    profile: KpiProfile,
    config: DetectorConfig,
    horizon_days: int,
    scoring_mode: ScoringMode = ScoringMode.PER_RSR,
) -> RunReport:
    """Score every event and derive verdicts, policies and metrics; fully deterministic.

    ``per_rsr`` rejects an event when its own score exceeds gamma and issues
    a policy at each cell's first crossing, in trace order. ``interval_end``
    scores each cell once on its full count: every event of a flagged cell
    is rejected and carries the cell's score, and policies are issued at the
    interval end in (day, slot, TA) order. ``scoring_mode`` may also be given
    by its value (``"per_rsr"``); any other value raises ``ValueError``.
    """
    per_rsr = ScoringMode(scoring_mode) is ScoringMode.PER_RSR
    cache, keys, index, anomalies = score_cache(trace, profile, config.sigma_floor, horizon_days, scoring_mode)
    verdicts = Verdicts._adopt(anomalies > config.gamma, anomalies)
    crossings = np.flatnonzero(verdicts.rejected)
    issued = crossings[np.unique(index[crossings], return_index=True)[1]]  # each flagged cell's first crossing
    issued = np.sort(issued) if per_rsr else issued  # per_rsr issues in trace order, interval_end in key order
    policy_cells, n_ta = keys[index[issued]], profile.max_ta + 1
    issued_at_s = trace.time_s[issued] if per_rsr else ((policy_cells // n_ta + 1) * profile.interval_seconds).astype(float)
    day_slot, policy_tas = np.divmod(policy_cells, n_ta)
    days, slots = np.divmod(day_slot, profile.n_slots)
    policies = list(map(Policy, policy_tas.tolist(), days.tolist(), slots.tolist(), issued_at_s.tolist()))
    return RunReport(verdicts, policies, metrics_at(cache, config.gamma))


def score_cache(
    trace: Trace, profile: KpiProfile, sigma_floor: float, horizon_days: int, scoring_mode: ScoringMode
) -> tuple[ScoreCache, np.ndarray, np.ndarray, np.ndarray]:
    """The ``ScoreCache`` of every event's score in ``scoring_mode``, with ``score_events``' cell keys, each
    event's index into them and each event's score. A cell's highest per-RSR score is its last one, and so,
    bit for bit, the interval-end score of each of its events."""
    interval_end = ScoringMode(scoring_mode) is ScoringMode.INTERVAL_END
    keys, index, scores = score_events(trace.time_s, trace.ta, profile, sigma_floor, horizon_days)
    cell_max = np.full(keys.size, -np.inf)
    np.maximum.at(cell_max, index, scores)
    if interval_end:
        scores = cell_max[index]
    attack = trace.attack
    clean = np.ones(keys.size, bool)
    clean[index[attack]] = False  # a cell is clean when no attack event falls in it
    clean_last = cell_max[clean]
    n_ta, intervals_total = profile.max_ta + 1, horizon_days * profile.n_slots
    intervals = keys[clean]
    intervals //= n_ta  # ascending, as the keys are
    interval_clean_max = np.maximum.reduceat(clean_last, np.flatnonzero(group_starts(intervals)))
    del clean, intervals
    attack_scores = scores[attack]
    bursts = trace.burst_id[attack]
    order = np.argsort(bursts, kind="stable")  # a radix sort of 8- and 16-bit ids, a merge of nearly sorted wider ones
    bursts.sort(kind="stable")  # in place, the same values as ``bursts[order]``
    burst_max = np.maximum.reduceat(attack_scores[order], np.flatnonzero(group_starts(bursts)))
    cache = ScoreCache(attack_scores, burst_max, interval_clean_max, clean_last, intervals_total, intervals_total * n_ta)
    return cache, keys, index, scores


def build_score_cache(
    trace: Trace,
    profile: KpiProfile,
    sigma_floor: float,
    horizon_days: int,
    scoring_mode: ScoringMode = ScoringMode.PER_RSR,
) -> ScoreCache:
    """Score every event once, as ``run`` does in that mode, and aggregate per burst, per cell and per interval."""
    return score_cache(trace, profile, sigma_floor, horizon_days, scoring_mode)[0]


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
    bursts_total = cache.burst_max.size
    detected = int(np.count_nonzero(cache.burst_max > gamma))
    fa_intervals = int(np.count_nonzero(cache.interval_clean_max > gamma))
    fa_cells = int(np.count_nonzero(cache.clean_cell_last > gamma))
    return Metrics(
        gamma=float(gamma),
        p_detection=detected / bursts_total if bursts_total else None,
        p_false_alarm=fa_intervals / cache.intervals_total,
        p_false_alarm_per_cell=fa_cells / cache.cells_total,
        numerators={
            "detected_bursts": detected,
            "false_alarm_intervals": fa_intervals,
            "false_alarm_cells": fa_cells,
            "rejected_attack_events": int(np.count_nonzero(cache.attack_scores > gamma)),
        },
        denominators={
            "bursts": bursts_total,
            "intervals": cache.intervals_total,
            "cells": cache.cells_total,
            "attack_events": cache.attack_scores.size,
        },
    )


def compute_metrics(report: RunReport) -> Metrics:
    """The metrics ``run`` computed: ``metrics_at`` its gamma over its own anomalies.

    ``stormsim run`` reads them through this name, which the benchmark harness times.
    """
    return report.metrics


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
