"""End-to-end run of a labeled trace through the detector.

Each request is the tail of the Msg1/Msg2/Msg3 exchange: the detector sees a
copy, answers accept or reject, and the outcome is recorded against the
event's ground-truth label so detection and false-alarm probabilities can be
computed afterwards. Verdicts and policies derive from the batch scoring
kernel ``detector.score_events``; replaying the trace through
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
    """Everything one run produced: the scored trace, its verdicts, flagged cells, policies."""

    gamma: float
    sigma_floor: float
    scoring_mode: ScoringMode
    interval_seconds: int
    max_ta: int
    horizon_days: int
    trace: Trace
    verdicts: Verdicts
    flagged: set[tuple[int, int, int]]
    policies: list[Policy]

    @property
    def intervals_total(self) -> int:
        return self.horizon_days * slots_per_day(self.interval_seconds)


@dataclass(frozen=True)
class Metrics:
    """Detection and false-alarm probabilities plus the raw counts behind them.

    ``p_detection`` is None when the run saw no attack bursts at all.
    """

    p_detection: Optional[float]
    p_false_alarm: float
    p_false_alarm_per_cell: float
    numerators: dict
    denominators: dict


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
    interval end in (day, slot, TA) order.
    """
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
        flagged={(p.day, p.slot_of_day, p.ta) for p in policies},
        policies=policies,
    )


def compute_metrics(report: RunReport, bursts: Sequence[Burst]) -> Metrics:
    """Detection and false-alarm probabilities for one run.

    A burst counts as detected when at least one of its events was rejected;
    the denominator is every burst with at least one event inside the
    horizon. A false alarm is an interval instance with at least one flagged
    TA whose cell received zero attack events; intervals are counted over the
    whole horizon, including empty ones. The per-cell rate is co-reported
    with (intervals x TA bins) as denominator.
    """
    trace = report.trace
    cells = cell_keys(trace.time_s, trace.ta, report.interval_seconds, report.max_ta)
    attack = trace.attack
    rejected_attack = attack & report.verdicts.rejected
    detected = np.unique(trace.burst_id[rejected_attack]).size
    n_slots = slots_per_day(report.interval_seconds)
    n_ta = report.max_ta + 1
    flagged = [(day * n_slots + slot) * n_ta + ta for day, slot, ta in report.flagged]
    false_cells = np.setdiff1d(np.array(flagged, dtype=np.int64), cells[attack])
    fa_intervals = np.unique(false_cells // n_ta).size
    bursts_with_events = sum(1 for b in bursts if b.count > 0)

    intervals_total = report.intervals_total
    cells_total = intervals_total * n_ta
    p_detection = detected / bursts_with_events if bursts_with_events else None
    return Metrics(
        p_detection=p_detection,
        p_false_alarm=fa_intervals / intervals_total,
        p_false_alarm_per_cell=false_cells.size / cells_total,
        numerators={
            "detected_bursts": detected,
            "false_alarm_intervals": fa_intervals,
            "false_alarm_cells": false_cells.size,
            "rejected_attack_events": int(np.count_nonzero(rejected_attack)),
        },
        denominators={
            "bursts": bursts_with_events,
            "intervals": intervals_total,
            "cells": cells_total,
            "attack_events": int(np.count_nonzero(attack)),
        },
    )


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


def write_summary(path, gamma: float, metrics: Metrics) -> None:
    """Single-run summary JSON with both false-alarm variants and raw counts."""
    summary = {
        "gamma": gamma,
        "p_detection": metrics.p_detection,
        "p_false_alarm": metrics.p_false_alarm,
        "p_false_alarm_per_cell": metrics.p_false_alarm_per_cell,
        "numerators": metrics.numerators,
        "denominators": metrics.denominators,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
