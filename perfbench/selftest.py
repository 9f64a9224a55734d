"""Self-test of the benchmark's independent scorer and checks.

    python3 perfbench/selftest.py

A ten-event trace over two 300 s intervals and three TA bins, whose scores,
verdicts, policies and metrics are worked out by hand below. The checks must
pass on the correct outputs and fail on a trace with one verdict flipped, on
a summary with one metric changed, and on a sweep with one row changed.
"""

from __future__ import annotations

import copy
import json
import sys

import check

# Cell radius 200 m at numerology 0 (TA step 78.07 m) gives TA bins 0..2.
CONFIG = {
    "cell_radius_m": 200.0,
    "numerology_mu": 0,
    "interval_seconds": 300,
    "eval_days": 1,
    "sigma_floor": 1.0,
    "gamma": 1.5,
    "gamma_grid": [3.0, 0.0, 1.5],
}
# slot 0, TA 1: mean 1, std 0.5 (floored to 1); slot 1, TA 1: mean 0, std 2; other cells 0, 0.
PROFILE = "#interval_seconds=300,max_ta=2,training_days=2\nslot,ta,mean,std\n0,1,1.0,0.5\n1,1,0.0,2.0\n"
# (time_s, ta, burst_id or None, running count, score, verdict at gamma 1.5)
EVENTS = [
    (10.0, 1, None, 1, 0.0, "accept"),  # (1 - 1) / 1
    (20.0, 2, 0, 1, 1.0, "accept"),  # (1 - 0) / 1
    (30.0, 2, 0, 2, 2.0, "reject"),  # first crossing of cell (0, 0, 2): policy
    (40.0, 1, None, 2, 1.0, "accept"),
    (50.0, 2, 0, 3, 3.0, "reject"),
    (310.0, 1, None, 1, 0.5, "accept"),  # (1 - 0) / 2
    (320.0, 1, None, 2, 1.0, "accept"),
    (330.0, 1, None, 3, 1.5, "accept"),  # equal to gamma is not above it
    (340.0, 1, None, 4, 2.0, "reject"),  # first crossing of clean cell (0, 1, 1): false alarm
    (350.0, 0, 1, 1, 1.0, "accept"),  # burst 1 is never rejected
]
POLICIES = [(30.0, 0, 2), (340.0, 1, 1)]
# 288 intervals in the day, 288 * 3 cells.
SUMMARY = {
    "gamma": 1.5,
    "p_detection": 0.5,
    "p_false_alarm": 1 / 288,
    "p_false_alarm_per_cell": 1 / 864,
    "numerators": {
        "detected_bursts": 1,
        "false_alarm_intervals": 1,
        "false_alarm_cells": 1,
        "rejected_attack_events": 2,
    },
    "denominators": {"bursts": 2, "intervals": 288, "cells": 864, "attack_events": 4},
}
# gamma 0: cells (0,0,1) and (0,1,1) are clean and flagged, both bursts detected; gamma 3: nothing.
SWEEP = (
    "gamma,p_detection,p_false_alarm,p_false_alarm_per_cell,bursts_total,intervals_total\n"
    f"0.0,1.0,{2 / 288!r},{2 / 864!r},2,288\n"
    f"1.5,0.5,{1 / 288!r},{1 / 864!r},2,288\n"
    "3.0,0.0,0.0,0.0,2,288\n"
)
BURSTS = [
    {"burst_id": 0, "adversary_id": 3, "start_s": 20.0, "window_s": 40.0, "count": 3},
    {"burst_id": 1, "adversary_id": 4, "start_s": 350.0, "window_s": 5.0, "count": 1},
]


def trace_text(flip: int | None = None) -> str:
    lines = []
    for i, (time_s, ta, burst, _count, score, verdict) in enumerate(EVENTS):
        if i == flip:
            verdict = "accept" if verdict == "reject" else "reject"
        record = {"time_s": time_s, "device_id": i, "ta": ta, "label": "legit" if burst is None else "attack"}
        if burst is not None:
            record["burst_id"] = burst
        record.update(verdict=verdict, anomaly=score)
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


def policy_records() -> list[dict]:
    return [{"time_s": t, "slot": s, "ta": ta, "action": "reject_all_ta"} for t, s, ta in POLICIES]


def run_checks(trace: str, summary: dict, sweep: str) -> list[str]:
    scored = check.Scored(check.parse_trace(trace), check.parse_profile(PROFILE), CONFIG)
    return check.check_run(CONFIG, scored, BURSTS, policy_records(), summary) + check.check_sweep(
        CONFIG, scored, check.parse_sweep(sweep)
    )


def run() -> list[str]:
    """Return what went wrong; an empty list means the checks behave as worked out by hand."""
    problems = []
    trace = check.parse_trace(trace_text())
    scored = check.Scored(trace, check.parse_profile(PROFILE), CONFIG)
    if scored.count.tolist() != [e[3] for e in EVENTS]:
        problems.append(f"running counts {scored.count.tolist()}")
    if scored.score.tolist() != [e[4] for e in EVENTS]:
        problems.append(f"scores {scored.score.tolist()}")
    if scored.rejects(1.5).tolist() != [e[5] == "reject" for e in EVENTS]:
        problems.append(f"verdicts {scored.rejects(1.5).tolist()}")
    if scored.policies(1.5) != POLICIES:
        problems.append(f"policies {scored.policies(1.5)}")
    if {"gamma": 1.5, **scored.metrics(1.5)} != SUMMARY:
        problems.append(f"metrics {scored.metrics(1.5)}")
    failures = run_checks(trace_text(), SUMMARY, SWEEP)
    if failures:
        problems.append(f"checks fail on correct outputs: {failures}")
    if not run_checks(trace_text(flip=2), SUMMARY, SWEEP):
        problems.append("checks pass a trace with one verdict flipped")
    corrupt = copy.deepcopy(SUMMARY)
    corrupt["p_false_alarm"] = 2 / 288
    if not run_checks(trace_text(), corrupt, SWEEP):
        problems.append("checks pass a summary with a wrong p_false_alarm")
    if not run_checks(trace_text(), SUMMARY, SWEEP.replace("3.0,0.0,0.0", "3.0,0.5,0.0")):
        problems.append("checks pass a sweep row with a wrong p_detection")
    readback = {"events": 10, "rejects": 3, "attack_events": 4, "rejected_attack_events": 2}
    if check.check_readback(trace, SUMMARY, readback):
        problems.append("readback check fails on correct counts")
    if not check.check_readback(trace, SUMMARY, {**readback, "rejects": 2}):
        problems.append("readback check passes a wrong reject count")
    return problems


if __name__ == "__main__":
    problems = run()
    print("\n".join(problems) or "self-test passed")
    sys.exit(1 if problems else 0)
