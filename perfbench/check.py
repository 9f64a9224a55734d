"""Independent recomputation of stormsim's outputs for the benchmark's checks.

Nothing here imports stormsim. The profile CSV, trace JSONL, bursts, policies,
summary and sweep CSV are parsed with the standard library and numpy, and the
scores, verdicts and metrics are recomputed from the method's definition:

    score   = (running count of the event's (day, slot, TA) cell - mean[slot, TA])
              / max(std[slot, TA], sigma_floor)
    verdict = reject from the first event of a cell whose score exceeds gamma
              to the end of that cell

Every ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

SECONDS_PER_DAY = 86400
SPEED_OF_LIGHT_M_S = 299_792_458.0
BASIC_TIME_UNIT_S = 1.0 / (480_000.0 * 4096.0)  # NR Tc
SCORE_RTOL = 1e-12  # scores may be re-associated, never changed
SIGMAS = 4.0  # closed-form counts must lie within this many standard deviations


def max_ta(config: dict) -> int:
    """Largest TA index in the cell: NR timing-advance step 16*64*Tc / 2^mu, one way."""
    step_m = SPEED_OF_LIGHT_M_S * 16 * 64 * BASIC_TIME_UNIT_S / (2.0 * 2.0 ** config["numerology_mu"])
    return int(config["cell_radius_m"] // step_m)


def parse_profile(text: str) -> dict:
    lines = text.splitlines()
    meta = dict(part.split("=") for part in lines[0].lstrip("#").split(","))
    if lines[1] != "slot,ta,mean,std":
        raise ValueError(f"bad profile header {lines[1]!r}")
    rows = np.array([line.split(",") for line in lines[2:] if line], dtype=float).reshape(-1, 4)
    return {
        "interval_seconds": int(meta["interval_seconds"]),
        "max_ta": int(meta["max_ta"]),
        "training_days": int(meta["training_days"]),
        "slot": rows[:, 0].astype(np.int64),
        "ta": rows[:, 1].astype(np.int64),
        "mean": rows[:, 2],
        "std": rows[:, 3],
    }


def parse_trace(text: str) -> dict:
    records = json.loads("[" + ",".join(line for line in text.splitlines() if line) + "]")
    return {
        "time": np.array([r["time_s"] for r in records], dtype=float),
        "ta": np.array([r["ta"] for r in records], dtype=np.int64),
        "attack": np.array([r["label"] == "attack" for r in records], dtype=bool),
        "burst": np.array([r.get("burst_id", -1) for r in records], dtype=np.int64),
        "verdict": [r.get("verdict") for r in records],
        "anomaly": np.array([r.get("anomaly", math.nan) for r in records], dtype=float),
    }


def parse_policies(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def parse_sweep(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]


class Scored:
    """A trace scored against a profile: one score per event plus its cell."""

    def __init__(self, trace: dict, profile: dict, config: dict):
        interval = config["interval_seconds"]
        self.n_slots = SECONDS_PER_DAY // interval
        self.n_ta = max_ta(config) + 1
        mean = np.zeros((self.n_slots, self.n_ta))
        std = np.zeros((self.n_slots, self.n_ta))
        mean[profile["slot"], profile["ta"]] = profile["mean"]
        std[profile["slot"], profile["ta"]] = profile["std"]

        self.trace = trace
        time, ta = trace["time"], trace["ta"]
        day = np.floor_divide(time, SECONDS_PER_DAY).astype(np.int64)
        self.slot = np.floor_divide(np.remainder(time, SECONDS_PER_DAY), interval).astype(np.int64)
        self.cell = (day * self.n_slots + self.slot) * self.n_ta + ta

        n = len(time)
        order = np.argsort(self.cell, kind="stable")
        ordered = self.cell[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]]) if n else np.zeros(0, int)
        rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
        self.count = np.empty(n, dtype=np.int64)
        self.count[order] = rank + 1
        self.score = (self.count - mean[self.slot, ta]) / np.maximum(
            std[self.slot, ta], config["sigma_floor"]
        )
        self.cells, self.cell_index = np.unique(self.cell, return_inverse=True)
        self.intervals_total = config["eval_days"] * self.n_slots

    def first_crossing(self, gamma: float) -> np.ndarray:
        """Per cell, the trace position of its first score above gamma (len(trace) if none)."""
        n = len(self.cell)
        first = np.full(len(self.cells), n, dtype=np.int64)
        crossing = np.flatnonzero(self.score > gamma)
        np.minimum.at(first, self.cell_index[crossing], crossing)
        return first

    def rejects(self, gamma: float) -> np.ndarray:
        return np.arange(len(self.cell)) >= self.first_crossing(gamma)[self.cell_index]

    def policies(self, gamma: float) -> list[tuple[float, int, int]]:
        first = self.first_crossing(gamma)
        positions = np.sort(first[first < len(self.cell)])
        return [
            (float(self.trace["time"][i]), int(self.slot[i]), int(self.trace["ta"][i]))
            for i in positions
        ]

    def metrics(self, gamma: float) -> dict:
        attack, burst = self.trace["attack"], self.trace["burst"]
        reject = self.rejects(gamma)
        flagged = self.cells[self.first_crossing(gamma) < len(self.cell)]
        false_cells = np.setdiff1d(flagged, self.cell[attack])
        fa_intervals = np.unique(false_cells // self.n_ta)
        bursts = len(np.unique(burst[attack]))
        detected = len(np.unique(burst[attack & reject]))
        cells_total = self.intervals_total * self.n_ta
        return {
            "p_detection": detected / bursts if bursts else None,
            "p_false_alarm": len(fa_intervals) / self.intervals_total,
            "p_false_alarm_per_cell": len(false_cells) / cells_total,
            "numerators": {
                "detected_bursts": detected,
                "false_alarm_intervals": len(fa_intervals),
                "false_alarm_cells": len(false_cells),
                "rejected_attack_events": int(np.count_nonzero(attack & reject)),
            },
            "denominators": {
                "bursts": bursts,
                "intervals": self.intervals_total,
                "cells": cells_total,
                "attack_events": int(np.count_nonzero(attack)),
            },
        }


def check_profile(config: dict, profile: dict) -> list[str]:
    """The trained profile: metadata, cell bounds, moments, and the training-event total."""
    failures, top_ta = [], max_ta(config)
    expected = (config["interval_seconds"], top_ta, config["training_days"])
    got = (profile["interval_seconds"], profile["max_ta"], profile["training_days"])
    if got != expected:
        failures.append(f"profile metadata {got} != config {expected}")
    n_slots = SECONDS_PER_DAY // config["interval_seconds"]
    slot, ta = profile["slot"], profile["ta"]
    if np.any((slot < 0) | (slot >= n_slots) | (ta < 0) | (ta > top_ta)):
        failures.append("profile cell outside the (slot, TA) table")
    if len(np.unique(slot * (top_ta + 1) + ta)) != len(slot):
        failures.append("profile has duplicate cells")
    mean, std = profile["mean"], profile["std"]
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        failures.append("profile has a non-finite mean or std")
    if np.any(mean < 0) or np.any(std < 0):
        failures.append("profile has a negative mean or std")
    days = config["training_days"]
    cell_totals = mean * days
    if not np.allclose(cell_totals, np.round(cell_totals), rtol=0, atol=1e-6):
        failures.append("a profile mean is not a whole count divided by training_days")
    failures += _within_sigmas(
        "training legit events",
        int(np.round(cell_totals.sum())),
        _legit_expected(config, days),
    )
    return failures


def check_run(config: dict, scored: Scored, bursts: list, policies: list, summary: dict) -> list[str]:
    """trace.jsonl verdicts and anomalies, policies.jsonl and summary.json against the recomputation."""
    failures = []
    trace, gamma = scored.trace, config["gamma"]
    if np.any(np.diff(trace["time"]) < 0):
        failures.append("trace is not sorted by time")
    close = np.isclose(trace["anomaly"], scored.score, rtol=SCORE_RTOL, atol=SCORE_RTOL)
    if not close.all():
        failures.append(f"{np.count_nonzero(~close)} anomaly values differ from the recomputed scores")
    if not set(trace["verdict"]) <= {"accept", "reject"}:
        failures.append("trace.jsonl has a verdict other than accept/reject")
    differ = np.count_nonzero(_rejected(trace) != scored.rejects(gamma))
    if differ:
        failures.append(f"{differ} verdicts differ from the recomputed ones")
    got_policies = [(p["time_s"], p["slot"], p["ta"]) for p in policies]
    if got_policies != scored.policies(gamma) or any(p["action"] != "reject_all_ta" for p in policies):
        failures.append("policies.jsonl differs from the recomputed first crossings")
    want = {"gamma": gamma, **scored.metrics(gamma)}
    for key, value in want.items():
        if summary.get(key) != value:
            failures.append(f"summary {key}={summary.get(key)!r}, recomputed {value!r}")
    seen = sorted(int(b) for b in np.unique(trace["burst"][trace["attack"]]))
    if seen != sorted(b["burst_id"] for b in bursts if b["count"] > 0):
        failures.append("bursts.json bursts with events differ from the trace's burst ids")
    return failures


def check_sweep(config: dict, scored: Scored, rows: list[dict]) -> list[str]:
    """Each sweep row against the same recomputation at its gamma; rows non-increasing."""
    failures = []
    grid = sorted(config["gamma_grid"])
    if [row["gamma"] for row in rows] != grid:
        return [f"sweep gammas {[row['gamma'] for row in rows]} != sorted grid {grid}"]
    for row in rows:
        want = scored.metrics(row["gamma"])
        p_detection = math.nan if want["p_detection"] is None else want["p_detection"]
        expected = {
            "p_detection": p_detection,
            "p_false_alarm": want["p_false_alarm"],
            "p_false_alarm_per_cell": want["p_false_alarm_per_cell"],
            "bursts_total": want["denominators"]["bursts"],
            "intervals_total": want["denominators"]["intervals"],
        }
        for key, value in expected.items():
            if not (row[key] == value or (math.isnan(value) and math.isnan(row[key]))):
                failures.append(f"sweep gamma={row['gamma']}: {key}={row[key]!r}, recomputed {value!r}")
    for key in ("p_detection", "p_false_alarm", "p_false_alarm_per_cell"):
        column = np.array([row[key] for row in rows])
        if np.any(np.diff(column[~np.isnan(column)]) > 0):
            failures.append(f"sweep {key} increases with gamma")
    return failures


def check_traffic(config: dict, trace: dict, bursts: list) -> list[str]:
    """Event and burst counts against their closed forms; every whole burst is complete."""
    days, attack = config["eval_days"], config["attack"]
    legit = int(np.count_nonzero(~trace["attack"]))
    failures = _within_sigmas("evaluation legit events", legit, _legit_expected(config, days))
    failures += _within_sigmas(
        "bursts", len(bursts), attack["adversary_count"] * attack["bursts_per_day"] * days
    )
    horizon = days * SECONDS_PER_DAY
    times = trace["time"][trace["attack"]]
    ids = trace["burst"][trace["attack"]]
    per_burst = dict(zip(*np.unique(ids, return_counts=True)))
    for b in bursts:
        inside = times[ids == b["burst_id"]]
        end = b["start_s"] + b["window_s"]
        if per_burst.get(b["burst_id"], 0) != b["count"]:
            failures.append(f"burst {b['burst_id']}: bursts.json count {b['count']} != trace events")
        if end <= horizon and b["count"] != attack["rsrs_per_burst"]:
            failures.append(f"burst {b['burst_id']} ends inside the horizon with {b['count']} events")
        if np.any((inside < b["start_s"]) | (inside >= min(end, horizon))):
            failures.append(f"burst {b['burst_id']} has events outside its window")
    return failures


def check_readback(trace: dict, summary: dict, readback: dict) -> list[str]:
    """read_trace must return the events and rejects that trace.jsonl and summary.json hold."""
    expected = {
        "events": len(trace["time"]),
        "rejects": int(np.count_nonzero(_rejected(trace))),
        "attack_events": summary["denominators"]["attack_events"],
        "rejected_attack_events": summary["numerators"]["rejected_attack_events"],
    }
    return [
        f"read_trace {key}={readback.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if readback.get(key) != value
    ]


def _rejected(trace: dict) -> np.ndarray:
    return np.array([v == "reject" for v in trace["verdict"]], dtype=bool)


def _legit_expected(config: dict, days: int) -> float:
    """The diurnal sinusoid integrates to the base rate over whole days."""
    legit = config["legit"]
    return legit["device_count"] * legit["base_rate_per_hour"] * 24 * days


def _within_sigmas(what: str, observed: int, expected: float) -> list[str]:
    """Poisson count: its standard deviation is the square root of its mean."""
    if abs(observed - expected) <= SIGMAS * math.sqrt(expected):
        return []
    return [f"{what}: {observed} is more than {SIGMAS:g} sigma from {expected:g}"]
