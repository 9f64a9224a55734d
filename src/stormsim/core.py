"""Shared domain types and the day/slot arithmetic every other module builds on.

The simulation clock is a plain float: seconds since midnight of day 0.
Statistics are kept per interval of ``interval_seconds``, which must divide
the day exactly so slot boundaries stay aligned across days.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

SECONDS_PER_DAY = 86400


class Label(str, Enum):
    """Ground-truth origin of an RRC Setup Request."""

    LEGIT = "legit"
    ATTACK = "attack"


class Decision(str, Enum):
    """Detector verdict for a single request."""

    ACCEPT = "accept"
    REJECT = "reject"


class SlotIndex(NamedTuple):
    """Position of one statistics interval: day number plus slot within the day."""

    day: int
    slot_of_day: int


def time_of_day(seconds: float) -> float:
    """Seconds since the most recent midnight."""
    if seconds < 0:
        raise ValueError(f"simulation time must be non-negative, got {seconds!r}")
    return seconds % SECONDS_PER_DAY


def slots_per_day(interval_seconds: int) -> int:
    """Number of statistics intervals per day; the interval must divide the day."""
    if interval_seconds <= 0 or SECONDS_PER_DAY % interval_seconds != 0:
        raise ValueError(
            f"interval_seconds={interval_seconds!r} must be a positive divisor "
            f"of {SECONDS_PER_DAY}"
        )
    return SECONDS_PER_DAY // interval_seconds


def slot_of(seconds: float, interval_seconds: int) -> SlotIndex:
    """Map a simulation time to its (day, slot-of-day) interval."""
    slots_per_day(interval_seconds)
    if seconds < 0:
        raise ValueError(f"simulation time must be non-negative, got {seconds!r}")
    day, remainder = divmod(seconds, SECONDS_PER_DAY)
    return SlotIndex(int(day), int(remainder // interval_seconds))


def cell_keys(times: np.ndarray, tas: np.ndarray, interval_seconds: int, max_ta: int) -> np.ndarray:
    """Flat index ``(day * slots_per_day + slot) * (max_ta + 1) + ta`` of each
    event's cell, with day and slot as in :func:`slot_of`; keys sort by day,
    slot, then TA. The interval divides the day, so ``time // interval`` is
    ``day * slots_per_day + slot`` exactly."""
    slots_per_day(interval_seconds)  # raises unless the interval divides the day
    return (times // interval_seconds).astype(np.int64) * (max_ta + 1) + tas


@dataclass(frozen=True, slots=True)
class RsrEvent:
    """One RRC Setup Request arrival with its ground-truth label.

    ``burst_id`` is present exactly when the event belongs to an attack burst.
    """

    time_s: float
    device_id: int
    ta: int
    label: Label
    burst_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.time_s >= 0:  # also rejects nan
            raise ValueError(f"event time must be non-negative, got {self.time_s!r}")
        if self.device_id < 0 or self.ta < 0:
            raise ValueError("device_id and ta must be non-negative")
        if (self.burst_id is not None) != (self.label is Label.ATTACK):
            raise ValueError("burst_id must be present exactly for attack events")
        if self.burst_id is not None and self.burst_id < 0:
            raise ValueError("burst_id must be non-negative")


def event_columns(events: Sequence[RsrEvent]) -> tuple[np.ndarray, np.ndarray]:
    """Each event's ``time_s`` and ``ta`` as arrays."""
    times = np.fromiter((e.time_s for e in events), dtype=float, count=len(events))
    return times, np.fromiter((e.ta for e in events), dtype=np.int64, count=len(events))


def burst_column(events: Sequence[RsrEvent]) -> np.ndarray:
    """Each event's ``burst_id`` as an array, -1 for legit events."""
    ids = (-1 if e.burst_id is None else e.burst_id for e in events)
    return np.fromiter(ids, dtype=np.int64, count=len(events))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Accept/reject decision together with the anomaly value behind it."""

    decision: Decision
    anomaly: float


_REQUIRED_KEYS = {"time_s", "device_id", "ta", "label"}
_OPTIONAL_KEYS = {"burst_id", "verdict", "anomaly"}


def _event_record(event: RsrEvent, verdict: Optional[Verdict]) -> dict:
    record: dict = {
        "time_s": event.time_s,
        "device_id": event.device_id,
        "ta": event.ta,
        "label": event.label.value,
    }
    if event.burst_id is not None:
        record["burst_id"] = event.burst_id
    if verdict is not None:
        record["verdict"] = verdict.decision.value
        record["anomaly"] = verdict.anomaly
    return record


def write_trace(
    path,
    events: Sequence[RsrEvent],
    verdicts: Optional[Sequence[Verdict]] = None,
) -> None:
    """Write events as JSON Lines; verdict columns are included when supplied."""
    if verdicts is not None and len(verdicts) != len(events):
        raise ValueError("verdicts must align one-to-one with events")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, event in enumerate(events):
            record = _event_record(event, verdicts[i] if verdicts is not None else None)
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")


def read_trace(path) -> tuple[list[RsrEvent], Optional[list[Verdict]]]:
    """Read a JSONL trace back; verdicts are returned when the file carries them."""
    events: list[RsrEvent] = []
    verdicts: list[Verdict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            keys = set(record)
            unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
            if unknown:
                raise ValueError(f"{path}:{lineno}: unknown keys {sorted(unknown)}")
            if not _REQUIRED_KEYS <= keys:
                raise ValueError(
                    f"{path}:{lineno}: missing keys {sorted(_REQUIRED_KEYS - keys)}"
                )
            try:
                label = Label(record["label"])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {record['label']!r}") from exc
            int_types = {type(record["device_id"]), type(record["ta"]), type(record.get("burst_id", 0))}
            if int_types != {int} or type(record["time_s"]) not in (int, float):
                raise ValueError(
                    f"{path}:{lineno}: device_id, ta and burst_id must be integers, time_s a number"
                )
            try:
                event = RsrEvent(
                    time_s=float(record["time_s"]),
                    device_id=record["device_id"],
                    ta=record["ta"],
                    label=label,
                    burst_id=record.get("burst_id"),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            events.append(event)
            has_verdict = "verdict" in record or "anomaly" in record
            if has_verdict:
                if not {"verdict", "anomaly"} <= keys:
                    raise ValueError(f"{path}:{lineno}: verdict and anomaly must appear together")
                verdicts.append(
                    Verdict(decision=Decision(record["verdict"]), anomaly=float(record["anomaly"]))
                )
            if len(verdicts) not in (0, len(events)):
                raise ValueError(f"{path}:{lineno}: verdict columns must be all-or-none")
    return events, (verdicts if verdicts else None)
