"""The detection core: running per-TA counts inside the current interval,
anomaly scoring against the KPI profile, flags and reject policies.

Scoring happens on every arriving request using the partial count of the
interval so far against the full-interval profile; partial counts are biased
low early in an interval, which makes the detector conservative rather than
trigger-happy.

``on_rsr`` is the streaming detector. ``score_events`` scores a whole trace
at once, and ``on_rsr`` replayed event by event is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ScoringMode
from .core import SECONDS_PER_DAY, Decision, RsrEvent, SlotIndex, Verdict, cell_keys, slot_of
from .profiler import KpiProfile


@dataclass(frozen=True)
class DetectorConfig:
    """Detection threshold plus the standard-deviation floor used in scoring."""

    gamma: float
    sigma_floor: float = 1.0

    def __post_init__(self) -> None:
        if math.isnan(self.gamma):
            raise ValueError("gamma must not be NaN")
        if not self.sigma_floor > 0:
            raise ValueError(f"sigma_floor must be positive, got {self.sigma_floor!r}")


@dataclass(frozen=True)
class Policy:
    """Interval-scoped blanket rejection of one TA bin."""

    ta: int
    day: int
    slot_of_day: int
    issued_at_s: float

    @property
    def text(self) -> str:
        return f"Reject all requests of TA={self.ta}"


def anomaly_score(count: int, mean: float, std: float, sigma_floor: float) -> float:
    """Deviation of the observed count from the profile, in floored-sigma units.

    The floor removes the division singularity of never-populated cells: with
    std below the floor the score is simply the raw excess count over the mean.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count!r}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std!r}")
    if not sigma_floor > 0:
        raise ValueError(f"sigma_floor must be positive, got {sigma_floor!r}")
    return (count - mean) / max(std, sigma_floor)


@dataclass
class DetectorState:
    """Mutable per-interval state: running counts, flags, issued policies.

    ``policy_log`` is an append-only history; a policy stops governing
    verdicts once its interval ends, but stays in the log for reporting.
    """

    slot: Optional[SlotIndex] = None
    counts: dict[int, int] = field(default_factory=dict)
    flagged: set[int] = field(default_factory=set)
    policy_log: list[Policy] = field(default_factory=list)


def interval_rollover(state: DetectorState, new_slot: SlotIndex) -> None:
    """Advance to a strictly later interval: counts, flags and policies reset.

    Slots with no events are never visited, which is fine: an empty slot
    cannot raise an alarm anyway.
    """
    if state.slot is not None and new_slot <= state.slot:
        raise ValueError(f"rollover must move forward, got {state.slot} -> {new_slot}")
    state.slot = new_slot
    state.counts = {}
    state.flagged = set()


def on_rsr(
    event: RsrEvent,
    profile: KpiProfile,
    config: DetectorConfig,
    state: DetectorState,
) -> Verdict:
    """Process one request and decide accept/reject.

    Steps: roll the state over when the event opens a new interval, bump the
    running count for the event's TA, score it, flag the TA (and issue a
    policy) when the score exceeds gamma. The verdict is Reject exactly when
    the TA is flagged, so the request that crosses the threshold is itself
    rejected. Events must arrive in non-decreasing time order.
    """
    if event.ta > profile.max_ta:
        raise ValueError(
            f"event TA {event.ta} outside profile range 0..{profile.max_ta}; "
            "geometry and profile configuration disagree"
        )
    slot = slot_of(event.time_s, profile.interval_seconds)
    if state.slot is None or slot != state.slot:
        interval_rollover(state, slot)
    count = state.counts.get(event.ta, 0) + 1
    state.counts[event.ta] = count
    mean, std = profile.lookup(slot.slot_of_day, event.ta)
    score = anomaly_score(count, mean, std, config.sigma_floor)
    if score > config.gamma and event.ta not in state.flagged:
        state.flagged.add(event.ta)
        state.policy_log.append(
            Policy(ta=event.ta, day=slot.day, slot_of_day=slot.slot_of_day, issued_at_s=event.time_s)
        )
    decision = Decision.REJECT if event.ta in state.flagged else Decision.ACCEPT
    return Verdict(decision=decision, anomaly=score)


def score_events(
    times: np.ndarray,
    tas: np.ndarray,
    profile: KpiProfile,
    sigma_floor: float,
    horizon_days: int,
    scoring_mode: ScoringMode = ScoringMode.PER_RSR,
) -> tuple[np.ndarray, np.ndarray]:
    """Score a whole time-sorted trace, given as ``time_s`` and ``ta`` arrays.

    Returns each event's flat cell key (``core.cell_keys``) and its score.
    ``per_rsr`` gives the score ``on_rsr`` gives it: an event's running
    count is its rank within its cell under a stable argsort of the keys.
    Within a cell scores never decrease, so a cell is flagged at the first
    event whose own score exceeds gamma, and the cell's highest score is its
    score on the full interval count. ``interval_end`` gives every event
    that full-count score of its cell. ``scoring_mode`` may also be given by
    its value; any other value raises ``ValueError``.
    """
    scoring_mode = ScoringMode(scoring_mode)
    if horizon_days < 1:
        raise ValueError(f"horizon_days must be at least 1, got {horizon_days!r}")
    if not sigma_floor > 0:
        raise ValueError(f"sigma_floor must be positive, got {sigma_floor!r}")
    if len(times) and times[-1] >= horizon_days * SECONDS_PER_DAY:
        raise ValueError("trace extends past the declared horizon")
    if np.any(times[1:] < times[:-1]):
        raise ValueError("trace must be sorted by time")
    too_far = tas > profile.max_ta
    if too_far.any():
        raise ValueError(
            f"event TA {int(tas[too_far.argmax()])} outside profile range 0..{profile.max_ta}; "
            "geometry and profile configuration disagree"
        )
    cells = cell_keys(times, tas, profile.interval_seconds, profile.max_ta)
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    counts = np.empty_like(cells)
    counts[order] = np.arange(1, len(cells) + 1) - np.searchsorted(sorted_cells, sorted_cells)
    del order, sorted_cells  # peak memory grows with the trace-length arrays alive at once
    table = cells % profile.mean.size  # the cell's (slot, TA) position in the profile
    denom = np.maximum(profile.std, sigma_floor).ravel()[table]
    scores = (counts - profile.mean.ravel()[table]) / denom
    if scoring_mode is ScoringMode.INTERVAL_END:
        del counts, table, denom  # group_max's sort arrays come on top of whatever is still alive
        _cells, cell_final, cell_of = group_max(cells, scores)
        scores = cell_final[cell_of]
    return cells, scores


def group_max(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys in ascending order, the largest value of each, and each element's group."""
    order = np.argsort(keys)  # one sort: np.unique with return_inverse costs more
    sorted_keys = keys[order]
    starts = np.ones(keys.size, bool)  # True where a group begins in sorted order
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_of = np.empty(keys.size, np.intp)
    group_of[order] = np.cumsum(starts) - 1
    groups = sorted_keys[np.flatnonzero(starts)]
    maxima = np.full(groups.size, -np.inf)
    np.maximum.at(maxima, group_of, values)
    return groups, maxima, group_of
