"""The detection core: running per-TA counts inside the current interval,
anomaly scoring against the KPI profile, flags and reject policies.

Scoring happens on every arriving request using the partial count of the
interval so far against the full-interval profile; partial counts are biased
low early in an interval, which makes the detector conservative rather than
trigger-happy.

``on_rsr`` is the streaming detector, the xApp's online path. It works out
each event's interval itself and shares no code with ``score_events``, which
scores a whole trace at once; ``on_rsr`` replayed event by event is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SECONDS_PER_DAY, Decision, RsrEvent, Verdict, cell_keys, group_starts
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
    """Mutable per-interval state: the current ``(day, slot_of_day)``, the
    latest event time, running counts, flags and issued policies.

    ``policy_log`` is an append-only history; a policy stops governing
    verdicts once its interval ends, but stays in the log for reporting.
    """

    slot: Optional[tuple[int, int]] = None
    time_s: float = 0.0
    counts: dict[int, int] = field(default_factory=dict)
    flagged: set[int] = field(default_factory=set)
    policy_log: list[Policy] = field(default_factory=list)


def on_rsr(
    event: RsrEvent,
    profile: KpiProfile,
    config: DetectorConfig,
    state: DetectorState,
) -> Verdict:
    """Process one request and decide accept/reject.

    Steps: clear the counts and flags when the event opens a new (day, slot
    of day), bump the running count for the event's TA, score it, flag the
    TA (and issue a policy) when the score exceeds gamma. The verdict is
    Reject exactly when the TA is flagged, so the request that crosses the
    threshold is itself rejected. Rows carry no checks of their own, so the
    fields read here are checked here, before any state changes: a TA that
    is not an integer (a bool or a float, say; numpy integers pass) or lies
    outside ``0..max_ta``, a time that is negative or not finite, and a time
    earlier than the last one raise ``ValueError``.
    """
    time_s, ta = event.time_s, event.ta
    if isinstance(ta, bool) or not isinstance(ta, (int, np.integer)):
        raise ValueError(f"event TA must be an integer, got {ta!r}")
    ta = int(ta)
    if not 0 <= ta <= profile.max_ta:
        raise ValueError(
            f"event TA {ta} outside profile range 0..{profile.max_ta}; "
            "geometry and profile configuration disagree"
        )
    if not 0 <= time_s < math.inf:  # also rejects nan
        raise ValueError(f"event time must be finite and non-negative, got {time_s!r}")
    if time_s < state.time_s:
        raise ValueError(f"events must be sorted by time, got {time_s!r} after {state.time_s!r}")
    state.time_s = time_s
    day, time_of_day = divmod(time_s, SECONDS_PER_DAY)
    day, slot = int(day), int(time_of_day // profile.interval_seconds)
    if (day, slot) != state.slot:
        state.slot = (day, slot)
        state.counts.clear()
        state.flagged.clear()
    count = state.counts[ta] = state.counts.get(ta, 0) + 1
    score = anomaly_score(count, profile.mean.item(slot, ta), profile.std.item(slot, ta), config.sigma_floor)
    if score > config.gamma and ta not in state.flagged:
        state.flagged.add(ta)
        state.policy_log.append(Policy(ta=ta, day=day, slot_of_day=slot, issued_at_s=time_s))
    decision = Decision.REJECT if ta in state.flagged else Decision.ACCEPT
    return Verdict(decision=decision, anomaly=score)


def score_events(
    times: np.ndarray,
    tas: np.ndarray,
    profile: KpiProfile,
    sigma_floor: float,
    horizon_days: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score a whole time-sorted trace, given as ``time_s`` and ``ta`` arrays.

    Returns the trace's distinct flat cell keys (``core.cell_keys``) in
    ascending order, each event's index into them in the smallest unsigned
    dtype, and each event's per-RSR score ``(count - mean) / max(std,
    sigma_floor)``, the event counted at its rank within its cell under a
    stable argsort of the keys, as ``on_rsr`` does. Within a cell the scores
    never decrease: a cell is flagged at the first event whose score exceeds
    gamma, and its last score, its interval-end score, is its highest.
    """
    if not sigma_floor > 0:
        raise ValueError(f"sigma_floor must be positive, got {sigma_floor!r}")
    if np.any(times[1:] < times[:-1]):
        raise ValueError("trace must be sorted by time")
    # Peak memory grows with the trace-length arrays alive at once, so each
    # is freed at its last use and the arithmetic reuses the buffers it has.
    cells = cell_keys(times, tas, profile.interval_seconds, profile.max_ta, horizon_days)
    order = np.argsort(cells, kind="stable")
    first = group_starts(cells[order])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=cells.size)
    ranked = np.ones_like(cells)  # ranks 1, 2, ... in each cell: a running sum of ones, less the previous size at each start
    ranked[starts[1:]] = np.subtract(1, sizes[:-1], out=sizes[:-1])
    n_keys = starts.size
    del starts, sizes
    np.cumsum(ranked, out=ranked)
    counts = np.empty_like(cells)
    counts[order] = ranked
    del ranked
    first[:1] = False  # so the running count of starts is each event's index from 0, as in ``distinct_texts``
    sorted_index = first.astype(np.min_scalar_type(max(n_keys - 1, 0)))  # summed in place: a cumsum to a new dtype copies
    index = np.empty_like(sorted_index)
    index[order] = np.cumsum(sorted_index, out=sorted_index)
    del order, first, sorted_index
    keys = np.empty(n_keys, cells.dtype)
    keys[index] = cells
    table = np.remainder(cells, profile.mean.size, out=cells)  # the cell's (slot, TA) position in the profile
    scores = profile.mean.ravel()[table]
    np.subtract(counts, scores, out=scores)
    del counts
    with np.errstate(over="ignore"):  # a subnormal floor scores inf, as ``on_rsr``'s division does
        scores /= np.maximum(profile.std, sigma_floor).ravel()[table]
    return keys, index, scores
