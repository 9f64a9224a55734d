"""Shared domain types and the day/slot arithmetic every other module builds on.

The simulation clock is a plain float: seconds since midnight of day 0.
Statistics are kept per interval of ``interval_seconds``, which must divide
the day exactly so slot boundaries stay aligned across days.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

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
        if not 0 <= self.time_s < math.inf:  # also rejects nan
            raise ValueError(f"event time must be finite and non-negative, got {self.time_s!r}")
        if self.device_id < 0 or self.ta < 0:
            raise ValueError("device_id and ta must be non-negative")
        if (self.burst_id is not None) != (self.label is Label.ATTACK):
            raise ValueError("burst_id must be present exactly for attack events")
        if self.burst_id is not None and self.burst_id < 0:
            raise ValueError("burst_id must be non-negative")


@dataclass(frozen=True, slots=True)
class Verdict:
    """Accept/reject decision together with the anomaly value behind it."""

    decision: Decision
    anomaly: float


def _columns(obj, dtypes: dict, adopt: bool = False) -> None:
    """Replace each named column of a frozen dataclass by a read-only 1-D
    copy of its dtype, refusing casts across kinds (float to int, say), and
    require equal lengths. The copy keeps the caller's array from changing
    a column after it was checked. With ``adopt``, a column already of its
    dtype is kept and made read-only instead of copied, for arrays that no
    other code holds."""
    for name, dtype in dtypes.items():
        column = np.asarray(getattr(obj, name))
        if column.ndim != 1 or (column.size and not np.can_cast(column.dtype, dtype, "same_kind")):
            raise ValueError(f"{name} must be a 1-D {np.dtype(dtype)} column, got {column.dtype} {column.shape}")
        column = column.astype(dtype, copy=not adopt)
        column.setflags(write=False)
        object.__setattr__(obj, name, column)
    if len({getattr(obj, name).size for name in dtypes}) > 1:
        raise ValueError(f"columns {list(dtypes)} must have equal lengths")


@dataclass(frozen=True, eq=False)
class Trace:
    """A labeled RSR trace as columns, one entry per request in trace order.

    ``burst_id`` is -1 for a legit request and the burst's id for an attack
    one, so the label is ``burst_id >= 0``. Iterating yields the requests as
    :class:`RsrEvent`, the input of ``detector.on_rsr``.
    """

    time_s: np.ndarray
    device_id: np.ndarray
    ta: np.ndarray
    burst_id: np.ndarray

    def __post_init__(self, adopt: bool = False) -> None:
        _columns(self, {"time_s": np.float64, "device_id": np.int64, "ta": np.int64, "burst_id": np.int64}, adopt)
        if not np.all((self.time_s >= 0) & (self.time_s < math.inf)):  # also rejects nan
            raise ValueError("event times must be finite and non-negative")
        if np.any(self.device_id < 0) or np.any(self.ta < 0) or np.any(self.burst_id < -1):
            raise ValueError("device_id and ta must be non-negative, burst_id -1 or more")

    @classmethod
    def _adopt(cls, *columns: np.ndarray) -> Trace:
        """The trace of freshly built columns, in field order, that no other
        code holds: each one of its dtype is kept, made read-only, rather
        than copied, and all meet the checks of the constructor."""
        trace = object.__new__(cls)
        for f, column in zip(fields(cls), columns, strict=True):
            object.__setattr__(trace, f.name, column)
        trace.__post_init__(adopt=True)
        return trace

    @property
    def attack(self) -> np.ndarray:
        return self.burst_id >= 0

    def __len__(self) -> int:
        return self.time_s.size

    def __iter__(self) -> Iterator[RsrEvent]:
        columns = (self.time_s, self.device_id, self.ta, self.burst_id)
        for time_s, device_id, ta, burst_id in zip(*(c.tolist() for c in columns)):
            label, burst = (Label.LEGIT, None) if burst_id < 0 else (Label.ATTACK, burst_id)
            yield RsrEvent(time_s, device_id, ta, label, burst)


@dataclass(frozen=True, eq=False)
class Verdicts:
    """The detector's answer to each request of a trace, as columns."""

    rejected: np.ndarray
    anomaly: np.ndarray

    def __post_init__(self) -> None:
        _columns(self, {"rejected": np.bool_, "anomaly": np.float64})

    def __len__(self) -> int:
        return self.rejected.size

    def __iter__(self) -> Iterator[Verdict]:
        for rejected, anomaly in zip(self.rejected.tolist(), self.anomaly.tolist()):
            yield Verdict(Decision.REJECT if rejected else Decision.ACCEPT, anomaly)


_REQUIRED_KEYS = {"time_s", "device_id", "ta", "label"}
_ALL_KEYS = _REQUIRED_KEYS | {"burst_id", "verdict", "anomaly"}
_INT64_MAX = 2**63 - 1
ROWS_PER_WRITE = 4096  # rows formatted and written at a time
_VERDICT_TEXTS = np.array([',"verdict":"accept"', ',"verdict":"reject"'], object)  # indexed by rejected
# the characters errors="surrogateescape" decodes undecodable bytes to
_SURROGATE_ESCAPES = re.compile("[\udc80-\udcff]")


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON (UTF-8, ``\\n`` line ends) ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_trace(path, trace: Trace, verdicts: Optional[Verdicts] = None) -> None:
    """Write a trace as JSON Lines; verdict columns are included when supplied.

    Columns are formatted in C by ``json.dumps``, the id, TA and anomaly
    columns once per distinct value, and the rows are joined and written
    ``ROWS_PER_WRITE`` at a time.
    """
    if verdicts is not None and len(verdicts) != len(trace):
        raise ValueError("verdicts must align one-to-one with events")
    labels, burst_of = distinct_texts(trace.burst_id, ',"label":"attack","burst_id":')
    labels[labels == ',"label":"attack","burst_id":-1'] = ',"label":"legit"'  # burst_id -1 marks a legit request
    fields = [distinct_texts(trace.device_id, ',"device_id":'), distinct_texts(trace.ta, ',"ta":'), (labels, burst_of)]
    if verdicts is not None:
        fields += [(_VERDICT_TEXTS, verdicts.rejected.view(np.uint8)), distinct_texts(verdicts.anomaly, ',"anomaly":')]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(trace), ROWS_PER_WRITE):
            block = slice(start, start + ROWS_PER_WRITE)
            texts = (field_texts[index[block]].tolist() for field_texts, index in fields)
            parts = (repeat('{"time_s":'), _json_texts(trace.time_s[block]), *texts, repeat("}\n"))
            fh.write("".join(chain.from_iterable(zip(*parts))))


def _json_texts(values: np.ndarray) -> list[str]:
    """Each value as ``json.dumps`` writes it: ``repr``, or Infinity and NaN."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def distinct_texts(column: np.ndarray, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """``prefix`` plus the text of each of a column's distinct values, as an
    object array, and each entry's index into it. Values are told apart by
    their bits, so ``-0.0`` and ``0.0`` keep their own texts."""
    values, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([prefix + text for text in _json_texts(values.view(column.dtype))], object), inverse


def read_trace(path) -> tuple[Trace, Optional[Verdicts]]:
    """Read a JSONL trace back; verdicts are returned when the file carries them.

    Every record is checked, and a bad one raises ``ValueError`` naming its
    ``path:line``, a line that is not valid UTF-8 included. The file is
    parsed in one pass and checked by column; when any check fails, or the
    file is not valid UTF-8, the line loop of :func:`_read_rows` reads it
    again and raises the first bad line's error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return _read_rows(path)
    return _parse_columns(text.split("\n")) or _read_rows(path)


def _parse_columns(lines: list[str]) -> Optional[tuple[Trace, Optional[Verdicts]]]:
    """The trace held in ``lines``, the file's text split on newlines as file
    iteration splits it, or None when any check fails.

    The kept lines are joined and parsed with one ``json.loads``, and the
    columns are held to the rules of :func:`_parse_record` and the all-or-none
    verdict rule. Each kept line starts with ``{``, the text holds one ``{``
    per line and every value is a scalar, so each line is exactly one record:
    none spans two lines and no two share one. A line that starts with
    whitespace is left to the line loop.
    """
    kept = list(filter(str.strip, lines))
    text = "[" + ",".join(kept) + "]"
    if text.count("{") != len(kept) or not set(map(itemgetter(0), kept)) <= {"{"}:
        return None
    try:
        records = json.loads(text)
    except (ValueError, RecursionError):
        return None
    n = len(records)
    if n != len(kept) or not set(map(type, records)) <= {dict}:
        return None
    has_verdict = n > 0 and "verdict" in records[0]
    keys = ("time_s", "device_id", "ta", "label") + ("verdict", "anomaly") * has_verdict
    try:
        time_s, device_id, ta, label, *verdict = (list(map(itemgetter(key), records)) for key in keys)
    except KeyError:
        return None
    burst_id = list(map(dict.get, records, repeat("burst_id"), repeat(-1)))
    n_attack = label.count("attack")
    # Each record holds the keys above; attack ones (burst_id >= 0, checked
    # below) also hold burst_id. Equal totals leave no room for another key.
    if sum(map(len, records)) != n * len(keys) + n_attack or label.count("legit") + n_attack != n:
        return None
    if not (_numbers(time_s) and set(map(type, device_id + ta + burst_id)) <= {int}):
        return None
    try:  # int64 overflow, and Trace's checks: finite non-negative times, ids >= 0
        trace = Trace._adopt(np.array(time_s, np.float64), *(np.array(c, np.int64) for c in (device_id, ta, burst_id)))
    except (OverflowError, ValueError):
        return None
    if not np.array_equal(trace.attack, np.fromiter(map("attack".__eq__, label), bool, n)):
        return None
    if not has_verdict:
        return trace, None
    decision, anomaly = verdict
    if decision.count("accept") + decision.count("reject") != n or not _numbers(anomaly):
        return None
    return trace, Verdicts(np.fromiter(map("reject".__eq__, decision), bool, n), np.array(anomaly, np.float64))


def _numbers(column: list) -> bool:
    """Every entry is a float, or an int that a float can hold."""
    types = set(map(type, column))
    return types <= {int, float} and (int not in types or all(abs(v) <= sys.float_info.max for v in column if type(v) is int))


def _read_rows(path) -> tuple[Trace, Optional[Verdicts]]:
    """Read a trace line by line with :func:`_parse_record`, raising the first
    bad line's error with its ``path:line``."""
    rows: list[tuple[float, int, int, int]] = []
    verdict_rows: list[tuple[bool, float]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            rows.append((float(record["time_s"]), record["device_id"], record["ta"], record.get("burst_id", -1)))
            if "verdict" in record:
                verdict_rows.append((record["verdict"] == "reject", float(record["anomaly"])))
            if len(verdict_rows) not in (0, len(rows)):
                raise ValueError(f"{path}:{lineno}: verdict columns must be all-or-none")
    trace = Trace(*zip(*rows)) if rows else Trace([], [], [], [])
    return trace, (Verdicts(*zip(*verdict_rows)) if verdict_rows else None)


def _parse_record(line: str) -> dict:
    """One trace line as a dict; ``ValueError`` unless it is well-formed."""
    if _SURROGATE_ESCAPES.search(line):
        raise ValueError("not valid UTF-8")
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # json.loads raises RecursionError on deep nesting
        raise ValueError(f"invalid JSON ({exc})") from exc
    if type(record) is not dict:
        raise ValueError("a record must be a JSON object")
    keys = record.keys()
    if not keys <= _ALL_KEYS:
        raise ValueError(f"unknown keys {sorted(keys - _ALL_KEYS)}")
    if not _REQUIRED_KEYS <= keys:
        raise ValueError(f"missing keys {sorted(_REQUIRED_KEYS - keys)}")
    label = record["label"]
    if label not in ("legit", "attack"):
        raise ValueError(f"bad label {label!r}")
    time_s, device_id, ta, burst_id = record["time_s"], record["device_id"], record["ta"], record.get("burst_id", 0)
    if not (type(device_id) is int and type(ta) is int and type(burst_id) is int and type(time_s) in (int, float)):
        raise ValueError("device_id, ta and burst_id must be integers, time_s a number")
    if not (0 <= device_id <= _INT64_MAX and 0 <= ta <= _INT64_MAX and 0 <= burst_id <= _INT64_MAX):
        raise ValueError(f"device_id, ta and burst_id must lie in [0, {_INT64_MAX}]")
    if not 0 <= time_s <= sys.float_info.max:  # also rejects nan and overlong integers
        raise ValueError(f"event time must be finite and non-negative, got {time_s!r}")
    if ("burst_id" in keys) != (label == "attack"):
        raise ValueError("burst_id must be present exactly for attack events")
    if ("verdict" in keys) != ("anomaly" in keys):
        raise ValueError("verdict and anomaly must appear together")
    if "verdict" in keys:
        if record["verdict"] not in ("accept", "reject"):
            raise ValueError(f"bad verdict {record['verdict']!r}")
        anomaly = record["anomaly"]
        if not (type(anomaly) is float or type(anomaly) is int and abs(anomaly) <= sys.float_info.max):
            raise ValueError(f"anomaly must be a number, got {anomaly!r}")
    return record
