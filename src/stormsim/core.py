"""Shared domain types and the day/slot arithmetic every other module builds on.

The simulation clock is a plain float: seconds since midnight of day 0.
Statistics are kept per interval of ``interval_seconds``, which must divide
the day exactly so slot boundaries stay aligned across days.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import pickle
import re
import shutil
import signal
import stat
import sys
import tempfile
import threading
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


def slots_per_day(interval_seconds: int) -> int:
    """Number of statistics intervals per day; the interval must divide the day."""
    if interval_seconds <= 0 or SECONDS_PER_DAY % interval_seconds != 0:
        raise ValueError(
            f"interval_seconds={interval_seconds!r} must be a positive divisor "
            f"of {SECONDS_PER_DAY}"
        )
    return SECONDS_PER_DAY // interval_seconds


def cell_keys(times: np.ndarray, tas: np.ndarray, interval_seconds: int, max_ta: int, days: int) -> np.ndarray:
    """Flat index ``(day * slots_per_day + slot) * (max_ta + 1) + ta`` of each
    event's cell, with day and slot of day from ``divmod`` by the day and then
    by the interval; keys sort by day, slot, then TA. The interval divides the
    day, so ``time // interval`` is ``day * slots_per_day + slot`` exactly.
    The one check that a trace fits its (days, slots, TA) grid: ``ValueError``
    for days below 1, the first TA past ``max_ta`` (in ``on_rsr``'s words) or
    a time past the horizon."""
    slots_per_day(interval_seconds)  # raises unless the interval divides the day
    if days < 1:
        raise ValueError(f"days must be at least 1, got {days!r}")
    too_far = tas > max_ta
    if too_far.any():
        raise ValueError(
            f"event TA {int(tas[too_far.argmax()])} outside profile range 0..{max_ta}; "
            "geometry and profile configuration disagree"
        )
    if np.any(times >= days * SECONDS_PER_DAY):
        raise ValueError(f"trace extends past the declared horizon of {days} days")
    return (times // interval_seconds).astype(np.int64) * (max_ta + 1) + tas


class RsrEvent(NamedTuple):
    """One RRC Setup Request arrival, a plain row with no checks of its own:
    ``detector.on_rsr`` checks the fields it reads.

    ``burst_id`` is the attack burst the event belongs to, None for a legit
    request; the ground-truth ``label`` derives from it.
    """

    time_s: float
    device_id: int
    ta: int
    burst_id: Optional[int] = None

    @property
    def label(self) -> Label:
        return Label.LEGIT if self.burst_id is None else Label.ATTACK


class Verdict(NamedTuple):
    """Accept/reject decision together with the anomaly value behind it."""

    decision: Decision
    anomaly: float


def _columns(obj, dtypes: dict, adopt: bool = False) -> None:
    """Replace each named column of a frozen dataclass by a read-only 1-D
    copy of its dtype, refusing casts across kinds (float to int, say), and
    require equal lengths. The copy keeps the caller's array from changing
    a column after it was checked. With ``adopt``, a column already of its
    dtype is kept and made read-only instead of copied."""
    for name, dtype in dtypes.items():
        column = np.asarray(getattr(obj, name))
        if column.ndim != 1 or (column.size and not np.can_cast(column.dtype, dtype, "same_kind")):
            raise ValueError(f"{name} must be a 1-D {np.dtype(dtype)} column, got {column.dtype} {column.shape}")
        column = column.astype(dtype, copy=not adopt)
        column.setflags(write=False)
        object.__setattr__(obj, name, column)
    if len({getattr(obj, name).size for name in dtypes}) > 1:
        raise ValueError(f"columns {list(dtypes)} must have equal lengths")


class Adoptable:
    """Base of the frozen dataclasses of arrays. Their constructor stores
    read-only copies of the arrays it is given; ``__post_init__(adopt=True)``
    keeps them instead, for :meth:`_adopt`."""

    @classmethod
    def _adopt(cls, *values):
        """The instance of freshly built values, in field order, that no
        other code holds: each array is kept and made read-only rather than
        copied, and all meet the checks of the constructor."""
        obj = object.__new__(cls)
        for f, value in zip(fields(cls), values, strict=True):
            object.__setattr__(obj, f.name, value)
        obj.__post_init__(adopt=True)
        return obj


@dataclass(frozen=True, eq=False)
class Trace(Adoptable):
    """A labeled RSR trace as columns, one entry per request in trace order.

    ``burst_id`` is -1 for a legit request and the burst's id for an attack
    one, so the label is ``burst_id >= 0``. Iterating yields the requests as
    :class:`RsrEvent`, the input of ``detector.on_rsr``, each built straight
    from its four columns with -1 read as None.
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

    @property
    def attack(self) -> np.ndarray:
        return self.burst_id >= 0

    def __len__(self) -> int:
        return self.time_s.size

    def __iter__(self) -> Iterator[RsrEvent]:
        burst_id = np.where(self.attack, self.burst_id, None)
        return map(RsrEvent, self.time_s.tolist(), self.device_id.tolist(), self.ta.tolist(), burst_id.tolist())


@dataclass(frozen=True, eq=False)
class Verdicts(Adoptable):
    """The detector's answer to each request of a trace, as columns."""

    rejected: np.ndarray
    anomaly: np.ndarray

    def __post_init__(self, adopt: bool = False) -> None:
        _columns(self, {"rejected": np.bool_, "anomaly": np.float64}, adopt)

    def __len__(self) -> int:
        return self.rejected.size

    def __iter__(self) -> Iterator[Verdict]:
        for rejected, anomaly in zip(self.rejected.tolist(), self.anomaly.tolist()):
            yield Verdict(Decision.REJECT if rejected else Decision.ACCEPT, anomaly)


_REQUIRED_KEYS = {"time_s", "device_id", "ta", "label", "verdict", "anomaly"}
_ALL_KEYS = _REQUIRED_KEYS | {"burst_id"}
_INT64_MAX = 2**63 - 1
ROWS_PER_WRITE = 4096  # rows formatted and written at a time
SPLIT_ROWS = 8 * ROWS_PER_WRITE  # the fewest rows that write_trace and read_trace split between two processes
CHUNK_BYTES = 2**19  # bytes of a trace that read_trace decodes and parses at a time, plus the rest of a line
_VERDICT_TEXTS = np.array([',"verdict":"accept"', ',"verdict":"reject"'], object)  # indexed by rejected
# the characters errors="surrogateescape" decodes undecodable bytes to
_SURROGATE_ESCAPES = re.compile("[\udc80-\udcff]")


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON (UTF-8, ``\\n`` line ends) ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_trace(path, trace: Trace, verdicts: Verdicts) -> None:
    """Write a trace and the detector's verdict on each request as JSON Lines.

    Columns are formatted in C by ``json.dumps``, the id, TA and anomaly
    columns once per distinct value, and the rows are joined and written
    ``ROWS_PER_WRITE`` at a time. From :func:`_split_row` on, a forked child
    formats the rest into a temporary file while this process writes the
    first rows, then appends that file.
    """
    if len(verdicts) != len(trace):
        raise ValueError("verdicts must align one-to-one with events")
    labels, burst_of = distinct_texts(trace.burst_id, ',"label":"attack","burst_id":')
    labels[labels == ',"label":"attack","burst_id":-1'] = ',"label":"legit"'  # burst_id -1 marks a legit request
    fields = [distinct_texts(trace.device_id, ',"device_id":'), distinct_texts(trace.ta, ',"ta":'), (labels, burst_of)]
    fields += [(_VERDICT_TEXTS, verdicts.rejected.view(np.uint8)), distinct_texts(verdicts.anomaly, ',"anomaly":')]

    def write_rows(fh, start: int, stop: int) -> None:
        for begin in range(start, stop, ROWS_PER_WRITE):
            block = slice(begin, min(begin + ROWS_PER_WRITE, stop))
            texts = (field_texts[index[block]].tolist() for field_texts, index in fields)
            parts = (repeat('{"time_s":'), _json_texts(trace.time_s[block]), *texts, repeat("}\n"))
            fh.write("".join(chain.from_iterable(zip(*parts))))

    n, split = len(trace), _split_row(len(trace))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if split == n:
            return write_rows(fh, 0, n)
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as rest:
            _with_child(lambda: write_rows(fh, 0, split), lambda: (write_rows(rest, split, n), rest.flush()))
            fh.flush()
            rest.seek(0)
            shutil.copyfileobj(rest.buffer, fh.buffer)


def _split_row(n: int) -> int:
    """The first row of a trace of ``n`` rows that a forked child handles:
    the ``ROWS_PER_WRITE`` boundary nearest ``n / 2``, or ``n`` (no child)
    below ``SPLIT_ROWS`` rows, without ``os.fork``, with one usable CPU, or
    when this process runs other threads, which a fork would not copy."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if n < SPLIT_ROWS or not hasattr(os, "fork") or cpus < 2 or threading.active_count() > 1:
        return n
    return round(n / (2 * ROWS_PER_WRITE)) * ROWS_PER_WRITE


def _with_child(here, there):
    """``(here(), there())``, with ``there`` run in a forked child while
    ``here`` runs in this process. The child's result comes back pickled over
    a pipe, and an exception it raised is raised again here. The child always
    leaves by ``os._exit``, with status 0 once its result is sent, and is
    always reaped, killed first if this side raises before its result has
    arrived. A child that dies without sending it (killed by a signal, say,
    or with a result that cannot be pickled) raises ``ChildProcessError``."""
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                try:
                    result = True, there()
                except BaseException as exc:
                    result = False, exc
                writer.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                writer.flush()
                status = 0
            finally:
                os._exit(status)
        writer.close()  # so that the read below ends if the child dies
        try:
            mine = here()
            sent = reader.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"the forked child {how} before sending its result")
    ok, theirs = pickle.loads(sent)
    if not ok:
        raise theirs
    return mine, theirs


def _json_texts(values: np.ndarray) -> list[str]:
    """Each value as ``json.dumps`` writes it: ``repr``, or Infinity and NaN."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def distinct_texts(column: np.ndarray, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """``prefix`` plus the text of each of a column's distinct values, as an
    object array, and each entry's index into it. Values are told apart by
    their bits, so ``-0.0`` and ``0.0`` keep their own texts."""
    values, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([prefix + text for text in _json_texts(values.view(column.dtype))], object), inverse


def read_trace(path) -> tuple[Trace, Verdicts]:
    """Read a JSONL trace and its verdicts back.

    Every record is checked, and a bad one raises ``ValueError`` naming its
    ``path:line``, a line that is not valid UTF-8 included. The file is read
    and parsed a chunk at a time (:func:`_read_columns`) and checked by
    column; when a chunk is not valid UTF-8 or fails a check, the line loop
    of :func:`_read_rows` reads the file again and raises the first bad
    line's error. When :func:`_split_row` splits the file's ``\\n`` count
    (read a chunk at a time, up to ``SPLIT_ROWS``), the file is cut just
    past the first ``\\n`` at or after its middle byte: this process reads
    the bytes before the cut while a forked child opens the file and reads
    those after it, and the chunks' columns are joined. A file that is not
    a regular one (a FIFO, say) is read in order, once, in this process.
    """
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            parts = _read_columns(fh)
        elif _split_row(rows := _count_rows(fh)) == rows:
            fh.seek(0)
            parts = _read_columns(fh)
        else:
            cut = _cut(fh)

            def read_rest():
                with open(path, "rb") as rest:
                    rest.seek(cut)
                    return _read_columns(rest)

            fh.seek(0)
            halves = _with_child(lambda: _read_columns(fh, cut), read_rest)
            parts = None if None in halves else halves[0] + halves[1]
    return _read_rows(path) if parts is None else _joined(parts)


def _count_rows(fh) -> int:
    """The ``\\n`` bytes of an open binary file from where it stands, counted
    ``CHUNK_BYTES`` at a time until ``SPLIT_ROWS`` have been seen."""
    rows = 0
    while rows < SPLIT_ROWS and (block := fh.read(CHUNK_BYTES)):
        rows += block.count(b"\n")
    return rows


def _cut(fh) -> int:
    """The offset just past the first ``\\n`` at or after the middle byte of
    an open regular file, or its end when no ``\\n`` follows. A ``\\n`` ends a
    line however text mode reads the file, and never splits a CRLF."""
    at = os.fstat(fh.fileno()).st_size // 2
    fh.seek(at)
    while block := fh.read(CHUNK_BYTES):
        found = block.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(block)
    return at


def _read_columns(fh, size: Optional[int] = None) -> Optional[list[tuple[Trace, Verdicts]]]:
    """The trace and verdicts held in the next ``size`` bytes of an open
    binary file (all the rest when None), one part per chunk, or None when
    the bytes are not valid UTF-8 or a chunk fails a check of
    :func:`_parse_columns`.

    The bytes are read ``CHUNK_BYTES`` at a time and decoded as text mode
    decodes them, CR and CRLF line ends read as ``\\n``. Each chunk's
    complete lines are parsed together; its last, partial line is carried
    into the next chunk, so no process holds more than a chunk of text.
    """
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    parts, tail, left = [], "", math.inf if size is None else size
    while True:
        block = fh.read(min(CHUNK_BYTES, left))
        left -= len(block)
        try:
            lines = (tail + decoder.decode(block, final=not block)).split("\n")
        except UnicodeDecodeError:
            return None
        tail = lines.pop() if block else ""
        part = _parse_columns(lines)
        if part is None:
            return None
        parts.append(part)
        if not block:
            return parts


def _joined(parts: list[tuple[Trace, Verdicts]]) -> tuple[Trace, Verdicts]:
    """The consecutive parts of a trace and its verdicts as one of each,
    each column the parts' columns concatenated."""
    return tuple(
        kind._adopt(*(np.concatenate([getattr(obj, f.name) for obj in objs]) for f in fields(kind)))
        for kind, objs in zip((Trace, Verdicts), zip(*parts))
    )


def _parse_columns(lines: list[str]) -> Optional[tuple[Trace, Verdicts]]:
    """The trace held in ``lines``, consecutive lines of the file's text split
    on newlines as file iteration splits it, or None when any check fails.

    The kept lines are joined and parsed with one ``json.loads``, and the
    columns are held to the rules of :func:`_parse_record`. Each kept line
    starts with ``{``, the text holds one ``{`` per line and every value is
    a scalar, so each line is exactly one record: none spans two lines and
    no two share one. A line that starts with whitespace is left to the
    line loop.
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
    keys = ("time_s", "device_id", "ta", "label", "verdict", "anomaly")
    try:
        time_s, device_id, ta, label, decision, anomaly = (list(map(itemgetter(key), records)) for key in keys)
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
    if decision.count("accept") + decision.count("reject") != n or not _numbers(anomaly):
        return None
    return trace, Verdicts._adopt(np.fromiter(map("reject".__eq__, decision), bool, n), np.array(anomaly, np.float64))


def _numbers(column: list) -> bool:
    """Every entry is a float, or an int that a float can hold."""
    types = set(map(type, column))
    return types <= {int, float} and (int not in types or all(abs(v) <= sys.float_info.max for v in column if type(v) is int))


def _read_rows(path) -> tuple[Trace, Verdicts]:
    """Read a trace line by line with :func:`_parse_record`, raising the first
    bad line's error with its ``path:line``."""
    rows: list[tuple[float, int, int, int, bool, float]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            burst_id, rejected = record.get("burst_id", -1), record["verdict"] == "reject"
            rows.append((float(record["time_s"]), record["device_id"], record["ta"], burst_id, rejected, float(record["anomaly"])))
    columns = list(zip(*rows)) or [[]] * 6
    return Trace._adopt(*columns[:4]), Verdicts._adopt(*columns[4:])


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
    if record["verdict"] not in ("accept", "reject"):
        raise ValueError(f"bad verdict {record['verdict']!r}")
    anomaly = record["anomaly"]
    if not (type(anomaly) is float or type(anomaly) is int and abs(anomaly) <= sys.float_info.max):
        raise ValueError(f"anomaly must be a number, got {anomaly!r}")
    return record
