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
import sys
import tempfile
import threading
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

SECONDS_PER_DAY = 86400


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
    request.
    """

    time_s: float
    device_id: int
    ta: int
    burst_id: Optional[int] = None


class Verdict(NamedTuple):
    """Accept/reject decision together with the anomaly value behind it."""

    decision: Decision
    anomaly: float


def narrowed(column: np.ndarray) -> np.ndarray:
    """An integer column of values from -1 up in the smallest signed dtype
    that holds ``-max - 1``, and so every value from -1 to its largest
    (int8 when empty); a copy only when that is not its dtype. Signed, so
    that it never meets a uint64 column, with which int64 promotes to float64."""
    return column.astype(np.min_scalar_type(-int(column.max(initial=0)) - 1), copy=False)


def _columns(obj, dtypes: dict, adopt: bool = False, ndim: int = 1) -> None:
    """Replace each named column of a frozen dataclass by a read-only copy
    of its dtype with ``ndim`` dimensions (a table when 2), refusing casts
    across kinds (float to int, say), and require equal sizes. The dtype
    ``np.signedinteger`` keeps a signed integer column at its own width and
    casts any other to int64. The copy keeps the caller's array from
    changing a column after it was checked. With ``adopt``, a column already
    of its dtype is kept and made read-only instead of copied."""
    for name, dtype in dtypes.items():
        column = np.asarray(getattr(obj, name))
        integer = dtype is np.signedinteger
        if integer:
            dtype = column.dtype if column.dtype.kind == "i" else np.int64
        if column.ndim != ndim or (column.size and not np.can_cast(column.dtype, dtype, "same_kind")):
            kind = "column" if ndim == 1 else "table"
            wanted = "integer" if integer else np.dtype(dtype)
            raise ValueError(f"{name} must be a {ndim}-D {wanted} {kind}, got {column.dtype} {column.shape}")
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
    one, so the label is ``burst_id >= 0``. However a trace is made, its
    ``device_id``, ``ta`` and ``burst_id`` are each held in the smallest
    signed dtype that holds their values (:func:`narrowed`). Iterating yields
    the requests as :class:`RsrEvent`, the input of ``detector.on_rsr``, each
    built straight from its four columns with -1 read as None.
    """

    time_s: np.ndarray
    device_id: np.ndarray
    ta: np.ndarray
    burst_id: np.ndarray

    def __post_init__(self, adopt: bool = False) -> None:
        ids = ("device_id", "ta", "burst_id")
        _columns(self, {"time_s": np.float64, **dict.fromkeys(ids, np.signedinteger)}, adopt)
        if not np.all((self.time_s >= 0) & (self.time_s < math.inf)):  # also rejects nan
            raise ValueError("event times must be finite and non-negative")
        if np.any(self.device_id < 0) or np.any(self.ta < 0) or np.any(self.burst_id < -1):
            raise ValueError("device_id and ta must be non-negative, burst_id -1 or more")
        for name in ids:
            column = narrowed(getattr(self, name))
            column.setflags(write=False)
            object.__setattr__(self, name, column)

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
# the shortest line a trace record can take, {"time_s":0,...,"anomaly":0} and its \n;
# read_trace splits a file by the most rows its size can hold
SHORTEST_LINE_BYTES = 81
CHUNK_BYTES = 2**19  # bytes of a trace that read_trace decodes and parses at a time, plus the rest of a line
_VERDICT_TEXTS = np.array([',"verdict":"accept"', ',"verdict":"reject"'], object)  # indexed by rejected
# the characters errors="surrogateescape" decodes undecodable bytes to
_SURROGATE_ESCAPES = re.compile("[\udc80-\udcff]")
_FLOAT_BYTES = 24  # the longest text json.dumps gives a float64, as "-2.2250738585072014e-308"
_ID_DIGITS = 18  # ids of up to 18 digits fit int64
# JSON's number grammar, with a fraction or an exponent, as a state machine:
# a row per state, a column per class of byte. NUL pads a text past its end,
# so only states 5 and 8 stay on it and take the text; state 9 refuses.
_NUMBER = np.array([
    # NUL "0" 1-9  "-"  "+"  "."  e/E other
    [9, 2, 3, 1, 9, 9, 9, 9],  # 0: start
    [9, 2, 3, 9, 9, 9, 9, 9],  # 1: after the sign
    [9, 9, 9, 9, 9, 4, 6, 9],  # 2: an integer part 0
    [9, 3, 3, 9, 9, 4, 6, 9],  # 3: an integer part from 1-9
    [9, 5, 5, 9, 9, 9, 9, 9],  # 4: after "."
    [5, 5, 5, 9, 9, 9, 6, 9],  # 5: in the fraction
    [9, 8, 8, 7, 7, 9, 9, 9],  # 6: after the e
    [9, 8, 8, 9, 9, 9, 9, 9],  # 7: after the exponent's sign
    [8, 8, 8, 9, 9, 9, 9, 9],  # 8: in the exponent
    [9, 9, 9, 9, 9, 9, 9, 9],  # 9: refused
], np.uint16)  # fmt: skip
_BYTE_CLASSES = np.full(256, 7)
_BYTE_CLASSES[[0, *b"0123456789-+.eE"]] = [0, 1, *[2] * 9, 3, 4, 5, 6, 6]
# the state after a byte, (state << 8) + byte -> next state << 8
_NUMBER_STEPS = (_NUMBER[:, _BYTE_CLASSES] << 8).ravel()


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
    formats the rest into a temporary file while this process formats the
    first rows, then appends that file. Each process builds the texts of its
    own rows only.
    """
    if len(verdicts) != len(trace):
        raise ValueError("verdicts must align one-to-one with events")

    def write_rows(fh, start: int, stop: int) -> None:
        rows = slice(start, stop)
        labels, burst_of = distinct_texts(trace.burst_id[rows], ',"label":"attack","burst_id":')
        labels[labels == ',"label":"attack","burst_id":-1'] = ',"label":"legit"'  # burst_id -1 marks a legit request
        fields = [distinct_texts(trace.device_id[rows], ',"device_id":'), distinct_texts(trace.ta[rows], ',"ta":')]
        fields += [(labels, burst_of), (_VERDICT_TEXTS, verdicts.rejected[rows].view(np.uint8))]
        fields.append(distinct_texts(verdicts.anomaly[rows], ',"anomaly":'))
        time_s = trace.time_s[rows]
        for begin in range(0, stop - start, ROWS_PER_WRITE):
            block = slice(begin, begin + ROWS_PER_WRITE)
            texts = (field_texts[index[block]].tolist() for field_texts, index in fields)
            parts = (repeat('{"time_s":'), _json_texts(time_s[block]), *texts, repeat("}\n"))
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
    return json.dumps(values.tolist())[1:-1].split(", ") if values.size else []


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys begins in a sorted array, its first entry included."""
    starts = np.empty(sorted_keys.size, bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def distinct_texts(column: np.ndarray, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """``prefix`` plus the text of each of a column's distinct values, as an
    object array, and each entry's index into it, in the smallest unsigned
    dtype that can index the texts. An integer column is sorted as it is, a
    float64 one by its bits, so ``-0.0`` and ``0.0`` keep their own texts.
    8- and 16-bit columns are radix sorted (``kind="stable"``), several times
    faster than by numpy's default sort."""
    bits = column.view(np.int64) if column.dtype.kind == "f" else column
    order = np.argsort(bits, kind="stable" if bits.itemsize <= 2 else None)
    starts = group_starts(bits[order])
    values = bits[order[starts]]
    starts[:1] = False  # so the running count of starts is each entry's index from 0
    inverse = np.empty(bits.size, np.min_scalar_type(max(values.size - 1, 0)))
    inverse[order] = np.cumsum(starts, dtype=inverse.dtype)
    return np.array([prefix + text for text in _json_texts(values.view(column.dtype))], object), inverse


def read_trace(path) -> tuple[Trace, Verdicts]:
    """Read a JSONL trace and its verdicts back.

    Every record is checked, and a bad one raises ``ValueError`` naming its
    ``path:line``, a line that is not valid UTF-8 included. The file is read
    and parsed a chunk at a time (:func:`_read_columns`): by columns when
    every line has :func:`write_trace`'s layout, else by the line loop of
    :func:`_check_lines`, which raises the first bad line's error where it
    stands. When :func:`_split_row` splits the most rows the file's size can
    hold, the file is cut just past the first ``\\n`` at or after its middle
    byte: this process reads the bytes before the cut while a forked child
    opens the file and reads those after it, and the chunks' columns are
    joined. A child whose bytes hold a bad line, and so cannot number it,
    sends None, and this process reads them on from the cut, where its
    handle stands. A FIFO has no size, so it is read in order, once, here.
    """
    with open(path, "rb") as fh:
        # the most rows the file can hold, its last line perhaps without a \n
        rows = (os.fstat(fh.fileno()).st_size + 1) // SHORTEST_LINE_BYTES
        if _split_row(rows) == rows:
            return _joined(_read_columns(fh, path=path)[0])
        cut = _cut(fh)

        def read_rest():
            with open(path, "rb") as rest:
                rest.seek(cut)
                try:
                    return _read_columns(rest)
                except ValueError:  # a bad line, numbered from the cut
                    return None

        fh.seek(0)
        (mine, lineno), theirs = _with_child(lambda: _read_columns(fh, cut, path), read_rest)
        if theirs is None:
            theirs = _read_columns(fh, path=path, lineno=lineno)
        return _joined(mine + theirs[0])


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


def _read_columns(fh, size: Optional[int] = None, path=None, lineno: int = 1) -> tuple[list, int]:
    """The trace and verdicts held in the next ``size`` bytes of an open
    binary file (all the rest when None), one part per chunk, and the
    number of the line after them, the first being line ``lineno``.

    The bytes are read ``CHUNK_BYTES`` at a time and decoded as text mode
    decodes them with ``errors="surrogateescape"``, CR and CRLF line ends
    read as ``\\n``. Each chunk's complete lines are parsed together by
    :func:`_parse_canonical` when every line has :func:`write_trace`'s
    layout; a chunk it refuses goes a line at a time to :func:`_parse_record`
    in the line loop of :func:`_check_lines`, which builds the chunk's
    columns or raises the first bad line's error as ``path:line``. The
    last, partial line of a chunk is carried into the next, so no process
    holds more than a chunk of text.
    """
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")("surrogateescape"), translate=True)
    parts, tail, left = [], "", math.inf if size is None else size
    while True:
        block = fh.read(min(CHUNK_BYTES, left))
        left -= len(block)
        text = tail + decoder.decode(block, final=not block)
        end = text.rfind("\n") + 1 if block else len(text)  # the last line of the file may have no line end
        text, tail = text[:end], text[end:]
        if block and not text:  # no line has ended yet
            continue
        part = _parse_canonical(text)
        lines = None if part else text.split("\n")  # its last entry follows the last line end
        part = part or _records_to_columns(_check_lines(path, lineno, lines, _parse_record))
        parts.append(part)
        lineno += len(lines) - 1 if lines else len(part[0])  # write_trace's layout holds a record a line
        if not block:
            return parts, lineno


def _joined(parts: list[tuple[Trace, Verdicts]]) -> tuple[Trace, Verdicts]:
    """The consecutive parts of a trace and its verdicts as one of each,
    each column the parts' columns concatenated: an id column in the widest
    of its parts' dtypes, which :func:`narrowed` gives the whole."""
    return tuple(
        kind._adopt(*(np.concatenate([getattr(obj, f.name) for obj in objs]) for f in fields(kind)))
        for kind, objs in zip((Trace, Verdicts), zip(*parts))
    )


def _parse_canonical(text: str) -> Optional[tuple[Trace, Verdicts]]:
    """The trace held in ``text``, complete lines of the file's text, when
    every line has exactly the layout :func:`write_trace` writes, or None,
    for the line loop to read them.

    The lines are read as bytes by numpy passes, with no object per record.
    A line's commas, 5 on a legit line and 6 on an attack one, place its
    values and its fixed key texts, and each key text must stand where they
    put it. Each verdict is ``"accept"`` or ``"reject"``, each id 1 to 18
    digits without a leading zero, and each time and anomaly a number of
    JSON with a fraction or an exponent, which json reads as the float its
    text casts to, or ``Infinity``, ``-Infinity`` or ``NaN``. No NUL, no
    blank line and no character outside ASCII passes.
    """
    if text and not text.endswith("\n") or not text.isascii() or "\0" in text:
        return None
    data = text.encode("ascii") + bytes(64)  # NUL past the end, where a window 46 bytes past a comma may reach
    buf = np.frombuffer(data, np.uint8)

    def holds(at: np.ndarray, key_text: bytes) -> np.ndarray:
        return _windows(data, len(key_text))[at] == key_text

    ends = np.flatnonzero(buf == ord("\n"))
    commas = np.flatnonzero(buf == ord(","))
    upto = np.searchsorted(commas, ends)  # the commas before each line's end
    count = np.diff(upto, prepend=0)
    attack = count == 6
    if not np.all(attack | (count == 5)):
        return None
    first = upto - count
    m0, m1, m2, m4 = (commas[first + k] for k in (0, 1, 2, 4))
    starts = np.append(0, ends[:-1] + 1)[: ends.size]
    verdict = np.where(attack, m4 + 11, m2 + 27)  # where the verdict's text starts
    ok = holds(starts, b'{"time_s":') & holds(m0, b',"device_id":') & holds(m1, b',"ta":')
    ok &= np.where(
        attack,
        holds(m2, b',"label":"attack","burst_id":') & holds(m4, b',"verdict":'),
        holds(m2, b',"label":"legit","verdict":'),
    )
    ok &= holds(verdict + 8, b',"anomaly":') & (buf[ends - 1] == ord("}"))
    decision = _windows(data, 8)[verdict]
    rejected = decision == b'"reject"'
    if not np.all(ok & (rejected | (decision == b'"accept"'))):
        return None
    n, on_attack = ends.size, np.flatnonzero(attack)
    floats = _float_texts(data, np.concatenate((starts + 10, verdict + 19)), np.concatenate((m0, ends - 1)))
    ids = _id_texts(data, np.concatenate((m0 + 13, m1 + 6, m2[on_attack] + 29)), np.concatenate((m1, m2, m4[on_attack])))
    if floats is None or ids is None:
        return None
    burst_id = np.full(n, -1, np.int64)
    burst_id[on_attack] = ids[2 * n :]
    try:  # Trace's checks: finite non-negative times
        trace = Trace._adopt(floats[:n], ids[:n], ids[n : 2 * n], burst_id)
    except ValueError:
        return None
    return trace, Verdicts._adopt(rejected, floats[n:])


def _windows(data: bytes, width: int) -> np.ndarray:
    """The ``width`` bytes from each offset of ``data`` as one value each, a view."""
    return np.ndarray((len(data) - width + 1,), f"S{width}", data, strides=(1,))


def _float_texts(data: bytes, start: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
    """The float64 of each text from ``start`` to ``stop`` of ``data``, or
    None unless each is ``Infinity``, ``-Infinity``, ``NaN`` or, in at most
    ``_FLOAT_BYTES`` bytes, a number of JSON with a fraction or an exponent.
    A state machine checks the grammar a byte column at a time, each text
    padded with NUL; numpy's cast reads the numbers as ``float`` does."""
    length = stop - start
    width = int(length.max(initial=1))
    if width > _FLOAT_BYTES:
        return None
    texts = _windows(data, width)[start]
    matrix = texts.view(np.uint8).reshape(-1, width)
    matrix *= np.arange(width) < length[:, None]
    state = np.zeros(texts.size, np.uint16)
    for column in np.ascontiguousarray(matrix.T):
        np.take(_NUMBER_STEPS, np.add(state, column, out=state), out=state)
    number = (state == 5 << 8) | (state == 8 << 8)
    if not np.all(number | (texts == b"NaN") | (texts == b"Infinity") | (texts == b"-Infinity")):
        return None
    return texts.astype(np.float64)


def _id_texts(data: bytes, start: np.ndarray, stop: np.ndarray) -> Optional[np.ndarray]:
    """The int64 of each text from ``start`` to ``stop`` of ``data``, or
    None unless each is 1 to ``_ID_DIGITS`` digits without a leading zero.
    Each text is read from the window that ends with it."""
    length = stop - start
    width = int(length.max(initial=1))
    if width > _ID_DIGITS or np.any(length < 1):
        return None
    digits = _windows(data, width)[stop - width].view(np.uint8).reshape(-1, width) - ord("0")
    digits *= np.arange(width) >= width - length[:, None]
    if np.any(digits > 9) or np.any((_windows(data, 1)[start] == b"0") & (length > 1)):
        return None
    return digits @ 10 ** np.arange(width - 1, -1, -1)


def _check_lines(path, lineno: int, lines: Iterable[str], check: Callable[[str], object]) -> list:
    """``check`` of each line of ``lines``, the lines of the file at ``path``
    from line ``lineno`` on, skipping blank ones; the first ``ValueError`` it
    raises is raised as ``path:line: message``."""
    results = []
    for lineno, line in enumerate(lines, start=lineno):
        if line.strip():
            try:
                results.append(check(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return results


def _records_to_columns(records: list[dict]) -> tuple[Trace, Verdicts]:
    """The trace and verdicts of records that :func:`_parse_record` passed,
    each number cast as ``float`` or int64 casts it, so ``-0`` reads as 0.0."""
    time_s, device_id, ta, anomaly = ([r[key] for r in records] for key in ("time_s", "device_id", "ta", "anomaly"))
    burst_id = [r.get("burst_id", -1) for r in records]  # -1 marks a legit request
    rejected = [r["verdict"] == "reject" for r in records]
    trace = Trace._adopt(np.array(time_s, np.float64), *(np.array(c, np.int64) for c in (device_id, ta, burst_id)))
    return trace, Verdicts._adopt(np.array(rejected, bool), np.array(anomaly, np.float64))


def _parse_record(line: str) -> dict:
    """One trace line, with or without its ``\\n``, as a dict; ``ValueError``
    unless it is well-formed. json's error positions are those of the line
    without its ``\\n``, so a record cut short ends on its own line."""
    if _SURROGATE_ESCAPES.search(line):
        raise ValueError("not valid UTF-8")
    try:
        record = json.loads(line.removesuffix("\n"))
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
