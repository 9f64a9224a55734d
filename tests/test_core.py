import contextlib
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bits, deadline, needs_pipes, piped, read_trace_rows, trace_of, write_trace_rows
from stormsim import (
    Decision,
    DetectorConfig,
    RsrEvent,
    ScenarioConfig,
    Trace,
    Verdict,
    Verdicts,
    build_trace,
    read_trace,
    run,
    slots_per_day,
    train_profile_for,
    write_trace,
)
from stormsim import core
from stormsim.core import (
    ROWS_PER_WRITE,
    SHORTEST_LINE_BYTES,
    SPLIT_ROWS,
    _parse_record,
    _read_columns,
    _split_row,
    _with_child,
    cell_keys,
)


class TestSlotArithmetic:
    def test_slots_per_day_default_interval(self):
        assert slots_per_day(300) == 288

    @pytest.mark.parametrize("bad", [0, -300, 299, 7, 86401])
    def test_interval_must_divide_day(self, bad):
        with pytest.raises(ValueError):
            slots_per_day(bad)

    @pytest.mark.parametrize("days", [0, -1])
    def test_cell_keys_needs_a_day(self, days):
        with pytest.raises(ValueError, match=f"^days must be at least 1, got {days}$"):
            cell_keys(np.empty(0), np.empty(0, np.int64), 300, 10, days)


class TestRsrEvent:
    def test_label_derives_from_burst_id(self, tmp_path):
        # An event without a burst is legit; the "label" a trace file holds
        # comes from burst_id alone.
        assert RsrEvent(time_s=1.0, device_id=0, ta=0).burst_id is None
        events = [RsrEvent(time_s=1.0, device_id=0, ta=0), RsrEvent(time_s=2.0, device_id=0, ta=0, burst_id=0)]
        path = tmp_path / "t.jsonl"
        write_trace(path, trace_of(events), Verdicts([False, False], [0.0, 0.0]))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["label"] for r in records] == ["legit", "attack"]
        assert [r.get("burst_id") for r in records] == [None, 0]


class TestColumns:
    def test_trace_iterates_as_events(self):
        trace = Trace([0.5, 2.0], [1, 7], [3, 9], [-1, 4])
        assert len(trace) == 2
        events = list(trace)
        assert events == [
            RsrEvent(time_s=0.5, device_id=1, ta=3),
            RsrEvent(time_s=2.0, device_id=7, ta=9, burst_id=4),
        ]
        assert {type(e) for e in events} == {RsrEvent}
        assert [type(e.burst_id) for e in events] == [type(None), int]  # Python values, not NumPy scalars
        assert trace.attack.tolist() == [False, True]
        assert trace.time_s.dtype == np.float64 and trace.burst_id.dtype == np.int8  # the narrowest that holds 4

    def test_verdicts_iterate_as_verdicts(self):
        verdicts = Verdicts([False, True], [-0.5, 7.25])
        assert len(verdicts) == 2
        assert list(verdicts) == [Verdict(Decision.ACCEPT, -0.5), Verdict(Decision.REJECT, 7.25)]

    def test_empty(self):
        assert len(Trace([], [], [], [])) == 0
        assert list(Verdicts([], [])) == []

    def test_columns_are_read_only_copies(self):
        time_s, rejected = np.array([5.0, 6.0]), np.array([False, True])
        trace = Trace(time_s, [0, 0], [1, 1], [-1, -1])
        verdicts = Verdicts(rejected, [0.0, 1.0])
        time_s[0], rejected[0] = -300.0, True
        assert trace.time_s.tolist() == [5.0, 6.0] and verdicts.rejected.tolist() == [False, True]
        with pytest.raises(ValueError, match="read-only"):
            trace.time_s[0] = -300.0
        with pytest.raises(ValueError, match="read-only"):
            verdicts.anomaly[0] = 1.0

    @pytest.mark.parametrize(
        "columns, match",
        [
            (([0.0, 1.0], [0], [0, 0], [-1, -1]), "equal lengths"),
            (([0.0], [0], [-1], [-1]), "non-negative"),
            (([0.0], [-3], [0], [-1]), "non-negative"),
            (([0.0], [0], [0], [-2]), "burst_id"),
            (([math.nan], [0], [0], [-1]), "finite"),
            (([math.inf], [0], [0], [-1]), "finite"),
            (([-1.0], [0], [0], [-1]), "non-negative"),
            (([0.0], [0.5], [0], [-1]), "device_id must be a 1-D integer column"),
            (([0.0], [0], ["a"], [-1]), "ta must be a 1-D integer column"),
            (([0.0], [0], [0], [[-1]]), "burst_id must be a 1-D integer column"),
        ],
    )
    @pytest.mark.parametrize("make", [Trace, Trace._adopt])
    def test_bad_trace_rejected(self, columns, match, make):
        with pytest.raises(ValueError, match=match):
            make(*columns)

    def test_adopted_columns_are_kept_read_only(self):
        columns = (np.array([5.0, 6.0]), np.array([0, 0], np.int8), np.array([1, 1], np.int32), np.array([-1, 300], np.int16))
        trace = Trace._adopt(*columns)
        kept = (trace.time_s, trace.device_id, trace.burst_id)
        assert all(a is b for a, b in zip(kept, (columns[0], columns[1], columns[3])))
        assert trace.ta.dtype == np.int8 and not np.shares_memory(trace.ta, columns[2])  # narrowed, so copied
        assert not any(c.flags.writeable for c in (*kept, trace.ta))
        assert bits(trace) == bits(Trace(*columns))

    @pytest.mark.parametrize(
        "columns, match",
        [
            (([True, False], [1.0]), "equal lengths"),
            (([1], [1.0]), "rejected must be a 1-D bool column"),
            (([True], ["x"]), "anomaly must be a 1-D float64 column"),
        ],
    )
    @pytest.mark.parametrize("make", [Verdicts, Verdicts._adopt])
    def test_bad_verdicts_rejected(self, columns, match, make):
        with pytest.raises(ValueError, match=match):
            make(*columns)

    def test_adopted_verdicts_are_kept_read_only(self):
        rejected, anomaly = np.array([False, True]), np.array([0.5, 7.0])
        verdicts = Verdicts._adopt(rejected, anomaly)
        assert verdicts.rejected is rejected and verdicts.anomaly is anomaly
        assert not (rejected.flags.writeable or anomaly.flags.writeable)


HORIZON_S = 2 * 86400.0
VERDICT_KEYS = ',"verdict":"accept","anomaly":0.0'  # the verdict pair every record holds
trace_times = st.one_of(
    st.just(0.0),
    st.just(math.nextafter(HORIZON_S, 0.0)),
    st.floats(min_value=0.0, max_value=HORIZON_S, exclude_max=True),
)
int64s = st.integers(min_value=0, max_value=2**63 - 1)
row_strategy = st.tuples(
    trace_times,
    int64s,
    st.integers(min_value=0, max_value=200),
    st.one_of(st.just(-1), int64s),  # -1 is legit, the rest attack
    st.booleans(),
    st.floats(allow_nan=False),  # infinite anomalies round-trip too
)


def columns_of(rows) -> tuple[Trace, Verdicts]:
    """The trace and verdicts of ``row_strategy`` rows in time order."""
    rows = sorted(rows, key=lambda row: row[0])
    time_s, device_id, ta, burst_id, rejected, anomaly = zip(*rows) if rows else ([],) * 6
    trace = Trace(
        np.array(time_s, float), np.array(device_id, np.int64), np.array(ta, np.int64), np.array(burst_id, np.int64)
    )
    return trace, Verdicts(np.array(rejected, bool), np.array(anomaly, float))


class TestTraceSerialization:
    @given(rows=st.lists(row_strategy, max_size=30))
    def test_round_trip_events(self, rows):
        trace, verdicts = columns_of(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, trace, verdicts)
            loaded, loaded_verdicts = read_trace(path)
            assert bits(loaded, loaded_verdicts) == bits(trace, verdicts)
            first = path.read_bytes()
            write_trace(path, loaded, loaded_verdicts)
            assert path.read_bytes() == first

    def test_round_trip_with_verdicts(self, tmp_path):
        trace = Trace([0.125, 2.5], [1, 7], [3, 9], [-1, 4])
        verdicts = Verdicts([False, True], [-0.5, 7.25])
        path = tmp_path / "trace.jsonl"
        write_trace(path, trace, verdicts)
        assert path.read_text() == (
            '{"time_s":0.125,"device_id":1,"ta":3,"label":"legit","verdict":"accept","anomaly":-0.5}\n'
            '{"time_s":2.5,"device_id":7,"ta":9,"label":"attack","burst_id":4,"verdict":"reject","anomaly":7.25}\n'
        )
        loaded_trace, loaded_verdicts = read_trace(path)
        assert bits(loaded_trace, loaded_verdicts) == bits(trace, verdicts)

    def test_verdict_length_mismatch(self, tmp_path):
        trace = Trace([0.0], [0], [0], [-1])
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.jsonl", trace, Verdicts([], []))

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, Trace([1.0], [0], [2], [9]), Verdicts([True], [8.0]))
        record = json.loads(path.read_text().strip())
        assert list(record) == ["time_s", "device_id", "ta", "label", "burst_id", "verdict", "anomaly"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS + ',"oops":1}\n')
        with pytest.raises(ValueError, match="unknown"):
            read_trace(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"label":"legit"' + VERDICT_KEYS + "}\n")
        with pytest.raises(ValueError, match=r"missing keys \['ta'\]"):
            read_trace(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"ta":0,"label":"weird"' + VERDICT_KEYS + "}\n")
        with pytest.raises(ValueError, match="label"):
            read_trace(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ('"time_s":1.0,"device_id":0,"ta":0,"label":"attack","burst_id":"3"' + VERDICT_KEYS, "must be integers"),
            ('"time_s":1.0,"device_id":0,"ta":true,"label":"legit"' + VERDICT_KEYS, "must be integers"),
            ('"time_s":"1.0","device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "time_s a number"),
            ('"time_s":1.0,"device_id":0,"ta":-1,"label":"legit"' + VERDICT_KEYS, "must lie in"),
            ('"time_s":NaN,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "finite"),
            ('"time_s":Infinity,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "finite"),
            ('"time_s":' + "9" * 400 + ',"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "finite"),
            ('"time_s":true,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "time_s a number"),
            # one past the largest float: converting it would round down to a valid time
            ('"time_s":' + str(int(sys.float_info.max) + 1) + ',"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS, "finite"),
            ('"time_s":1.0,"device_id":9223372036854775808,"ta":0,"label":"legit"' + VERDICT_KEYS, "must lie in"),
            ('"time_s":1.0,"device_id":0,"ta":' + "9" * 30 + ',"label":"legit"' + VERDICT_KEYS, "must lie in"),
            ('"time_s":1.0,"device_id":0,"ta":0,"label":"attack","burst_id":9223372036854775808' + VERDICT_KEYS, "must lie in"),
            ('"time_s":1.0,"device_id":0,"ta":0,"label":"attack","burst_id":-1' + VERDICT_KEYS, "must lie in"),
            ('"time_s":1.0,"device_id":0,"ta":0,"label":"legit","burst_id":3' + VERDICT_KEYS, "present exactly"),
            ('"time_s":1.0,"device_id":0,"ta":0,"label":"attack"' + VERDICT_KEYS, "present exactly"),
            ('"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"maybe","anomaly":0.0', "bad verdict"),
            ('"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":"x"', "anomaly must"),
            ('"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":' + "9" * 400, "anomaly must"),
            ('"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":false', "anomaly must"),
            (
                '"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":-'
                + str(int(sys.float_info.max) + 1),
                "anomaly must",
            ),
            ('"time_s":0.5,"device_id":0,"ta":0,"label":"legit","verdict":"accept"', r"missing keys \['anomaly'\]"),
        ],
    )
    def test_bad_field_type_rejected(self, tmp_path, fields, match):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":0.5,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS + "}\n{" + fields + "}\n")
        with pytest.raises(ValueError, match=f"{path}:2: .*{match}"):
            read_trace(path)

    def test_partial_verdicts_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time_s":1.0,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":0.0}\n'
            '{"time_s":2.0,"device_id":0,"ta":0,"label":"legit"}\n'
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: missing keys ['anomaly', 'verdict']")):
            read_trace(path)


# Corruptions of a written trace. Character edits delete the k-th
# occurrence of a character or insert a string just after it; inserting after
# a quote puts a raw U+2028 or U+001C inside a string, which str.splitlines
# would break on. Field edits replace the k-th value or key, or drop the pair;
# dropping the k-th verdict pair leaves a line without its verdict keys.
EDIT_TARGETS = '\n,{}": .'
EDIT_INSERTS = ["\n", ",", "{", "}", " ", "\t", "\n\n", " \n", "\r", "\u2028", "\x1c"]
EDIT_VALUES = [
    "-1", "0", "7", "2.5", "true", "null", '"x"', '"legit"', '"attack"', '"reject"', "{}", "[1]",
    "NaN", "Infinity", "1e400", "9223372036854775808", str(int(sys.float_info.max) + 1),
]  # fmt: skip
EDIT_KEYS = ["time_s", "burst_id", "verdict", "anomaly", "oops"]
FIELD = re.compile(r'"(\w+)":([^,}]*)')
VERDICT = re.compile(r',"verdict":[^,}]*,"anomaly":[^,}]*')
positions = st.integers(min_value=0, max_value=2**16)
edit_strategy = st.one_of(
    st.tuples(st.sampled_from(["delete", "insert"]), st.sampled_from(EDIT_TARGETS), positions, st.sampled_from(EDIT_INSERTS)),
    st.tuples(st.just("value"), st.just(2), positions, st.sampled_from(EDIT_VALUES)),
    st.tuples(st.just("key"), st.just(1), positions, st.sampled_from(EDIT_KEYS)),
    st.tuples(st.sampled_from(["drop", "unverdict"]), st.just(0), positions, st.just("")),
)


def apply_edit(text: str, edit) -> str:
    kind, target, k, new = edit
    if kind in ("delete", "insert"):
        places = [i for i, char in enumerate(text) if char == target]
        start = end = places[k % len(places)] + 1 if places else 0
        start -= kind == "delete"
    else:  # target is the regex group the edit replaces
        fields = list((VERDICT if kind == "unverdict" else FIELD).finditer(text))
        if not fields:
            return text
        field = fields[k % len(fields)]
        start, end = field.span(target)
        if kind == "drop":  # the pair and the comma before it, or after it if first
            start, end = (start - 1, end) if text[start - 1] == "," else (start, end + 1)
    return text[:start] + new + text[end:]


def outcome(reader, path):
    """Bit-level columns of a successful read, or the error message."""
    try:
        return bits(*reader(path))
    except ValueError as exc:
        return str(exc)


class TestReadTraceOracle:
    """``read_trace`` parses the file a chunk at a time; the per-line loop in
    ``conftest.read_trace_rows`` is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(row_strategy, max_size=6),
        edits=st.lists(edit_strategy, max_size=3),
        crlf=st.booleans(),
    )
    @example(  # the second line indented by a tab and a space, JSON's own whitespace
        rows=[(1.0, 5, 3, -1, False, 0.5), (2.0, 6, 4, 7, True, -1.5)],
        edits=[("insert", "\n", 0, " "), ("insert", "\n", 0, "\t")],
        crlf=True,
    )
    def test_matches_line_loop(self, rows, edits, crlf):
        trace, verdicts = columns_of(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, trace, verdicts)
            text = path.read_text(encoding="utf-8")
            for edit in edits:
                text = apply_edit(text, edit)
            path.write_bytes((text.replace("\n", "\r\n") if crlf else text).encode("utf-8"))
            expected = outcome(read_trace_rows, path)
            assert outcome(read_trace, path) == expected
            # The chunked parse takes every good file, indented or not, so
            # the line loop only reports errors.
            if not isinstance(expected, str):
                with open(path, "rb") as fh:
                    assert _read_columns(fh) is not None

    def test_split_record_and_shared_line_rejected(self, tmp_path):
        # Three records on three lines, so the joined text parses to three
        # objects: the first record spans two lines, two records share one.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time_s":1.0\n'
            '"device_id":0,"ta":0,"label":"legit"}\n'
            '{"time_s":2.0,"device_id":0,"ta":0,"label":"legit"},{"time_s":3.0,"device_id":0,"ta":0,"label":"legit"}\n'
        )
        with pytest.raises(ValueError, match=f"{path}:1: invalid JSON"):
            read_trace(path)

    @pytest.mark.parametrize("line", ["[]", "3", '"{}"', "null"])
    def test_line_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(3))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match=f"^{path}:4: a record must be a JSON object$"):
            read_trace(path)
        assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    @pytest.mark.parametrize("chunk", [core.CHUNK_BYTES, 100])
    def test_line_cut_short_reports_as_the_line_loop(self, tmp_path, monkeypatch, chunk):
        # json's error positions are those of the line without its "\n": a
        # record cut short ends on line 1 of its own text, whether the line
        # loop is given the line with its "\n", as file iteration gives it,
        # or without, as the chunk's lines are split
        monkeypatch.setattr(core, "CHUNK_BYTES", chunk)
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(5))
        lines = path.read_text().split("\n")
        lines[2] = lines[2][:-1]
        path.write_text("\n".join(lines))
        expected = outcome(read_trace_rows, path)
        cut = len(lines[2])
        assert expected == f"{path}:3: invalid JSON (Expecting ',' delimiter: line 1 column {cut + 1} (char {cut}))"
        assert outcome(read_trace, path) == expected

    def test_deep_nesting_after_bad_line(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on deep nesting;
        # the bad label on the line before it is still the error reported.
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"ta":0,"label":"weird"' + VERDICT_KEYS + '}\n{"time_s":' + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=f"{path}:1: bad label"):
            read_trace(path)

    def test_deep_nesting_gets_a_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":' + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=f"{path}:1: invalid JSON"):
            read_trace(path)
        assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    def test_good_chunk_refused_is_an_error(self, tmp_path, monkeypatch):
        # the line loop returns no rows, so good lines the column parse
        # refused never pass for data
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(3))
        monkeypatch.setattr(core, "_parse_canonical", lambda text: None)
        monkeypatch.setattr(core, "_parse_columns", lambda lines: None)
        with pytest.raises(AssertionError, match="the column parse refused lines that each pass"):
            read_trace(path)

    def test_indented_line_read_by_columns(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_text(' {"time_s":1.0,"device_id":0,"ta":0,"label":"legit"' + VERDICT_KEYS + "}\n\n")
        monkeypatch.setattr(core, "_check_lines", None)
        assert bits(*read_trace(path)) == bits(Trace([1.0], [0], [0], [-1]), Verdicts([False], [0.0]))

    @pytest.mark.parametrize(
        "first, padding, match",
        [
            (b'"label":"weird"', 0, ":1: bad label"),
            (b'"label":"weird"', 20_000, ":1: bad label"),
            (b'"label":"legit"', 0, ":2: not valid UTF-8"),
            (b'"label":"legit"', 20_000, ":20002: not valid UTF-8"),
        ],
    )
    def test_bad_utf8_raised_as_line_loop_does(self, tmp_path, first, padding, match):
        # The first bad line in file order is reported, whether it holds a
        # bad record or a byte that is not UTF-8, wherever the decoder's
        # chunks fall.
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"time_s":1.0,"device_id":0,"ta":0,' + first + VERDICT_KEYS.encode() + b"}\n" + b"\n" * padding + b"\xff\n")
        with pytest.raises(ValueError, match=match):
            read_trace(path)
        assert outcome(read_trace, path) == outcome(read_trace_rows, path)


written_rows = st.tuples(
    st.one_of(st.just(0.0), st.just(1e300), st.floats(min_value=0.0, max_value=1e300)),
    int64s,
    int64s,
    st.one_of(st.just(-1), int64s),
    st.booleans(),
    st.one_of(st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]), st.floats()),
)
EDGE_ROWS = [
    (0.0, 0, 2**63 - 1, -1, False, -0.0),
    (1e300, 2**63 - 1, 0, 2**63 - 1, True, 0.0),
    (5e-324, 1, 7, 0, True, math.inf),
    (86399.99999999999, 2, 7, 3, False, -math.inf),
    (0.1, 3, 9, -1, True, math.nan),
]


class TestWriteTraceOracle:
    """``write_trace`` formats whole columns; the per-row writer in
    ``conftest.write_trace_rows`` is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(written_rows, min_size=1, max_size=8),
        length=st.one_of(
            st.sampled_from([0, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1]), st.integers(0, 40)
        ),
        labels=st.sampled_from(["mixed", "legit", "attack"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(rows=EDGE_ROWS, length=0, labels="mixed", seed=0)
    @example(rows=EDGE_ROWS, length=ROWS_PER_WRITE - 1, labels="legit", seed=0)
    @example(rows=EDGE_ROWS, length=ROWS_PER_WRITE, labels="attack", seed=0)
    @example(rows=EDGE_ROWS, length=ROWS_PER_WRITE + 1, labels="mixed", seed=0)
    def test_same_bytes_as_row_writer(self, rows, length, labels, seed):
        index = np.random.default_rng(seed).integers(0, len(rows), length)
        time_s, device_id, ta, burst_id, rejected, anomaly = (np.array(column)[index] for column in zip(*rows))
        if labels != "mixed":
            burst_id = np.full(length, -1) if labels == "legit" else np.maximum(burst_id, 0)
        trace = Trace(time_s, device_id, ta, burst_id)
        verdicts = Verdicts(rejected, anomaly)
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = pathlib.Path(tmp) / "trace.jsonl", pathlib.Path(tmp) / "rows.jsonl"
            write_trace(path, trace, verdicts)
            write_trace_rows(reference, trace, verdicts)
            assert path.read_bytes() == reference.read_bytes()


class TestDistinctTexts:
    """``distinct_texts`` formats each distinct value once and gives each
    entry's index into those texts in the smallest unsigned dtype that can
    index them, the working set of ``write_trace`` and ``save_profile``."""

    @pytest.mark.parametrize(
        "distinct, dtype",
        [(1, np.uint8), (255, np.uint8), (256, np.uint8), (257, np.uint16), (2**16, np.uint16), (2**16 + 1, np.uint32)],
    )
    def test_index_dtype(self, distinct, dtype):
        column = np.random.default_rng(distinct).permutation(np.repeat(np.arange(distinct) * 3 - 7, 2))
        texts, inverse = core.distinct_texts(column, ',"x":')
        assert inverse.dtype == dtype and texts.size == distinct
        assert texts[inverse].tolist() == [',"x":' + json.dumps(value) for value in column.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3), max_size=60))
    def test_integer_texts(self, values):
        texts, inverse = core.distinct_texts(np.array(values, np.int64), ",")
        assert texts.size == len(set(values))
        assert texts[inverse].tolist() == ["," + json.dumps(value) for value in values]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]), max_size=60))
    def test_float_texts(self, values):
        column = np.array(values, np.float64)
        texts, inverse = core.distinct_texts(column, ",")
        assert texts.size == len(set(column.view(np.int64).tolist()))  # told apart by their bits
        assert texts[inverse].tolist() == ["," + json.dumps(value) for value in values]

    def test_signed_zero_infinity_and_nan_keep_their_texts(self):
        column = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 0.0, -0.0, math.inf])
        texts, inverse = core.distinct_texts(column, "")
        assert texts.size == 5
        assert texts[inverse].tolist() == ["0.0", "-0.0", "Infinity", "-Infinity", "NaN", "0.0", "-0.0", "Infinity"]

    @pytest.mark.parametrize(
        "column", [np.array([], np.int64), np.array([], np.float64), np.full(5, 7), np.full(3, -0.0)], ids=str
    )
    def test_empty_and_one_value_columns(self, column):
        texts, inverse = core.distinct_texts(column, "")
        assert inverse.dtype == np.uint8 and inverse.size == column.size
        assert texts.size == min(column.size, 1)
        assert texts[inverse].tolist() == [json.dumps(value) for value in column.tolist()]


def random_columns(n: int, seed: int = 0) -> tuple[Trace, Verdicts]:
    """``n`` sorted random rows, a third of them attack ones, with verdicts."""
    rng = np.random.default_rng(seed)
    time_s = np.sort(rng.uniform(0.0, 86400.0, n))
    burst_id = np.where(rng.random(n) < 1 / 3, rng.integers(0, 50, n), -1)
    trace = Trace(time_s, rng.integers(0, 200, n), rng.integers(0, 100, n), burst_id)
    return trace, Verdicts(rng.random(n) < 0.1, rng.normal(0.0, 3.0, n))


def rows_of(trace: Trace, verdicts: Verdicts, rows: slice) -> tuple[Trace, Verdicts]:
    part = Trace(trace.time_s[rows], trace.device_id[rows], trace.ta[rows], trace.burst_id[rows])
    return part, Verdicts(verdicts.rejected[rows], verdicts.anomaly[rows])


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so traces of SPLIT_ROWS rows or more are split on any machine."""
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestTwoCoreTraceIO:
    """From SPLIT_ROWS rows on, a forked child writes and parses the second
    half of a trace; bytes, columns and errors stay those of one process."""

    def test_split_rule(self, two_cpus, monkeypatch):
        assert [_split_row(n) for n in (0, SPLIT_ROWS - 1)] == [0, SPLIT_ROWS - 1]
        assert _split_row(SPLIT_ROWS) == SPLIT_ROWS // 2
        assert _split_row(SPLIT_ROWS + 2 * ROWS_PER_WRITE - 1) == SPLIT_ROWS // 2 + ROWS_PER_WRITE
        assert _split_row(66_481) == 8 * ROWS_PER_WRITE
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _split_row(10 * SPLIT_ROWS) == 10 * SPLIT_ROWS
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:  # a fork would copy only the calling thread
            assert _split_row(10 * SPLIT_ROWS) == 10 * SPLIT_ROWS
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert _split_row(10 * SPLIT_ROWS) == 5 * SPLIT_ROWS
        monkeypatch.delattr(core.os, "fork")
        assert _split_row(10 * SPLIT_ROWS) == 10 * SPLIT_ROWS

    @pytest.mark.parametrize("n", [SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1])
    def test_same_bytes_and_columns_as_one_process(self, tmp_path, two_cpus, monkeypatch, n):
        trace, verdicts = random_columns(n)
        split, serial = tmp_path / "split.jsonl", tmp_path / "serial.jsonl"
        write_trace(split, trace, verdicts)
        read_split = bits(*read_trace(split))
        monkeypatch.setattr(core, "_split_row", lambda n: n)
        write_trace(serial, trace, verdicts)
        assert split.read_bytes() == serial.read_bytes()
        assert read_split == bits(*read_trace(serial)) == bits(trace, verdicts)

    def test_halves_that_share_no_value(self, tmp_path, two_cpus, monkeypatch):
        # each process formats the distinct values of its own rows: the
        # first half is all legit and the second all attack, on their own
        # devices and TAs, with -0.0 in one half and 0.0, inf and nan in the other
        n = SPLIT_ROWS + 5000
        split = _split_row(n)
        assert 0 < split < n
        rng = np.random.default_rng(29)
        first, second = rng.random(n) < 0.5, rng.random(n) < 0.5
        half = np.arange(n) >= split
        trace = Trace(
            np.sort(rng.uniform(0.0, 86400.0, n)),
            np.where(half, 1000 + rng.integers(0, 100, n), rng.integers(0, 100, n)),
            np.where(half, 50 + rng.integers(0, 50, n), rng.integers(0, 50, n)),
            np.where(half, rng.integers(0, 20, n), -1),
        )
        anomaly = np.where(half, rng.choice([0.0, math.inf, math.nan, 2.5], n), np.where(first, -0.0, -1.5))
        verdicts = Verdicts(np.where(half, second, first), anomaly)
        parent, distinct_texts, sizes = os.getpid(), core.distinct_texts, []

        def spied(column, prefix):
            if os.getpid() == parent:
                sizes.append(column.size)
            return distinct_texts(column, prefix)

        monkeypatch.setattr(core, "distinct_texts", spied)
        paths = [tmp_path / name for name in ("split.jsonl", "serial.jsonl", "rows.jsonl")]
        write_trace(paths[0], trace, verdicts)
        assert sizes and max(sizes) <= split
        monkeypatch.setattr(core, "_split_row", lambda n: n)
        write_trace(paths[1], trace, verdicts)
        write_trace_rows(paths[2], trace, verdicts)
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
        text = paths[0].read_text(encoding="utf-8")
        assert all(f'"anomaly":{value}}}' in text for value in ("-0.0", "0.0", "Infinity", "NaN"))

    def test_bad_line_in_second_half(self, tmp_path, two_cpus):
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(SPLIT_ROWS + 5000))
        lines = path.read_text().split("\n")
        lines[SPLIT_ROWS] = lines[SPLIT_ROWS].replace('"label":"legit"', '"label":"weird"')
        lines[SPLIT_ROWS] = lines[SPLIT_ROWS].replace('"label":"attack"', '"label":"weird"')
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"{path}:{SPLIT_ROWS + 1}: bad label"):
            read_trace(path)
        assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    @pytest.mark.parametrize("fault", ["bad label", "indent"])
    def test_refused_child_half_read_from_the_cut(self, tmp_path, two_cpus, monkeypatch, fault):
        # the child cannot number its lines, so this process reads its half,
        # once, from the cut where its handle stands, and numbers on from its
        # own; an indented line in the child's half is read by the child
        path = tmp_path / "t.jsonl"
        trace, verdicts = random_columns(SPLIT_ROWS + 5000)
        write_trace(path, trace, verdicts)
        lines = path.read_text().split("\n")
        if fault == "bad label":
            lines[SPLIT_ROWS] = lines[SPLIT_ROWS].replace('"label":"legit"', '"label":"weird"')
            lines[SPLIT_ROWS] = lines[SPLIT_ROWS].replace('"label":"attack"', '"label":"weird"')
        else:
            lines[SPLIT_ROWS] = " \t" + lines[SPLIT_ROWS]
        path.write_text("\n".join(lines))
        with open(path, "rb") as fh:
            cut = core._cut(fh)
        assert path.read_bytes()[:cut].count(b"\n") < SPLIT_ROWS
        parent, read_columns, starts = os.getpid(), core._read_columns, []

        def recorded(fh, *args, **kwargs):
            if os.getpid() == parent:
                starts.append(fh.tell())
            return read_columns(fh, *args, **kwargs)

        monkeypatch.setattr(core, "_read_columns", recorded)
        if fault == "bad label":
            with pytest.raises(ValueError, match=f"^{path}:{SPLIT_ROWS + 1}: bad label"):
                read_trace(path)
            assert starts == [0, cut]
        else:
            assert bits(*read_trace(path)) == bits(trace, verdicts)
            assert starts == [0]

    @pytest.mark.parametrize("verdict_half", [0, 1])
    def test_verdicts_in_one_half_only(self, tmp_path, two_cpus, verdict_half):
        # only one half's records carry their verdict keys; the first line
        # of the other half is the first bad line
        n = SPLIT_ROWS + 7000
        split = _split_row(n)
        trace, verdicts = random_columns(n)
        path, part = tmp_path / "t.jsonl", tmp_path / "part.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for half, rows in enumerate([slice(0, split), slice(split, n)]):
                write_trace(part, *rows_of(trace, verdicts, rows))
                text = part.read_text(encoding="utf-8")
                fh.write(text if half == verdict_half else VERDICT.sub("", text))
        first_bad = split + 1 if verdict_half == 0 else 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:{first_bad}: missing keys ['anomaly', 'verdict']")):
            read_trace(path)
        assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    def test_exception_in_child_reaches_caller(self, tmp_path, two_cpus, monkeypatch):
        assert _with_child(os.getpid, os.getpid)[0] == os.getpid() != _with_child(os.getpid, os.getpid)[1]
        with pytest.raises(ZeroDivisionError):
            _with_child(lambda: None, lambda: 1 / 0)
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(SPLIT_ROWS))
        parent, parse = os.getpid(), core._parse_canonical

        def parse_here_only(text):
            if os.getpid() != parent:
                raise MemoryError("out of memory in the child")
            return parse(text)

        monkeypatch.setattr(core, "_parse_canonical", parse_here_only)
        with pytest.raises(MemoryError, match="in the child"):
            read_trace(path)

    def test_child_killed_when_this_side_raises(self):
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            _with_child(lambda: 1 / 0, lambda: time.sleep(30))
        assert time.monotonic() - start < 10  # the child was killed, not waited for

    @pytest.mark.parametrize(
        "there, match",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
            (lambda: os._exit(3), "exited with status 3"),
            (threading.Lock, "exited with status 1"),  # a result that cannot be pickled
        ],
    )
    def test_child_that_dies_raises_child_process_error(self, there, match):
        with pytest.raises(ChildProcessError, match=f"the forked child {match} before sending its result"):
            _with_child(lambda: 1, there)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_read_in_order(self, tmp_path, two_cpus):
        # a FIFO has no size and cannot seek: it is read once, in order,
        # where a regular file of as many rows is split
        trace, verdicts = random_columns(SPLIT_ROWS + 1000)
        regular, fifo = tmp_path / "t.jsonl", tmp_path / "fifo"
        write_trace(regular, trace, verdicts)
        os.mkfifo(fifo)
        copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
        writer = subprocess.Popen([sys.executable, "-c", copy, regular, fifo])
        try:
            assert bits(*read_trace(fifo)) == bits(*read_trace(regular)) == bits(trace, verdicts)
        finally:
            writer.kill()
            writer.wait()


@contextlib.contextmanager
def chunked(chunk: int):
    """``read_trace`` reading ``chunk`` bytes at a time and splitting every
    file that holds a ``\\n`` between two processes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "CHUNK_BYTES", chunk)
        mp.setattr(core, "_split_row", lambda n: 0)
        yield mp


def line_bounds(data: bytes, at: int) -> tuple[int, int]:
    """Start and end (before its line end) of the line holding byte ``at``."""
    start = max(data.rfind(b"\n", 0, at), data.rfind(b"\r", 0, at)) + 1
    ends = [end for end in (data.find(b"\r", at), data.find(b"\n", at)) if end >= 0]
    return start, min(ends, default=len(data))


class TestChunkedReadOracle:
    """``read_trace`` reads a file by byte ranges a chunk at a time. With
    chunks of a few rows and every file split, the per-line loop in
    ``conftest.read_trace_rows`` is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(row_strategy, max_size=8),
        line_end=st.sampled_from(["\n", "\r\n", "\r"]),
        blanks=st.lists(st.tuples(positions, st.sampled_from(["", " ", "\t ", "\u00a0", "\u2028\u3000"])), max_size=3),
        faults=st.lists(st.tuples(positions, st.sampled_from([b"\xff", b"\xe2\x82", b"}", b" ", b"\n", b"\r", b"x"])), max_size=2),
        trailing=st.booleans(),
        chunk=st.integers(min_value=1, max_value=400),
    )
    @example(rows=[], line_end="\n", blanks=[], faults=[], trailing=True, chunk=1)  # no content at all
    @example(rows=[], line_end="\r\n", blanks=[(0, " ")], faults=[], trailing=False, chunk=1)
    def test_matches_line_loop(self, rows, line_end, blanks, faults, trailing, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, *columns_of(rows))
            lines = path.read_text(encoding="utf-8").split("\n")[:-1]
            for at, blank in blanks:
                lines.insert(at % (len(lines) + 1), blank)
            data = bytearray((line_end.join(lines) + (line_end if trailing and lines else "")).encode())
            for at, fault in faults:  # overwrite bytes anywhere: at the cut, on a chunk boundary, ...
                at %= len(data) + 1
                data[at : at + len(fault)] = fault
            path.write_bytes(data)
            expected = outcome(read_trace_rows, path)
            with chunked(chunk):
                assert outcome(read_trace, path) == expected
                if not isinstance(expected, str):  # a good file, indented or not, is read by columns
                    with open(path, "rb") as fh:
                        assert _read_columns(fh) is not None

    @pytest.mark.parametrize("fault", [None, "blank", "byte", "record"])
    @pytest.mark.parametrize(
        "where, line_end",
        [
            ("before cut", "\n"),
            ("before cut", "\r\n"),
            ("after cut", "\n"),
            ("after cut", "\r\n"),
            ("chunk", "\n"),
            ("chunk", "\r\n"),
            ("chunk", "\r"),
            ("child chunk", "\n"),
            ("child chunk", "\r\n"),
        ],
    )
    def test_fault_at_a_seam(self, tmp_path, fault, where, line_end):
        # Each fault keeps the file's length, so the cut and the chunk
        # boundaries stay where they were measured on the good file.
        path, chunk, end = tmp_path / "t.jsonl", 300, line_end.encode()
        trace, verdicts = random_columns(40)
        write_trace(path, trace, verdicts)
        data = bytearray(end.join(path.read_bytes().split(b"\n")[:-1]) + end)
        path.write_bytes(data)
        with open(path, "rb") as fh:
            cut = core._cut(fh)
        at = {"before cut": cut - len(end) - 1, "after cut": cut, "chunk": 2 * chunk, "child chunk": cut + chunk}[where]
        while data[at] in b"\r\n":  # a byte of a line, not of its end
            at += 1
        start, stop = line_bounds(data, at)
        if fault == "blank":
            data[start:stop] = b" " * (stop - start)
        elif fault == "byte":
            data[at] = 0xFF
        elif fault == "record":
            data[start:stop] = data[start:stop].replace(b'"ta":', b'"tb":')
        path.write_bytes(data)
        expected = outcome(read_trace_rows, path)
        with chunked(chunk) as mp:
            if fault in (None, "blank"):  # a good file is never read again line by line
                mp.setattr(core, "_check_lines", None)
                kept = np.ones(len(trace), bool)
                kept[data.count(end, 0, start)] = fault is None
                assert outcome(read_trace, path) == expected == bits(*rows_of(trace, verdicts, kept))
            else:
                assert outcome(read_trace, path) == expected
                assert expected.startswith(f"{path}:{data.count(end, 0, start) + 1}: ")


class TestOnePassRead:
    """``read_trace`` decides the split from the file's size alone and reads
    a chunk that fails a check where it stands, so it never goes back to
    its path: a pipe, which gives its bytes once, reads as a file does."""

    def test_shortest_line(self):
        record = dict.fromkeys(core._REQUIRED_KEYS, 0) | {"label": "legit", "verdict": "accept"}
        line = json.dumps(record, separators=(",", ":"))
        assert _parse_record(line) == record
        assert SHORTEST_LINE_BYTES == len(line) + 1
        for at in range(len(line)):  # no character of it can go
            with pytest.raises(ValueError):
                _parse_record(line[:at] + line[at + 1 :])

    @pytest.mark.parametrize("short, children", [(2, 0), (1, 1)])
    def test_split_from_the_size(self, tmp_path, two_cpus, monkeypatch, short, children):
        # a file of SPLIT_ROWS * SHORTEST_LINE_BYTES - 1 bytes can hold SPLIT_ROWS
        # rows, the last without its \n, so it is split; one byte less is not
        path = tmp_path / "t.jsonl"
        trace, verdicts = random_columns(1000)
        write_trace(path, trace, verdicts)
        padding = SPLIT_ROWS * SHORTEST_LINE_BYTES - short - path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\n" * padding)
        calls = []

        def counted(here, there):
            calls.append(there)
            return _with_child(here, there)

        monkeypatch.setattr(core, "_with_child", counted)
        assert bits(*read_trace(path)) == bits(trace, verdicts)
        assert len(calls) == children

    def test_no_bad_byte_passes_the_column_parse(self, tmp_path):
        # bytes that are not UTF-8 decode to surrogates, which no record the
        # column parse takes can hold: each falls to the line loop
        path = tmp_path / "t.jsonl"
        write_trace(path, *columns_of([(1.0, 5, 3, -1, False, 0.5), (2.0, 6, 4, 7, True, -1.5)]))
        data = path.read_bytes()
        for at in range(len(data)):
            path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
            with open(path, "rb") as fh:
                assert _read_columns(fh) is None, at
            assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    @pytest.mark.parametrize("chunk", [core.CHUNK_BYTES, 100])
    def test_unended_last_line(self, tmp_path, monkeypatch, chunk):
        # json's error positions count a line's end, so a last line cut short
        # with none reports as the line loop reads it, without one
        monkeypatch.setattr(core, "CHUNK_BYTES", chunk)
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(5))
        path.write_bytes(path.read_bytes()[:-2])
        expected = outcome(read_trace_rows, path)
        assert re.match(rf"{path}:5: invalid JSON \(Expecting ',' delimiter: line 1 column \d+", expected)
        assert outcome(read_trace, path) == expected

    @needs_pipes
    @pytest.mark.parametrize("kind", ["fifo", "pipe"])
    @pytest.mark.parametrize("chunk", [core.CHUNK_BYTES, 1000])
    def test_bad_line_from_a_pipe(self, tmp_path, monkeypatch, kind, chunk):
        monkeypatch.setattr(core, "CHUNK_BYTES", chunk)
        path = tmp_path / "t.jsonl"
        write_trace(path, *random_columns(40))
        lines = path.read_text().split("\n")
        lines[30] = lines[30].replace('"label":"legit"', '"label":"weird"').replace('"label":"attack"', '"label":"weird"')
        path.write_text("\n".join(lines))
        expected = outcome(read_trace_rows, path)
        assert expected.startswith(f"{path}:31: bad label")
        with piped(kind, tmp_path, path.read_bytes()) as pipe, deadline(30):
            assert outcome(read_trace, pipe) == expected.replace(str(path), str(pipe), 1)

    @needs_pipes
    @pytest.mark.parametrize("kind", ["fifo", "pipe"])
    @pytest.mark.parametrize("chunk", [core.CHUNK_BYTES, 1000])
    def test_indented_lines_from_a_pipe(self, tmp_path, monkeypatch, kind, chunk):
        # lines indented by spaces and tabs are read by columns, from a pipe
        # as from a file
        monkeypatch.setattr(core, "CHUNK_BYTES", chunk)
        monkeypatch.setattr(core, "_check_lines", None)
        path = tmp_path / "t.jsonl"
        trace, verdicts = random_columns(40)
        write_trace(path, trace, verdicts)
        lines = path.read_bytes().splitlines(keepends=True)
        data = b"".join(b" \t" + line if i % 7 == 3 else line for i, line in enumerate(lines))
        with piped(kind, tmp_path, data) as pipe, deadline(30):
            assert bits(*read_trace(pipe)) == bits(trace, verdicts)


SIGNED = (np.int8, np.int16, np.int32, np.int64)
ID_EDGES = [0, 127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1]  # each signed width's largest and one past it
edge_ids = st.sampled_from(ID_EDGES) | st.integers(min_value=0, max_value=2**63 - 1)


def rule_dtype(values) -> np.dtype:
    """The narrowest of int8 to int64 that holds every id from -1 to the largest of ``values``."""
    largest = max(values, default=0)
    return np.dtype(next(t for t in SIGNED if largest <= np.iinfo(t).max))


def assert_rule(trace: Trace, device_id, ta, burst_id) -> None:
    """Each id column holds its values in ``rule_dtype`` of them: signed, never a float or unsigned column."""
    for column, values in zip((trace.device_id, trace.ta, trace.burst_id), (device_id, ta, burst_id)):
        assert column.dtype == rule_dtype(values) and column.dtype.kind == "i"
        assert column.tolist() == list(values)


class TestIdDtypes:
    """``device_id``, ``ta`` and ``burst_id`` are held in the smallest signed
    dtype that holds their values (``core.narrowed``), however a Trace is made."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(trace_times, edge_ids, edge_ids, st.just(-1) | edge_ids), max_size=12))
    @example(rows=[])
    @example(rows=[(0.0, 0, 0, -1)])  # every id fits int8, burst_id -1 included
    @example(rows=[(0.0, 2**63 - 1, 128, 2**31)])
    def test_every_way_a_trace_is_made(self, rows):
        time_s, device_id, ta, burst_id = zip(*sorted(rows, key=itemgetter(0))) if rows else ([],) * 4
        wide = [np.array(time_s, float)] + [np.array(c, np.int64) for c in (device_id, ta, burst_id)]
        unsigned = wide[:1] + [np.array(c, np.uint64) for c in (device_id, ta)] + wide[3:]
        made = [Trace(time_s, device_id, ta, burst_id), Trace(*wide), Trace(*unsigned), Trace._adopt(*wide)]
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, made[0], Verdicts(np.zeros(len(rows), bool), np.zeros(len(rows))))
            made.append(read_trace(path)[0])
        for trace in made:
            assert_rule(trace, device_id, ta, burst_id)
            assert bits(trace) == bits(made[0])
        again = Trace._adopt(*(getattr(made[0], name) for name in ("time_s", "device_id", "ta", "burst_id")))
        assert again.device_id is made[0].device_id  # a column already in its dtype is kept

    @pytest.mark.parametrize("serial", [False, True])
    def test_large_ids_in_the_last_chunk_only(self, tmp_path, two_cpus, monkeypatch, serial):
        # every chunk before the last row's, on both sides of the cut, reads
        # its TAs and burst ids as int8; the last row's ids widen whole columns
        trace, verdicts = random_columns(SPLIT_ROWS + 5000)
        columns = [trace.time_s] + [getattr(trace, name).tolist() for name in ("device_id", "ta", "burst_id")]
        for column, large in zip(columns[1:], (2**63 - 1, 128, 2**31 - 1)):
            column[-1] = large
        trace = Trace(*columns)
        path = tmp_path / "trace.jsonl"
        write_trace(path, trace, verdicts)
        size = path.stat().st_size
        assert size > 4 * core.CHUNK_BYTES and _split_row((size + 1) // SHORTEST_LINE_BYTES) < SPLIT_ROWS
        if serial:
            monkeypatch.setattr(core, "_split_row", lambda n: n)
        joined, parts = core._joined, []
        monkeypatch.setattr(core, "_joined", lambda p: parts.extend(p) or joined(p))
        loaded, loaded_verdicts = read_trace(path)
        assert_rule(loaded, *columns[1:])
        assert [loaded.device_id.dtype, loaded.ta.dtype, loaded.burst_id.dtype] == [np.int64, np.int16, np.int32]
        widths = [(t.ta.dtype, t.burst_id.dtype) for t, _v in parts if len(t)]
        assert len(widths) > 4 and widths[-1] == (np.int16, np.int32)
        assert set(widths[:-1]) == {(np.dtype(np.int8), np.dtype(np.int8))}
        assert bits(loaded, loaded_verdicts) == bits(trace, verdicts)


# Texts that edit a line of write_trace's layout, in place of one value's
# text or just before or after it: number forms that json and numpy's cast
# read differently or that only one reads, ids past the 18 digits the byte
# parse takes or past int64, and characters it refuses.
CANONICAL_TOKENS = [
    "01", "-0", "5", "+1", "+1.5", ".5", "5.", "01.5", "1E+05", "-0.0", "NaN", "Infinity", "-Infinity", "nan", "inf",
    "1_0", " 1", "\x00", "\u0661", "1" * 18, "1" * 19, str(2**63), "1" * 40 + ".5", "1e400", "1e-400", "", "-", "e5",
]  # fmt: skip
CANONICAL_BYTES = [b"\x00", b"\xff", b"\n", b"\r", b" ", b",", b":", b'"', b"}", b"0", b"-", b"+", b".", b"e"]
BYTE_FIELD = re.compile(rb'"(\w+)":([^,}]*)')
ids18 = st.one_of(st.sampled_from([0, 10, 10**18 - 1]), st.integers(min_value=0, max_value=10**18 - 1))
canonical_rows = st.tuples(
    st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e300)),
    ids18,
    ids18,
    st.one_of(st.just(-1), ids18),
    st.booleans(),
    st.one_of(st.sampled_from([-0.0, math.inf, -math.inf, math.nan, -2.2250738585072014e-308]), st.floats()),
)
canonical_edit = st.one_of(
    st.tuples(st.just("value"), positions, st.sampled_from(CANONICAL_TOKENS), st.sampled_from(["replace", "before", "after"])),
    st.tuples(st.just("swap keys"), positions, st.just(""), st.just("")),
    st.tuples(st.just("insert"), positions, st.sampled_from(CANONICAL_BYTES), st.just("")),
    st.tuples(st.just("delete"), positions, st.just(b""), st.just("")),
)
LEGIT_ROW = (1.5, 3, 7, -1, False, 0.25)  # its line's fields: time_s 0, device_id 1, ta 2, label 3, verdict 4, anomaly 5


def apply_canonical_edit(data: bytes, edit) -> bytes:
    kind, k, new, how = edit
    if kind in ("insert", "delete"):
        at = k % (len(data) + 1)
        return data[:at] + new + data[at + (kind == "delete") :]
    fields = list(BYTE_FIELD.finditer(data))
    if not fields:
        return data
    field = fields[k % len(fields)]
    if kind == "swap keys":  # this key's name and the next one's, on this line or the next
        other = fields[(k + 1) % len(fields)]
        if other.start() < field.start():
            field, other = other, field
        (a, b), (c, d) = field.span(1), other.span(1)
        return data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]
    start, end = field.span(2)
    new = new.encode()
    return data[:start] + {"replace": new, "before": new + data[start:end], "after": data[start:end] + new}[how] + data[end:]


class TestCanonicalParse:
    """``_parse_canonical`` reads the lines of write_trace's layout as bytes.
    It may refuse a chunk, which ``_parse_columns`` then reads, but every
    chunk it takes must read as ``_parse_columns`` reads it, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(canonical_rows, min_size=1, max_size=5), edits=st.lists(canonical_edit, max_size=2))
    @example(rows=[LEGIT_ROW], edits=[])
    @example(rows=[LEGIT_ROW], edits=[("value", 1, "01", "replace")])  # a leading zero
    @example(rows=[LEGIT_ROW], edits=[("value", 0, "-0", "replace")])  # json reads the int 0: time 0.0, not -0.0
    @example(rows=[LEGIT_ROW], edits=[("value", 5, "-0", "replace")])
    @example(rows=[LEGIT_ROW], edits=[("value", 5, "\x00", "after")])  # the cast would stop at the NUL
    @example(rows=[(1.5, 3, 7, -1, False, math.nan)], edits=[("value", 5, "\x00", "after")])
    @example(rows=[LEGIT_ROW], edits=[("value", 0, "+", "before")])
    @example(rows=[LEGIT_ROW], edits=[("swap keys", 1, "", "")])  # device_id and ta, which json reads alike
    def test_taken_chunks_read_as_the_column_parse(self, rows, edits):
        trace, verdicts = columns_of(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, trace, verdicts)
            data = path.read_bytes()
            for edit in edits:
                data = apply_canonical_edit(data, edit)
            path.write_bytes(data)
            # the chunk's complete lines as read_trace decodes them
            text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
            text = text[: text.rfind("\n") + 1]
            taken = core._parse_canonical(text)
            if not edits:  # every line write_trace writes with ids of up to 18 digits
                assert taken is not None
            if taken is not None:
                columns = core._parse_columns(text.split("\n"))
                assert columns is not None and bits(*taken) == bits(*columns)
            assert outcome(read_trace, path) == outcome(read_trace_rows, path)

    def test_empty_text(self):
        assert bits(*core._parse_canonical("")) == bits(Trace([], [], [], []), Verdicts([], []))

    @pytest.mark.parametrize("split", [False, True])
    def test_pipeline_trace_never_reaches_the_column_parse(self, tmp_path, two_cpus, monkeypatch, split):
        # a trace that build_trace, run and write_trace made is read by
        # bytes alone, in one process or in both halves of a split
        config = ScenarioConfig(training_days=2, eval_days=3)
        trace = build_trace(config, seed=config.seed_eval, days=config.eval_days)[0]
        detector = DetectorConfig(gamma=config.gamma, sigma_floor=config.sigma_floor)
        verdicts = run(trace, train_profile_for(config), detector, config.eval_days, config.scoring_mode).verdicts
        path = tmp_path / "trace.jsonl"
        write_trace(path, trace, verdicts)
        rows = (path.stat().st_size + 1) // SHORTEST_LINE_BYTES
        assert _split_row(rows) < rows  # large enough to split on two CPUs
        if not split:
            monkeypatch.setattr(core, "_split_row", lambda n: n)
        children = []

        def counted(here, there):
            children.append(there)
            return _with_child(here, there)

        def refused(lines):
            raise AssertionError("a line of write_trace's layout reached _parse_columns")

        monkeypatch.setattr(core, "_with_child", counted)
        monkeypatch.setattr(core, "_parse_columns", refused)
        assert bits(*read_trace(path)) == bits(trace, verdicts)
        assert len(children) == split
