import contextlib
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from stormsim import (
    SECONDS_PER_DAY,
    AttackSpec,
    Decision,
    DetectorState,
    KpiProfile,
    LegitTrafficSpec,
    Metrics,
    Policy,
    ScenarioConfig,
    Trace,
    Verdict,
    Verdicts,
    on_rsr,
    slots_per_day,
)
from stormsim.core import _parse_record
from stormsim.traffic import (
    _STREAM_ATTACK_TRAFFIC,
    _STREAM_LEGIT_TRAFFIC,
    Burst,
    derive_layout,
    gen_attack_bursts,
    gen_legit_events,
    substream,
)

# perfbench's independent recomputation of a run's outputs, loaded read-only
_check_spec = importlib.util.spec_from_file_location(
    "perfbench_check", Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
)
check = importlib.util.module_from_spec(_check_spec)
_check_spec.loader.exec_module(check)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left unreaped (waitpid gave {pid})")


@pytest.fixture
def small_config() -> ScenarioConfig:
    """Reduced scenario for fast end-to-end tests."""
    return ScenarioConfig(
        legit=LegitTrafficSpec(device_count=20),
        attack=AttackSpec(adversary_count=2),
        training_days=2,
        eval_days=2,
        gamma_grid=(0.0, 2.0, 6.5, 10.0),
        seed_train=11,
        seed_eval=22,
    )


def make_profile(
    interval_seconds: int = 300,
    max_ta: int = 10,
    training_days: int = 5,
    mean: np.ndarray | None = None,
    std: np.ndarray | None = None,
) -> KpiProfile:
    """Hand-built profile with explicit tables (zeros unless given)."""
    n_slots = 86400 // interval_seconds
    shape = (n_slots, max_ta + 1)
    return KpiProfile(
        interval_seconds=interval_seconds,
        max_ta=max_ta,
        training_days=training_days,
        mean=np.zeros(shape) if mean is None else mean,
        std=np.zeros(shape) if std is None else std,
    )


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trace_of(events) -> Trace:
    """The columnar trace of hand-built ``RsrEvent`` rows."""
    return Trace(
        time_s=[e.time_s for e in events],
        device_id=[e.device_id for e in events],
        ta=[e.ta for e in events],
        burst_id=[-1 if e.burst_id is None else e.burst_id for e in events],
    )


def replay(trace, profile, config):
    """The oracle: one fresh DetectorState and one on_rsr call per event."""
    state = DetectorState()
    verdicts = [on_rsr(event, profile, config, state) for event in trace]
    return verdicts, state.policy_log


def day_slot(time_s, interval_seconds):
    """The (day, slot of day) of a time, by scalar ``divmod``."""
    day, time_of_day = divmod(time_s, SECONDS_PER_DAY)
    return int(day), int(time_of_day // interval_seconds)


def interval_end_replay(trace, profile, config):
    """Interval-end oracle: every event carries its cell's last replay score."""
    scores, _policies = replay(trace, profile, config)
    last = {}
    for event, verdict in zip(trace, scores):
        last[(*day_slot(event.time_s, profile.interval_seconds), event.ta)] = verdict.anomaly
    verdicts = []
    for event in trace:
        score = last[(*day_slot(event.time_s, profile.interval_seconds), event.ta)]
        verdicts.append(Verdict(Decision.REJECT if score > config.gamma else Decision.ACCEPT, score))
    policies = [
        Policy(
            ta=ta,
            day=day,
            slot_of_day=slot,
            issued_at_s=float(day * SECONDS_PER_DAY + (slot + 1) * profile.interval_seconds),
        )
        for (day, slot, ta), score in sorted(last.items())
        if score > config.gamma
    ]
    return verdicts, policies


@dataclass
class CountAccumulator:
    """Streaming per-cell moments over day samples (Welford's update).

    After k days the cell mean equals the sample mean and m2 the sum of
    squared deviations, matching a two-pass computation to rounding error.
    """

    shape: tuple[int, ...]
    days_seen: int = 0
    mean: np.ndarray = field(init=False)
    m2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.mean = np.zeros(self.shape, dtype=float)
        self.m2 = np.zeros(self.shape, dtype=float)

    def add_day(self, day_counts: np.ndarray) -> None:
        day_counts = np.asarray(day_counts, dtype=float)
        if day_counts.shape != self.shape:
            raise ValueError(f"expected day table of shape {self.shape}, got {day_counts.shape}")
        self.days_seen += 1
        delta = day_counts - self.mean
        self.mean += delta / self.days_seen
        self.m2 += delta * (day_counts - self.mean)

    def std(self) -> np.ndarray:
        """Sample standard deviation (denominator n-1); zero below two days."""
        if self.days_seen < 2:
            return np.zeros(self.shape, dtype=float)
        return np.sqrt(self.m2 / (self.days_seen - 1))


def flagged_cells(policies):
    """The (day, slot_of_day, ta) cells the policies flag."""
    return {(p.day, p.slot_of_day, p.ta) for p in policies}


def replay_metrics(trace, verdicts, policies, bursts, gamma, interval_seconds, max_ta, horizon_days):
    """Loop reference for ``metrics_at``: the same definitions, one event at a time,
    over the verdicts and policies of a run at ``gamma``."""
    attack_cells, detected = set(), set()
    attack_events = rejected_attack_events = 0
    for event, verdict in zip(trace, verdicts):
        if event.burst_id is None:
            continue
        attack_events += 1
        attack_cells.add((*day_slot(event.time_s, interval_seconds), event.ta))
        if verdict.decision is Decision.REJECT:
            rejected_attack_events += 1
            detected.add(event.burst_id)
    false_cells = flagged_cells(policies) - attack_cells
    fa_intervals = {(day, slot) for day, slot, _ta in false_cells}
    bursts_with_events = sum(1 for b in bursts if b.count > 0)
    intervals = horizon_days * slots_per_day(interval_seconds)
    cells = intervals * (max_ta + 1)
    return Metrics(
        gamma=float(gamma),
        p_detection=len(detected) / bursts_with_events if bursts_with_events else None,
        p_false_alarm=len(fa_intervals) / intervals,
        p_false_alarm_per_cell=len(false_cells) / cells,
        numerators={
            "detected_bursts": len(detected),
            "false_alarm_intervals": len(fa_intervals),
            "false_alarm_cells": len(false_cells),
            "rejected_attack_events": rejected_attack_events,
        },
        denominators={
            "bursts": bursts_with_events,
            "intervals": intervals,
            "cells": cells,
            "attack_events": attack_events,
        },
    )


def build_trace_rows(config, seed, days, include_attacks=True):
    """Reference for ``traffic.build_trace``: the trace assembled device by
    device and burst by burst from the same substreams, each burst cut at the
    horizon, bursts numbered by (start, adversary) and the events sorted by
    (time, device_id, burst_id). Returns ``(trace, bursts, layout)``."""
    horizon_s = float(days) * SECONDS_PER_DAY
    layout = derive_layout(config, seed, include_attacks)
    rows = []  # (time_s, device_id, burst_id, ta): tuple order is the sort order
    for dev in layout.legit:
        times = gen_legit_events(config.legit, horizon_s, substream(seed, _STREAM_LEGIT_TRAFFIC, dev.device_id))
        rows += [(t, dev.device_id, -1, dev.ta) for t in times.tolist()]
    volleys = []  # (start, adversary index, times), one per burst
    for j in range(len(layout.adversaries)):
        starts, times = gen_attack_bursts(config.attack, horizon_s, substream(seed, _STREAM_ATTACK_TRAFFIC, j))
        volleys += [(start, j, row) for start, row in zip(starts.tolist(), times.tolist())]
    bursts = []
    for burst_id, (start, j, times) in enumerate(sorted(volleys, key=lambda v: v[:2])):
        adversary = layout.adversaries[j]
        kept = [t for t in times if t < horizon_s]
        rows += [(t, adversary.device_id, burst_id, adversary.ta) for t in kept]
        bursts.append(Burst(burst_id, adversary.device_id, start, config.attack.burst_window_s, len(kept)))
    rows.sort()
    time_s, device_id, burst_id, ta = zip(*rows) if rows else ([], [], [], [])
    return Trace(time_s, device_id, ta, burst_id), bursts, layout


def bits(trace: Trace, verdicts: Verdicts | None = None) -> list[tuple]:
    """Every column's dtype and raw bytes, so equal means equal bit for bit."""
    arrays = [trace.time_s, trace.device_id, trace.ta, trace.burst_id]
    if verdicts is not None:
        arrays += [verdicts.rejected, verdicts.anomaly]
    return [(a.dtype, a.tobytes()) for a in arrays]


def read_trace_rows(path):
    """Reference reader: one ``_parse_record`` and one row per line, with
    the ``path:line`` errors ``read_trace`` must raise. It shares neither the
    chunk parse nor the line loop of ``read_trace``, which builds no rows."""
    rows = []
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
    return Trace(*columns[:4]), Verdicts(*columns[4:])


def write_trace_rows(path, trace, verdicts):
    """Reference writer: one f-string per row, as ``write_trace`` wrote before
    it formatted whole columns."""
    if len(verdicts) != len(trace):
        raise ValueError("verdicts must align one-to-one with events")
    columns = [trace.time_s.tolist(), trace.device_id.tolist(), trace.ta.tolist(), trace.burst_id.tolist()]
    columns += [verdicts.rejected.tolist(), map(_json_float, verdicts.anomaly.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for time_s, device_id, ta, burst_id, rejected, anomaly in zip(*columns):
            label = '"legit"' if burst_id < 0 else f'"attack","burst_id":{burst_id}'
            verdict = "reject" if rejected else "accept"
            fh.write(f'{{"time_s":{time_s!r},"device_id":{device_id},"ta":{ta},"label":{label},"verdict":"{verdict}","anomaly":{anomaly}}}\n')


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps`` writes it: ``repr``, or Infinity and NaN."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the code under test once ``seconds`` have
    passed, so that a read that blocks (on a FIFO with no writer left, say)
    fails its test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# reading from a FIFO or from /dev/fd/N of a pipe needs both
needs_pipes = pytest.mark.skipif(not (hasattr(os, "mkfifo") and os.path.isdir("/dev/fd")), reason="no FIFOs or /dev/fd")


@contextlib.contextmanager
def piped(kind: str, tmp_path, data: bytes):
    """A path that gives ``data`` once and cannot seek: a FIFO that a writer
    process opens and fills (``kind="fifo"``; the writer is killed and
    reaped on exit), or ``/dev/fd/N`` of the read end of a pipe that holds
    ``data`` and whose write end is closed (``kind="pipe"``). For a pipe,
    ``data`` is written before anything reads it, so it must fit in the
    pipe's buffer (64 KiB on Linux); a write that does not fit raises
    ``BlockingIOError`` instead of blocking."""
    if kind == "fifo":
        source, fifo = tmp_path / "fifo-source", tmp_path / "fifo"
        source.write_bytes(data)
        os.mkfifo(fifo)
        copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
        writer = subprocess.Popen([sys.executable, "-c", copy, source, fifo])
        try:
            yield fifo
        finally:
            writer.kill()
            writer.wait()
        return
    read_fd, write_fd = os.pipe()
    try:
        os.set_blocking(write_fd, False)
        with open(write_fd, "wb", buffering=0) as writer:
            if writer.write(data) != len(data):
                raise BlockingIOError(f"{len(data)} bytes do not fit in the pipe's buffer")
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
