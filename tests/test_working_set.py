"""Working-set bounds of the steps that scale with the trace.

Each bound is the step's tracemalloc peak in units of one trace-length int64
array (``A``), on a synthetic trace of 2**18 events shaped like the default
eval trace: legit requests spread so that about 0.6 distinct (interval, TA)
cells come per event, and about one in ten events in bursts of 100 RSRs on
one TA. At that size the fixed overheads (profile tables, one write block)
stay near a tenth of ``A``. ``build_trace``'s bounds are in units of 8 bytes
per row of the trace it generates: the default scenario's eval trace, about
2**18 events too, and its training trace, about 360k events.

Scoring also reads the profile, so its bounds hold in one more unit: one
profile table (``T``), on a profile of fine_profile's shape (2,880 slots of
30 s by 205 TA bins, 4.5 MiB a float64 table) scored by a 2-day trace of
12,500 events, which touches about 10k of its 590k cells. There the
trace-length arrays are small beside ``T``, and no step that scores the
trace may build a temporary the size of the profile.
"""

import numpy as np
import pytest

from stormsim import DetectorConfig, ScenarioConfig, ScoringMode, Trace, build_score_cache, build_trace, count_per_interval, run
from stormsim import core
from stormsim.detector import score_events

from conftest import make_profile, traced_peak

EVENTS = 2**18
A = 8 * EVENTS
DAYS, MAX_TA, BURSTS, BURST_RSRS = 7, 102, 250, 100


@pytest.fixture(scope="module")
def scenario():
    """The synthetic trace and a profile of few distinct means and stds."""
    rng = np.random.default_rng(22)
    horizon = DAYS * 86400.0
    legit = EVENTS - BURSTS * BURST_RSRS
    burst_times = rng.random(BURSTS)[:, None] * (horizon - 5.0) + 5.0 * rng.random((BURSTS, BURST_RSRS))
    times = np.concatenate([rng.random(legit) * horizon, burst_times.ravel()])
    burst_tas = rng.integers(0, MAX_TA + 1, BURSTS)
    tas = np.concatenate([rng.integers(0, MAX_TA + 1, legit), np.repeat(burst_tas, BURST_RSRS)])
    bursts = np.concatenate([np.full(legit, -1), np.repeat(np.arange(BURSTS), BURST_RSRS)])
    devices = np.where(bursts < 0, rng.integers(0, 100, EVENTS), 100 + bursts // 50)
    order = np.argsort(times, kind="stable")
    trace = Trace(times[order], devices[order], tas[order], bursts[order])
    shape = (288, MAX_TA + 1)
    profile = make_profile(
        300, MAX_TA, mean=rng.choice((0.0, 0.5, 1.0, 2.5), shape), std=rng.choice((0.0, 0.25, 1.0, 1.75, 3.0), shape)
    )
    return trace, profile


def test_score_events_peak(scenario):
    trace, profile = scenario
    (_keys, index, scores), peak = traced_peak(score_events, trace.time_s, trace.ta, profile, 1.0, DAYS)
    assert index.size == scores.size == EVENTS
    assert peak <= 4.5 * A


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_run_peak(scenario, mode):
    trace, profile = scenario
    report, peak = traced_peak(run, trace, profile, DetectorConfig(gamma=6.5), DAYS, mode)
    assert len(report.verdicts) == EVENTS
    assert peak <= 4.6 * A


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_build_score_cache_peak(scenario, mode):
    trace, profile = scenario
    cache, peak = traced_peak(build_score_cache, trace, profile, 1.0, DAYS, mode)
    assert cache.attack_scores.size == BURSTS * BURST_RSRS
    assert peak <= 4.6 * A


FINE_SHAPE = (2880, 205)  # mu=3 and 30 s intervals, as in fine_profile
T = 8 * FINE_SHAPE[0] * FINE_SHAPE[1]
FINE_DAYS, FINE_LEGIT, FINE_BURSTS = 2, 10_000, 25


@pytest.fixture(scope="module")
def fine_scenario():
    """A 2-day trace of about 12k events and a profile of fine_profile's shape."""
    rng = np.random.default_rng(31)
    horizon = FINE_DAYS * 86400.0
    max_ta = FINE_SHAPE[1] - 1
    burst_times = rng.random(FINE_BURSTS)[:, None] * (horizon - 5.0) + 5.0 * rng.random((FINE_BURSTS, BURST_RSRS))
    times = np.concatenate([rng.random(FINE_LEGIT) * horizon, burst_times.ravel()])
    tas = np.concatenate(
        [rng.integers(0, max_ta + 1, FINE_LEGIT), np.repeat(rng.integers(0, max_ta + 1, FINE_BURSTS), BURST_RSRS)]
    )
    bursts = np.concatenate([np.full(FINE_LEGIT, -1), np.repeat(np.arange(FINE_BURSTS), BURST_RSRS)])
    order = np.argsort(times, kind="stable")
    trace = Trace(times[order], np.zeros(times.size, np.int64), tas[order], bursts[order])
    profile = make_profile(
        30,
        max_ta,
        mean=rng.choice((0.0, 0.5, 1.0, 2.5), FINE_SHAPE),
        std=rng.choice((0.0, 0.25, 1.0, 1.75, 3.0), FINE_SHAPE),
    )
    return trace, profile


def test_fine_profile_score_events_peak(fine_scenario):
    trace, profile = fine_scenario
    (_keys, index, _scores), peak = traced_peak(score_events, trace.time_s, trace.ta, profile, 1.0, FINE_DAYS)
    assert index.size == len(trace)
    assert peak <= 0.25 * T  # it peaks at 0.10, and at 1.09 with the floor taken over the whole std table


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_fine_profile_run_peak(fine_scenario, mode):
    trace, profile = fine_scenario
    report, peak = traced_peak(run, trace, profile, DetectorConfig(gamma=6.5), FINE_DAYS, mode)
    assert len(report.verdicts) == len(trace)
    assert peak <= 0.25 * T


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_fine_profile_build_score_cache_peak(fine_scenario, mode):
    trace, profile = fine_scenario
    cache, peak = traced_peak(build_score_cache, trace, profile, 1.0, FINE_DAYS, mode)
    assert cache.attack_scores.size == FINE_BURSTS * BURST_RSRS
    assert peak <= 0.25 * T


def test_serial_write_trace_peak(scenario, tmp_path, monkeypatch):
    trace, profile = scenario
    verdicts = run(trace, profile, DetectorConfig(gamma=6.5), DAYS).verdicts
    monkeypatch.setattr(core, "SPLIT_ROWS", 2 * EVENTS)  # one process, so the whole write is traced here
    _, peak = traced_peak(core.write_trace, tmp_path / "trace.jsonl", trace, verdicts)
    assert peak <= 3.0 * A


def test_split_write_trace_parent_peak(scenario, tmp_path, monkeypatch):
    # the forked child builds the texts of its own half, so the calling
    # process holds the distinct texts and index columns of its half only
    trace, profile = scenario
    verdicts = run(trace, profile, DetectorConfig(gamma=6.5), DAYS).verdicts
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert core._split_row(EVENTS) < EVENTS
    _, peak = traced_peak(core.write_trace, tmp_path / "trace.jsonl", trace, verdicts)
    assert peak <= 1.5 * A


def test_count_per_interval_peak(scenario):
    trace, _profile = scenario
    table, peak = traced_peak(count_per_interval, trace, 300, MAX_TA, DAYS)
    assert table.sum() == EVENTS
    assert peak <= 2.6 * A


def test_build_trace_peak():
    config = ScenarioConfig()
    (trace, _bursts, _layout), peak = traced_peak(
        lambda: build_trace(config, seed=config.seed_eval, days=config.eval_days)
    )
    assert peak <= 4.3 * 8 * len(trace)  # it peaks at 4.01, and at 4.79 with int64 id columns


def test_training_trace_and_count_peak():
    # stormsim train peaks in count_per_interval with the training trace
    # alive, so the trace's own bytes count: 1.375 x 8 B per row with its id
    # columns narrowed (int8 on this cell), 4 x 8 B with them int64
    config = ScenarioConfig()
    trace = build_trace(config, seed=config.seed_train, days=config.training_days, include_attacks=False)[0]
    own = sum(getattr(trace, name).nbytes for name in ("time_s", "device_id", "ta", "burst_id"))
    table, peak = traced_peak(count_per_interval, trace, config.interval_seconds, config.max_ta, config.training_days)
    assert table.sum() == len(trace)
    assert own + peak <= 4.3 * 8 * len(trace)  # 3.96, and 6.59 with int64 id columns
