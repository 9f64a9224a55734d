"""Batch scoring against the on_rsr replay on random small traces.

``pipeline.run`` in both scoring modes, ``compute_metrics`` and
``build_score_cache`` + ``metrics_at`` in both scoring modes must reproduce
the streaming detector exactly: scores bit for bit, then verdicts, policies,
flagged cells and every metric.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stormsim import (
    SECONDS_PER_DAY,
    Burst,
    DetectorConfig,
    RsrEvent,
    ScoringMode,
    build_score_cache,
    compute_metrics,
    count_per_interval,
    metrics_at,
    run,
)
from stormsim.detector import score_events

from conftest import flagged_cells, interval_end_replay, make_profile, replay, replay_metrics, trace_of

# std values straddle every sigma_floor below, so both sides of the floor occur
MEANS = (0.0, 0.5, 1.0, 2.5)
STDS = (0.0, 0.25, 1.0, 1.75, 3.0)
FLOORS = (0.5, 1.0, 2.0, 5e-324)
GAMMAS = (0.0, 0.5, 1.0, 2.0, 6.5, math.inf)


@st.composite
def scenarios(draw):
    interval = draw(st.sampled_from((300, 3600, 21600, 86400)))
    n_slots = SECONDS_PER_DAY // interval
    max_ta = draw(st.integers(0, 3))
    horizon_days = draw(st.integers(1, 2))
    last_interval = horizon_days * n_slots - 1
    # a few active intervals, so cells collect several events and most slots stay empty
    active = draw(
        st.lists(
            st.one_of(st.just(0), st.just(last_interval), st.integers(0, last_interval)),
            min_size=1,
            max_size=3,
        )
    )
    placements = st.one_of(st.just("start"), st.just("last"), st.floats(0.0, 1.0, exclude_max=True))
    raw = draw(
        st.lists(
            # burst -1 is legit; half the events are, so clean cells often share an interval
            st.tuples(
                st.sampled_from(active),
                placements,
                st.integers(0, max_ta),
                st.one_of(st.just(-1), st.integers(0, 2)),
            ),
            max_size=40,
        )
    )
    events = []
    for index, placement, ta, burst in raw:
        start, end = index * interval, (index + 1) * interval
        if placement == "start":
            time_s = float(start)  # on an interval boundary, a day boundary when index % n_slots == 0
        else:
            # "last" is the last float before the interval end, and before the horizon for the last interval
            fraction = 1.0 if placement == "last" else placement
            time_s = min(start + fraction * interval, math.nextafter(end, 0.0))
        events.append(RsrEvent(time_s=time_s, device_id=0, ta=ta, burst_id=None if burst < 0 else burst))
    events.sort(key=lambda e: e.time_s)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_slots, max_ta + 1)
    profile = make_profile(
        interval_seconds=interval,
        max_ta=max_ta,
        mean=rng.choice(MEANS, size=shape),
        std=rng.choice(STDS, size=shape),
    )
    bursts = [
        Burst(
            burst_id=b,
            adversary_id=0,
            start_s=0.0,
            window_s=5.0,
            count=sum(1 for e in events if e.burst_id == b),
        )
        for b in range(4)  # burst 3 never has events and must not count
    ]
    floor = draw(st.sampled_from(FLOORS))
    gammas = draw(st.lists(st.one_of(st.sampled_from(GAMMAS), st.floats(-2.0, 8.0)), min_size=1, max_size=3))
    return trace_of(events), bursts, profile, horizon_days, floor, gammas


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_batch_paths_equal_on_rsr_replay(scenario):
    trace, bursts, profile, horizon, floor, gammas = scenario
    cache = build_score_cache(trace, profile, floor, horizon)
    end_cache = build_score_cache(trace, profile, floor, horizon, ScoringMode.INTERVAL_END)
    _keys, _index, scores = score_events(trace.time_s, trace.ta, profile, floor, horizon)

    def oracle_metrics(verdicts, policies, gamma):
        return replay_metrics(
            trace, verdicts, policies, bursts, gamma, profile.interval_seconds, profile.max_ta, horizon
        )

    for gamma in gammas:
        config = DetectorConfig(gamma=gamma, sigma_floor=floor)
        verdicts, policies = replay(trace, profile, config)
        replay_scores = np.array([v.anomaly for v in verdicts], dtype=float)
        assert np.array_equal(scores, replay_scores)
        metrics = oracle_metrics(verdicts, policies, gamma)

        per_rsr = run(trace, profile, config, horizon, ScoringMode.PER_RSR)
        assert np.array_equal(per_rsr.verdicts.anomaly, replay_scores)
        assert list(per_rsr.verdicts) == verdicts
        assert per_rsr.policies == policies
        assert flagged_cells(per_rsr.policies) == flagged_cells(policies)
        assert compute_metrics(per_rsr) == metrics
        assert metrics_at(cache, gamma) == metrics

        end_verdicts, end_policies = interval_end_replay(trace, profile, config)
        interval_end = run(trace, profile, config, horizon, ScoringMode.INTERVAL_END)
        assert list(interval_end.verdicts) == end_verdicts
        assert interval_end.policies == end_policies
        assert flagged_cells(interval_end.policies) == flagged_cells(per_rsr.policies)
        end_metrics = oracle_metrics(end_verdicts, end_policies, gamma)
        assert compute_metrics(interval_end) == end_metrics
        assert metrics_at(end_cache, gamma) == end_metrics


def _legit(time_s, ta):
    return RsrEvent(time_s=time_s, device_id=0, ta=ta)


BAD_TRACES = {
    "unsorted": (trace_of([_legit(400.0, 1), _legit(5.0, 1)]), "sorted"),
    "unsorted inside one interval": (trace_of([_legit(100.0, 1), _legit(50.0, 1)]), "sorted"),
    "past horizon": (trace_of([_legit(86400.5, 1)]), "horizon"),
    "TA above max_ta": (trace_of([_legit(5.0, 1), _legit(6.0, 11)]), r"event TA 11 outside profile range 0\.\.10"),
}


SCORERS = {
    "per_rsr": lambda trace, profile: run(trace, profile, DetectorConfig(gamma=1.0), 1),
    "interval_end": lambda trace, profile: run(trace, profile, DetectorConfig(gamma=1.0), 1, ScoringMode.INTERVAL_END),
    "score_cache": lambda trace, profile: build_score_cache(trace, profile, 1.0, 1),
    "score_cache_interval_end": lambda trace, profile: build_score_cache(
        trace, profile, 1.0, 1, ScoringMode.INTERVAL_END
    ),
}


def _count(trace, profile):
    return count_per_interval(trace, profile.interval_seconds, profile.max_ta, 1)


# counting needs no time order, so it meets only the grid's faults
@pytest.mark.parametrize(
    "entry, bad",
    [pytest.param(scorer, bad, id=f"{name}-{bad}") for name, scorer in SCORERS.items() for bad in sorted(BAD_TRACES)]
    + [pytest.param(_count, bad, id=f"count-{bad}") for bad in ("TA above max_ta", "past horizon")],
)
def test_batch_paths_check_inputs_alike(entry, bad):
    trace, match = BAD_TRACES[bad]
    with pytest.raises(ValueError, match=match):
        entry(trace, make_profile())


# on_rsr knows no horizon, so it meets every other fault, with the batch paths' message
@pytest.mark.parametrize("bad", sorted(set(BAD_TRACES) - {"past horizon"}))
def test_messages_match_on_rsr(bad):
    trace, match = BAD_TRACES[bad]
    with pytest.raises(ValueError, match=match):
        replay(trace, make_profile(), DetectorConfig(gamma=1.0))

