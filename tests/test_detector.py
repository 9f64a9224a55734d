import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormsim import (
    Decision,
    DetectorConfig,
    DetectorState,
    Policy,
    RsrEvent,
    Trace,
    Verdict,
    anomaly_score,
    build_score_cache,
    on_rsr,
)
from stormsim.core import cell_keys
from stormsim.detector import score_events

from conftest import make_profile


def attack(t, ta, burst=0, device=50):
    return RsrEvent(time_s=t, device_id=device, ta=ta, burst_id=burst)


class TestAnomalyScore:
    def test_direct_arithmetic(self):
        assert anomaly_score(10, 4.0, 2.0, 1.0) == 3.0

    def test_zero_when_count_equals_mean(self):
        for std in (0.0, 0.5, 2.0):
            assert anomaly_score(4, 4.0, std, 1.0) == 0.0

    def test_sigma_floor_at_zero_std(self):
        assert anomaly_score(105, 5.0, 0.0, 1.0) == 100.0

    def test_floor_only_engages_below_floor(self):
        assert anomaly_score(10, 0.0, 4.0, 1.0) == 2.5
        assert anomaly_score(10, 0.0, 0.25, 1.0) == 10.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            anomaly_score(-1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            anomaly_score(1, 0.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            anomaly_score(1, 0.0, 1.0, 0.0)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    )
    def test_strictly_increasing_in_count(self, count, mean, std):
        assert anomaly_score(count + 1, mean, std, 1.0) > anomaly_score(count, mean, std, 1.0)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    )
    def test_non_increasing_in_std_above_mean(self, excess, std_a, std_b):
        # for counts at or above the mean, widening sigma cannot raise the score
        mean = 5.0
        count = int(mean) + excess
        lo, hi = sorted((std_a, std_b))
        assert anomaly_score(count, mean, hi, 1.0) <= anomaly_score(count, mean, lo, 1.0)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=8.0, allow_nan=False),
    )
    def test_scale_property(self, count, mean, std, k):
        # multiplying the excess (X - mu) by k multiplies the score by k
        base = anomaly_score(count, mean, std, 1.0)
        scaled = (k * (count - mean)) / max(std, 1.0)
        assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-12)


class TestOnRsr:
    def test_first_event_in_fresh_slot(self):
        mean = np.full((288, 11), 4.0)
        std = np.full((288, 11), 2.0)
        profile = make_profile(mean=mean, std=std)
        state = DetectorState()
        verdict = on_rsr(
            RsrEvent(time_s=0.0, device_id=0, ta=3),
            profile,
            DetectorConfig(gamma=6.5),
            state,
        )
        assert verdict.anomaly == (1 - 4.0) / 2.0 == -1.5
        assert verdict.decision is Decision.ACCEPT

    def test_burst_sequence_rejects_from_crossing_event(self):
        # silent cell (mu=0, sigma=0, floor 1): scores are 1, 2, 3, ...
        # gamma=6.5 => event 7 scores 7, crosses, and is itself rejected
        profile = make_profile()
        config = DetectorConfig(gamma=6.5)
        state = DetectorState()
        verdicts = [
            on_rsr(attack(10.0 + 0.01 * i, ta=5, burst=0), profile, config, state)
            for i in range(100)
        ]
        assert [v.anomaly for v in verdicts] == [float(i + 1) for i in range(100)]
        decisions = [v.decision for v in verdicts]
        assert decisions[:6] == [Decision.ACCEPT] * 6
        assert decisions[6:] == [Decision.REJECT] * 94
        assert state.flagged == {5}
        assert len(state.policy_log) == 1
        policy = state.policy_log[0]
        assert (policy.day, policy.slot_of_day, policy.ta) == (0, 0, 5)
        assert policy.issued_at_s == pytest.approx(10.06)

    def test_infinite_gamma_accepts_everything(self):
        profile = make_profile()
        config = DetectorConfig(gamma=float("inf"))
        state = DetectorState()
        for i in range(50):
            verdict = on_rsr(attack(1.0 + i * 0.01, ta=2, burst=0), profile, config, state)
            assert verdict.decision is Decision.ACCEPT
        assert state.flagged == set() and state.policy_log == []

    def test_flag_clears_at_interval_boundary(self):
        profile = make_profile()
        config = DetectorConfig(gamma=0.5)
        state = DetectorState()
        on_rsr(RsrEvent(time_s=5.0, device_id=0, ta=1), profile, config, state)
        assert state.flagged == {1}
        verdict = on_rsr(
            RsrEvent(time_s=301.0, device_id=0, ta=1), profile, config, state
        )
        # fresh interval: count restarts at 1, flag from slot 0 is gone but
        # the first event re-crosses gamma=0.5 and is rejected again
        assert verdict.anomaly == 1.0
        assert state.slot == (0, 1)
        assert len(state.policy_log) == 2

    def test_skipping_empty_slots_is_silent(self):
        profile = make_profile()
        config = DetectorConfig(gamma=6.5)
        state = DetectorState()
        on_rsr(RsrEvent(time_s=5.0, device_id=0, ta=1), profile, config, state)
        on_rsr(RsrEvent(time_s=3000.0, device_id=0, ta=1), profile, config, state)
        assert state.slot == (0, 10)
        assert state.counts == {1: 1}
        assert state.policy_log == []

    def test_time_going_backwards_rejected(self):
        profile = make_profile()
        config = DetectorConfig(gamma=6.5)
        state = DetectorState()
        on_rsr(RsrEvent(time_s=600.0, device_id=0, ta=1), profile, config, state)
        with pytest.raises(ValueError, match="sorted"):
            on_rsr(RsrEvent(time_s=5.0, device_id=0, ta=1), profile, config, state)

    def test_time_going_backwards_inside_one_interval_rejected(self):
        profile = make_profile()
        config = DetectorConfig(gamma=1.0)
        state = DetectorState()
        assert on_rsr(RsrEvent(time_s=100.0, device_id=0, ta=1), profile, config, state).decision is Decision.ACCEPT
        with pytest.raises(ValueError, match="sorted"):
            on_rsr(RsrEvent(time_s=50.0, device_id=0, ta=1), profile, config, state)
        assert state.counts == {1: 1} and state.policy_log == []

    def test_equal_times_allowed(self):
        profile = make_profile()
        config = DetectorConfig(gamma=6.5)
        state = DetectorState()
        for _ in range(3):
            on_rsr(RsrEvent(time_s=300.0, device_id=0, ta=1), profile, config, state)
        assert state.counts == {1: 3} and state.time_s == 300.0

    def test_fresh_state(self):
        state = DetectorState()
        assert state.slot is None and state.counts == {} and state.flagged == set() and state.policy_log == []
        on_rsr(RsrEvent(time_s=0.0, device_id=0, ta=2), make_profile(), DetectorConfig(gamma=6.5), state)
        assert state.slot == (0, 0) and state.counts == {2: 1}

    def test_forward_rollover_clears_counts_and_flags(self):
        profile = make_profile()
        config = DetectorConfig(gamma=1.5)
        state = DetectorState()
        for t in (10.0, 20.0):
            on_rsr(RsrEvent(time_s=t, device_id=0, ta=3), profile, config, state)
        on_rsr(RsrEvent(time_s=30.0, device_id=0, ta=4), profile, config, state)
        assert state.counts == {3: 2, 4: 1} and state.flagged == {3}
        verdict = on_rsr(RsrEvent(time_s=600.0, device_id=0, ta=4), profile, config, state)
        assert state.slot == (0, 2)
        assert state.counts == {4: 1} and state.flagged == set()
        assert verdict == Verdict(Decision.ACCEPT, 1.0)

    def test_day_boundary_is_forward(self):
        profile = make_profile()
        config = DetectorConfig(gamma=1.5)
        state = DetectorState()
        for t in (86100.0, 86399.0):
            on_rsr(RsrEvent(time_s=t, device_id=0, ta=2), profile, config, state)
        assert state.slot == (0, 287) and state.flagged == {2}
        verdict = on_rsr(RsrEvent(time_s=86400.0, device_id=0, ta=2), profile, config, state)
        assert state.slot == (1, 0)
        assert state.counts == {2: 1} and state.flagged == set()
        assert verdict == Verdict(Decision.ACCEPT, 1.0)

    @pytest.mark.parametrize(
        "time_s, day, slot",
        # 90000 - 86400 = 3600 s into day 1, 3600 / 300 = slot 12
        [(0.0, 0, 0), (86399.9, 0, 287), (90000.0, 1, 12)],
    )
    def test_policy_names_its_day_and_slot(self, time_s, day, slot):
        state = DetectorState()
        on_rsr(RsrEvent(time_s=time_s, device_id=0, ta=6), make_profile(), DetectorConfig(gamma=0.5), state)
        assert state.slot == (day, slot)
        assert state.policy_log == [Policy(ta=6, day=day, slot_of_day=slot, issued_at_s=time_s)]

    def test_ta_outside_profile_rejected(self):
        profile = make_profile(max_ta=3)
        state = DetectorState()
        with pytest.raises(ValueError, match="profile range"):
            on_rsr(
                RsrEvent(time_s=0.0, device_id=0, ta=4),
                profile,
                DetectorConfig(gamma=1.0),
                state,
            )

    def test_negative_ta_rejected(self):
        # a row is a plain tuple, so a negative TA reaches on_rsr; unchecked
        # it would index the profile's last column
        state = DetectorState()
        with pytest.raises(ValueError, match=r"event TA -1 outside profile range 0\.\.3"):
            on_rsr(RsrEvent(time_s=0.0, device_id=0, ta=-1), make_profile(max_ta=3), DetectorConfig(gamma=-1.0), state)
        assert state == DetectorState()

    @pytest.mark.parametrize(
        "bad", [3.0, True, False, np.float64(3.0), np.bool_(True), "3"],
        ids=["float", "True", "False", "np.float64", "np.bool_", "str"],
    )
    def test_non_integer_ta_rejected_before_state_changes(self, bad):
        profile, config, state = make_profile(), DetectorConfig(gamma=-1.0), DetectorState()
        on_rsr(RsrEvent(time_s=1.0, device_id=0, ta=3), profile, config, state)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match="event TA must be an integer, got"):
            on_rsr(RsrEvent(time_s=400.0, device_id=0, ta=bad), profile, config, state)
        assert state == before

    @pytest.mark.parametrize("make", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_ta_is_read_as_int(self, make):
        profile, config = make_profile(), DetectorConfig(gamma=0.5)
        plain, numpy_state = DetectorState(), DetectorState()
        for time_s in (1.0, 2.0, 400.0):
            expected = on_rsr(RsrEvent(time_s=time_s, device_id=0, ta=3), profile, config, plain)
            assert on_rsr(RsrEvent(time_s=time_s, device_id=0, ta=make(3)), profile, config, numpy_state) == expected
        assert numpy_state == plain
        assert all(type(policy.ta) is int for policy in numpy_state.policy_log)

    @pytest.mark.parametrize("bad", [-1.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bad_time_rejected(self, bad):
        state = DetectorState()
        with pytest.raises(ValueError, match="event time must be finite and non-negative"):
            on_rsr(RsrEvent(time_s=bad, device_id=0, ta=1), make_profile(), DetectorConfig(gamma=-1.0), state)
        assert state == DetectorState()

    def test_replay_is_deterministic(self):
        profile = make_profile()
        events = [attack(1.0 + 0.05 * i, ta=3, burst=0) for i in range(40)]

        def replay():
            state = DetectorState()
            return [on_rsr(e, profile, DetectorConfig(gamma=4.0), state) for e in events]

        assert replay() == replay()


class TestDetectorConfig:
    def test_sigma_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(gamma=1.0, sigma_floor=0.0)

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma must not be NaN"):
            DetectorConfig(gamma=float("nan"))


class TestScoreEvents:
    """The batch kernel's cells: the distinct keys ascending and each event's index into them."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 2 * 86400.0, exclude_max=True), st.integers(0, 10)), max_size=60))
    def test_keys_ascend_and_index_gives_each_events_cell(self, rows):
        rows.sort()
        times = np.array([t for t, _ in rows], float)
        tas = np.array([ta for _, ta in rows], np.int64)
        keys, index, scores = score_events(times, tas, make_profile(), 1.0, 2)
        assert np.all(keys[1:] > keys[:-1])
        assert np.array_equal(keys[index], cell_keys(times, tas, 300, 10, 2))
        assert scores.size == times.size

    @pytest.mark.parametrize(
        "cells, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
    )
    def test_index_dtype_is_the_smallest_that_indexes_the_keys(self, cells, dtype):
        # TA varies fastest and every cell gets two events, so the keys are 0 .. cells - 1
        slot_ta = np.repeat(np.arange(cells), 2)
        times, tas = (slot_ta // 256) * 300.0, slot_ta % 256
        keys, index, _scores = score_events(times, tas, make_profile(max_ta=255), 1.0, 1)
        assert index.dtype == dtype
        assert np.array_equal(keys, np.arange(cells))
        assert np.array_equal(index, slot_ta)

    @pytest.mark.parametrize("floor", [0.0, -1.0, float("nan")])
    def test_floor_must_be_positive(self, floor):
        trace = Trace([1.0], [0], [0], [-1])
        with pytest.raises(ValueError, match=r"^sigma_floor must be positive, got"):
            build_score_cache(trace, make_profile(), floor, 1)

    def test_empty_trace_gives_three_empty_arrays(self):
        keys, index, scores = score_events(np.empty(0), np.empty(0, np.int64), make_profile(), 1.0, 1)
        assert keys.size == index.size == scores.size == 0
