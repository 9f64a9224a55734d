import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormsim import (
    AttackSpec,
    Label,
    LegitTrafficSpec,
    ScenarioConfig,
    Verdicts,
    build_trace,
    diurnal_rate,
    gen_attack_bursts,
    gen_legit_events,
    write_json,
    write_trace,
)
from stormsim.traffic import substream

from conftest import bits, build_trace_rows

DAY = 86400.0


class TestDiurnalRate:
    def test_midnight_trough(self):
        assert diurnal_rate(0.0, LegitTrafficSpec()) == pytest.approx(3.25)

    def test_noon_peak(self):
        assert diurnal_rate(43200.0, LegitTrafficSpec()) == pytest.approx(6.75)

    def test_quarter_day_is_base(self):
        assert diurnal_rate(21600.0, LegitTrafficSpec()) == pytest.approx(5.0)

    def test_wraps_across_days(self):
        spec = LegitTrafficSpec()
        assert diurnal_rate(3 * DAY + 43200.0, spec) == pytest.approx(diurnal_rate(43200.0, spec))

    def test_array_input(self):
        rates = diurnal_rate(np.array([0.0, 43200.0]), LegitTrafficSpec())
        assert rates == pytest.approx([3.25, 6.75])

    def test_positive_everywhere(self):
        spec = LegitTrafficSpec()
        times = np.linspace(0, DAY, 10_001)
        assert np.all(diurnal_rate(times, spec) > 0)


class TestLegitGeneration:
    def test_zero_horizon(self):
        assert gen_legit_events(LegitTrafficSpec(), 0.0, np.random.default_rng(0)).size == 0

    def test_homogeneous_count_within_4_sigma(self):
        # amplitude 0, 5/h over 20 days: Poisson mean 2400, sigma ~ 49
        spec = LegitTrafficSpec(diurnal_amplitude=0.0)
        events = gen_legit_events(spec, 20 * DAY, np.random.default_rng(101))
        assert abs(len(events) - 2400) <= 4 * math.sqrt(2400)

    def test_modulated_count_within_4_sigma(self):
        # the cosine integrates to zero over whole days, mean stays 2400
        events = gen_legit_events(LegitTrafficSpec(), 20 * DAY, np.random.default_rng(55))
        assert abs(len(events) - 2400) <= 4 * math.sqrt(2400)

    def test_event_fields(self):
        times = gen_legit_events(LegitTrafficSpec(), 2 * DAY, np.random.default_rng(1))
        assert times.dtype == np.float64 and times.size > 0
        assert np.all(np.diff(times) >= 0.0)
        assert np.all((times >= 0.0) & (times < 2 * DAY))

    def test_thinning_matches_cosine_profile(self):
        # pooled over 50 days, hourly band rates must track the law within 5%
        spec = LegitTrafficSpec()
        rng = np.random.default_rng(2024)
        tod = []
        for _device in range(20):
            tod.extend(gen_legit_events(spec, 50 * DAY, rng) % DAY)
        counts, _edges = np.histogram(tod, bins=24, range=(0.0, DAY))
        for hour, count in enumerate(counts):
            center = (hour + 0.5) * 3600.0
            expected = 20 * 50 * diurnal_rate(center, spec)
            assert abs(count - expected) / expected < 0.05


class TestAttackGeneration:
    def test_zero_horizon(self):
        starts, times = gen_attack_bursts(AttackSpec(), 0.0, np.random.default_rng(0))
        assert starts.size == 0 and times.shape == (0, 100)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gen_attack_bursts(AttackSpec(), -1.0, np.random.default_rng(0))

    def test_burst_count_within_4_sigma(self):
        # 3 per day over 20 days: Poisson mean 60, sigma ~ 7.75
        starts, _times = gen_attack_bursts(AttackSpec(), 20 * DAY, np.random.default_rng(8))
        assert abs(starts.size - 60) <= 4 * math.sqrt(60)

    def test_rows_are_sorted_full_width_and_inside_their_window(self):
        starts, times = gen_attack_bursts(AttackSpec(), 20 * DAY, np.random.default_rng(9))
        assert starts.size and times.shape == (starts.size, 100)
        assert np.all(np.diff(starts) >= 0.0) and np.all(np.diff(times, axis=1) >= 0.0)
        assert np.all((starts[:, None] <= times) & (times <= starts[:, None] + 5.0))

    def test_rows_crossing_the_horizon_keep_full_width(self):
        # dense onsets in a tiny horizon force windows across the edge; build_trace cuts them
        spec = AttackSpec(bursts_per_day=86400.0, rsrs_per_burst=50, burst_window_s=5.0)
        starts, times = gen_attack_bursts(spec, 10.0, np.random.default_rng(4))
        assert np.all(starts < 10.0) and times.shape == (starts.size, 50)
        assert np.any(times >= 10.0)


class TestBuildTrace:
    def test_empty_scenario(self):
        config = ScenarioConfig(
            legit=LegitTrafficSpec(device_count=0), attack=AttackSpec(adversary_count=0)
        )
        events, bursts, layout = build_trace(config, seed=1, days=2)
        assert len(events) == 0 and bursts == []
        assert layout.legit == () and layout.adversaries == ()

    def test_sorted_and_deterministic(self, small_config):
        events_a, bursts_a, layout_a = build_trace(small_config, seed=5, days=2)
        events_b, bursts_b, layout_b = build_trace(small_config, seed=5, days=2)
        assert list(events_a) == list(events_b) and bursts_a == bursts_b and layout_a == layout_b
        keys = [(e.time_s, e.device_id) for e in events_a]
        assert keys == sorted(keys)
        events_c, _, _ = build_trace(small_config, seed=6, days=2)
        assert list(events_c) != list(events_a)

    def test_label_soundness(self, small_config):
        events, bursts, _ = build_trace(small_config, seed=5, days=2)
        by_id = {b.burst_id: b for b in bursts}
        for event in events:
            if event.label is Label.ATTACK:
                burst = by_id[event.burst_id]
                assert burst.start_s <= event.time_s <= burst.start_s + burst.window_s
            else:
                assert event.burst_id is None

    def test_ta_is_stable_per_device(self, small_config):
        events, _bursts, layout = build_trace(small_config, seed=5, days=2)
        expected = {d.device_id: d.ta for d in layout.legit + layout.adversaries}
        seen: dict[int, set] = {}
        for event in events:
            seen.setdefault(event.device_id, set()).add(event.ta)
        for device_id, tas in seen.items():
            assert tas == {expected[device_id]}

    def test_attack_event_total_matches_burst_counts(self, small_config):
        events, bursts, _ = build_trace(small_config, seed=5, days=2)
        n_attack = sum(1 for e in events if e.label is Label.ATTACK)
        assert n_attack == sum(b.count for b in bursts)
        assert [b.burst_id for b in bursts] == list(range(len(bursts)))

    def test_truncation_at_horizon(self):
        # hour-long windows at 48 bursts a day: the bursts of the last hour cross the horizon
        config = ScenarioConfig(
            legit=LegitTrafficSpec(device_count=2),
            attack=AttackSpec(adversary_count=3, bursts_per_day=48.0, rsrs_per_burst=20, burst_window_s=3600.0),
        )
        trace, bursts, _ = build_trace(config, seed=42, days=1)
        assert any(b.count < 20 for b in bursts)
        for burst in bursts:
            times = trace.time_s[trace.burst_id == burst.burst_id]
            assert np.all((burst.start_s <= times) & (times < min(burst.start_s + burst.window_s, DAY)))
            assert times.size == burst.count

    def test_adversary_ids_follow_legit_ids(self, small_config):
        _events, _bursts, layout = build_trace(small_config, seed=5, days=2)
        device_count = small_config.legit.device_count
        assert [d.device_id for d in layout.adversaries] == [device_count, device_count + 1]

    def test_legit_streams_unchanged_by_adversary_count(self, small_config):
        more = replace(small_config, attack=replace(small_config.attack, adversary_count=4))
        events_a, _, _ = build_trace(small_config, seed=5, days=2)
        events_b, _, _ = build_trace(more, seed=5, days=2)
        legit_a = [e for e in events_a if e.label is Label.LEGIT]
        legit_b = [e for e in events_b if e.label is Label.LEGIT]
        assert legit_a == legit_b

    def test_clean_build_has_no_adversaries(self, small_config):
        events, bursts, layout = build_trace(small_config, seed=5, days=2, include_attacks=False)
        assert bursts == [] and layout.adversaries == ()
        assert all(e.label is Label.LEGIT for e in events)

    def test_jsonl_bytes_deterministic(self, small_config, tmp_path):
        events, _, _ = build_trace(small_config, seed=5, days=2)
        verdicts = Verdicts(events.attack, events.time_s % 7.0)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(path_a, events, verdicts)
        write_trace(path_b, events, verdicts)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_substreams_are_independent(self):
        a = substream(1, 2, 3).random(4)
        b = substream(1, 2, 3).random(4)
        c = substream(1, 2, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@st.composite
def trace_configs(draw):
    """A small scenario: up to 5 legit devices and 4 adversaries, up to 2,000
    bursts a day of 1 to 20 RSRs, windows up to an hour, so that bursts often
    cross the horizon."""
    return ScenarioConfig(
        legit=LegitTrafficSpec(device_count=draw(st.integers(0, 5))),
        attack=AttackSpec(
            adversary_count=draw(st.integers(0, 4)),
            bursts_per_day=draw(st.floats(0.5, 2000.0)),
            rsrs_per_burst=draw(st.integers(1, 20)),
            burst_window_s=draw(st.sampled_from((0.5, 5.0, 3600.0))),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(trace_configs(), st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_build_trace_equals_row_by_row_assembly(config, seed, days, include_attacks):
    trace, bursts, layout = build_trace(config, seed=seed, days=days, include_attacks=include_attacks)
    ref_trace, ref_bursts, ref_layout = build_trace_rows(config, seed, days, include_attacks)
    assert bits(trace) == bits(ref_trace)
    assert bursts == ref_bursts
    assert layout == ref_layout


class TestBurstJson:
    def test_schema(self, small_config, tmp_path):
        import json

        _events, bursts, _ = build_trace(small_config, seed=5, days=2)
        path = tmp_path / "bursts.json"
        write_json(path, list(map(asdict, bursts)))
        records = json.loads(path.read_text())
        assert len(records) == len(bursts)
        for record, burst in zip(records, bursts):
            assert list(record) == ["burst_id", "adversary_id", "start_s", "window_s", "count"]
            assert record["count"] == burst.count
