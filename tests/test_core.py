import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stormsim import (
    Decision,
    Label,
    RsrEvent,
    SlotIndex,
    Verdict,
    read_trace,
    slot_of,
    slots_per_day,
    time_of_day,
    write_trace,
)

sim_times = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)


class TestSlotArithmetic:
    def test_slots_per_day_default_interval(self):
        assert slots_per_day(300) == 288

    @pytest.mark.parametrize("bad", [0, -300, 299, 7, 86401])
    def test_interval_must_divide_day(self, bad):
        with pytest.raises(ValueError):
            slots_per_day(bad)

    def test_day_start(self):
        assert slot_of(0.0, 300) == SlotIndex(0, 0)

    def test_last_slot_of_day(self):
        assert slot_of(86399.9, 300) == SlotIndex(0, 287)

    def test_into_second_day(self):
        # 90000 - 86400 = 3600 s into day 1, 3600 / 300 = slot 12
        assert slot_of(90000.0, 300) == SlotIndex(1, 12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            slot_of(-1.0, 300)
        with pytest.raises(ValueError):
            time_of_day(-0.5)

    def test_surjective_over_a_day(self):
        seen = {slot_of(s * 300 + 0.5, 300) for s in range(288)}
        assert seen == {SlotIndex(0, s) for s in range(288)}

    @given(st.lists(sim_times, min_size=2, max_size=50))
    def test_monotone_in_time(self, times):
        times.sort()
        slots = [slot_of(t, 300) for t in times]
        assert slots == sorted(slots)

    @given(sim_times)
    def test_time_of_day_in_range(self, t):
        tod = time_of_day(t)
        assert 0.0 <= tod < 86400.0

    @given(sim_times, st.sampled_from([60, 300, 900, 3600, 86400]))
    def test_slot_consistent_with_time_of_day(self, t, interval):
        slot = slot_of(t, interval)
        assert 0 <= slot.slot_of_day < slots_per_day(interval)
        assert slot.day == int(t // 86400)


class TestRsrEvent:
    def test_attack_requires_burst_id(self):
        with pytest.raises(ValueError):
            RsrEvent(time_s=1.0, device_id=0, ta=0, label=Label.ATTACK)

    def test_legit_forbids_burst_id(self):
        with pytest.raises(ValueError):
            RsrEvent(time_s=1.0, device_id=0, ta=0, label=Label.LEGIT, burst_id=3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RsrEvent(time_s=-1.0, device_id=0, ta=0, label=Label.LEGIT)

    def test_valid_events(self):
        RsrEvent(time_s=0.0, device_id=0, ta=0, label=Label.LEGIT)
        RsrEvent(time_s=5.0, device_id=2, ta=7, label=Label.ATTACK, burst_id=0)


event_strategy = st.builds(
    lambda t, dev, ta, attack, burst: RsrEvent(
        time_s=t,
        device_id=dev,
        ta=ta,
        label=Label.ATTACK if attack else Label.LEGIT,
        burst_id=burst if attack else None,
    ),
    sim_times,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=200),
    st.booleans(),
    st.integers(min_value=0, max_value=500),
)


class TestTraceSerialization:
    @given(events=st.lists(event_strategy, max_size=30))
    def test_round_trip_events(self, events):
        import pathlib
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, events)
            loaded, verdicts = read_trace(path)
            assert loaded == events
            assert verdicts is None
            first = path.read_bytes()
            write_trace(path, loaded)
            assert path.read_bytes() == first

    def test_round_trip_with_verdicts(self, tmp_path):
        events = [
            RsrEvent(time_s=0.125, device_id=1, ta=3, label=Label.LEGIT),
            RsrEvent(time_s=2.5, device_id=7, ta=9, label=Label.ATTACK, burst_id=4),
        ]
        verdicts = [
            Verdict(decision=Decision.ACCEPT, anomaly=-0.5),
            Verdict(decision=Decision.REJECT, anomaly=7.25),
        ]
        path = tmp_path / "trace.jsonl"
        write_trace(path, events, verdicts)
        loaded_events, loaded_verdicts = read_trace(path)
        assert loaded_events == events
        assert loaded_verdicts == verdicts

    def test_verdict_length_mismatch(self, tmp_path):
        events = [RsrEvent(time_s=0.0, device_id=0, ta=0, label=Label.LEGIT)]
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.jsonl", events, [])

    def test_schema_keys(self, tmp_path):
        events = [RsrEvent(time_s=1.0, device_id=0, ta=2, label=Label.ATTACK, burst_id=9)]
        path = tmp_path / "t.jsonl"
        write_trace(path, events, [Verdict(Decision.REJECT, 8.0)])
        record = json.loads(path.read_text().strip())
        assert list(record) == ["time_s", "device_id", "ta", "label", "burst_id", "verdict", "anomaly"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"ta":0,"label":"legit","oops":1}\n')
        with pytest.raises(ValueError, match="unknown"):
            read_trace(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"label":"legit"}\n')
        with pytest.raises(ValueError, match="missing"):
            read_trace(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":1.0,"device_id":0,"ta":0,"label":"weird"}\n')
        with pytest.raises(ValueError, match="label"):
            read_trace(path)

    @pytest.mark.parametrize(
        "fields",
        [
            '"time_s":1.0,"device_id":0,"ta":0,"label":"attack","burst_id":"3"',
            '"time_s":1.0,"device_id":0,"ta":true,"label":"legit"',
            '"time_s":"1.0","device_id":0,"ta":0,"label":"legit"',
            '"time_s":1.0,"device_id":0,"ta":-1,"label":"legit"',
            '"time_s":NaN,"device_id":0,"ta":0,"label":"legit"',
        ],
    )
    def test_bad_field_type_rejected(self, tmp_path, fields):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time_s":0.5,"device_id":0,"ta":0,"label":"legit"}\n{' + fields + "}\n")
        with pytest.raises(ValueError, match=f"{path}:2: "):
            read_trace(path)

    def test_partial_verdicts_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time_s":1.0,"device_id":0,"ta":0,"label":"legit","verdict":"accept","anomaly":0.0}\n'
            '{"time_s":2.0,"device_id":0,"ta":0,"label":"legit"}\n'
        )
        with pytest.raises(ValueError):
            read_trace(path)
