import dataclasses
import math

import numpy as np
import pytest

from stormsim import (
    CountAccumulator,
    Label,
    LegitTrafficSpec,
    RsrEvent,
    ScenarioConfig,
    build_trace,
    count_per_interval,
    diurnal_rate,
    load_profile,
    save_profile,
    train,
)
from stormsim.profiler import KpiProfile

from conftest import trace_of


def legit(t, ta, device=0):
    return RsrEvent(time_s=t, device_id=device, ta=ta, label=Label.LEGIT)


def two_pass_moments(values):
    """Independent oracle: plain two-pass mean and sample deviation."""
    k = len(values)
    mean = sum(values) / k
    if k < 2:
        return mean, 0.0
    m2 = sum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(m2 / (k - 1))


class TestCounting:
    def test_empty_trace(self):
        table = count_per_interval(trace_of([]), 300, 5, 2)
        assert table.shape == (2, 288, 6)
        assert table.sum() == 0

    def test_boundary_arithmetic(self):
        trace = trace_of([legit(10.0, 7), legit(200.0, 7), legit(310.0, 7)])
        table = count_per_interval(trace, 300, 10, 1)
        assert table.dtype == np.int64
        assert table[0, 0, 7] == 2
        assert table[0, 1, 7] == 1
        assert table.sum() == 3

    def test_conservation(self, small_config):
        events, _, _ = build_trace(small_config, seed=3, days=2)
        table = count_per_interval(events, 300, 102, 2)
        assert table.sum() == len(events)

    def test_ta_overflow_rejected(self):
        with pytest.raises(ValueError, match="max_ta"):
            count_per_interval(trace_of([legit(1.0, 11)]), 300, 10, 1)

    def test_out_of_horizon_rejected(self):
        with pytest.raises(ValueError, match="within"):
            count_per_interval(trace_of([legit(86400.0, 0)]), 300, 10, 1)


class TestTraining:
    def test_known_sample_std(self):
        # day values {2, 4, 6} -> mean 4, sample std 2
        day_counts = np.zeros((3, 2, 3), dtype=np.int64)
        day_counts[0, 0, 0] = 2
        day_counts[1, 0, 0] = 4
        day_counts[2, 0, 0] = 6
        profile = train(day_counts)
        assert profile.mean[0, 0] == 4.0
        assert profile.std[0, 0] == 2.0
        assert profile.interval_seconds == 43200
        assert profile.max_ta == 2
        assert profile.training_days == 3

    def test_untouched_cell_is_zero(self):
        profile = train(np.zeros((4, 2, 3), dtype=np.int64))
        assert np.all(profile.mean == 0.0) and np.all(profile.std == 0.0)

    def test_single_day_std_is_zero(self):
        rng = np.random.default_rng(0)
        day_counts = rng.integers(0, 20, size=(1, 4, 5))
        profile = train(day_counts)
        assert np.all(profile.std == 0.0)
        assert np.array_equal(profile.mean, day_counts[0].astype(float))

    def test_streaming_equals_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            days = int(rng.integers(1, 12))
            table = rng.poisson(2.0, size=(days, 3, 4))
            profile = train(table)
            for slot in range(3):
                for ta in range(4):
                    mean, std = two_pass_moments([float(v) for v in table[:, slot, ta]])
                    assert profile.mean[slot, ta] == pytest.approx(mean, rel=1e-9, abs=1e-12)
                    assert profile.std[slot, ta] == pytest.approx(std, rel=1e-9, abs=1e-12)

    def test_day_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        table = rng.poisson(3.0, size=(10, 4, 5))
        shuffled = table[rng.permutation(10)]
        a, b = train(table), train(shuffled)
        assert np.allclose(a.mean, b.mean, rtol=1e-9)
        assert np.allclose(a.std, b.std, rtol=1e-9)

    def test_coarse_variance_bound(self):
        rng = np.random.default_rng(6)
        table = rng.integers(0, 30, size=(8, 3, 3))
        profile = train(table)
        bound = float(table.max()) ** 2 * 8
        assert np.all(profile.std**2 <= bound)

    def test_identical_days_give_zero_std(self):
        day = np.arange(12).reshape(3, 4)
        table = np.stack([day] * 5)
        profile = train(table)
        assert np.all(profile.std == 0.0)

    def test_accumulator_shape_guard(self):
        acc = CountAccumulator((2, 3))
        with pytest.raises(ValueError):
            acc.add_day(np.zeros((3, 2)))

    def test_slot_sum_tracks_expected_rate(self):
        # with many training days the slot totals approach
        # device_count * rate(slot) * interval
        config = ScenarioConfig(
            legit=LegitTrafficSpec(device_count=40),
            training_days=60,
            seed_train=77,
        )
        trace, _, _ = build_trace(config, seed=77, days=60, include_attacks=False)
        table = count_per_interval(trace, 300, 102, 60)
        profile = train(table)
        slot_sums = profile.mean.sum(axis=1)
        for slot in (0, 144):  # midnight and noon
            center = (slot + 0.5) * 300.0
            expected = 40 * diurnal_rate(center, config.legit) * 300.0 / 3600.0
            assert abs(slot_sums[slot] - expected) / expected < 0.10


class TestProfileValidation:
    @pytest.mark.parametrize("table, value", [("std", -1.0), ("mean", np.nan), ("std", np.inf)])
    def test_invalid_moment_rejected(self, table, value):
        tables = {"mean": np.zeros((288, 11)), "std": np.zeros((288, 11))}
        tables[table][3, 4] = value
        with pytest.raises(ValueError, match=r"cell \(3, 4\): mean and std must be finite"):
            KpiProfile(interval_seconds=300, max_ta=10, training_days=2, **tables)

    def test_tables_are_read_only_copies(self):
        mean = np.zeros((288, 11))
        profile = KpiProfile(interval_seconds=300, max_ta=10, training_days=2, mean=mean, std=np.zeros((288, 11)))
        mean[3, 4] = -1.0
        assert profile.mean[3, 4] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            profile.mean[3, 4] = -1.0

    def test_table_shape_must_match_metadata(self):
        with pytest.raises(ValueError, match="shape"):
            KpiProfile(
                interval_seconds=300, max_ta=10, training_days=2,
                mean=np.zeros((288, 10)), std=np.zeros((288, 10)),
            )

    @pytest.mark.parametrize("field, value", [("std", np.full((288, 11), -1.0)), ("interval_seconds", 7)])
    def test_fields_cannot_be_assigned(self, field, value):
        profile = KpiProfile(300, 10, 2, np.zeros((288, 11)), np.zeros((288, 11)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(profile, field, value)
        assert profile.interval_seconds == 300 and not profile.std.any()

    @pytest.mark.parametrize(
        "max_ta, training_days, match",
        [(-1, 2, "max_ta must be non-negative"), (0, 0, "training_days must be at least 1"), (-1, 0, "max_ta")],
    )
    def test_bad_metadata_rejected(self, max_ta, training_days, match):
        with pytest.raises(ValueError, match=match):
            KpiProfile(300, max_ta, training_days, np.zeros((288, max_ta + 1)), np.zeros((288, max_ta + 1)))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        mean = rng.random((288, 11)) * (rng.random((288, 11)) < 0.1)
        std = rng.random((288, 11)) * (mean > 0)
        profile = KpiProfile(interval_seconds=300, max_ta=10, training_days=7, mean=mean, std=std)
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.interval_seconds == 300
        assert loaded.max_ta == 10
        assert loaded.training_days == 7
        assert np.array_equal(loaded.mean, profile.mean)
        assert np.array_equal(loaded.std, profile.std)

    def test_default_scenario_metadata_line(self, tmp_path):
        # defaults: T=300, mu=2 over a 2 km cell -> max_ta 102, 30 training days
        profile = KpiProfile(
            interval_seconds=300, max_ta=102, training_days=30,
            mean=np.zeros((288, 103)), std=np.zeros((288, 103)),
        )
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        assert path.read_text().splitlines()[0] == "#interval_seconds=300,max_ta=102,training_days=30"

    def test_empty_profile_file(self, tmp_path):
        profile = KpiProfile(
            interval_seconds=300, max_ta=4, training_days=3,
            mean=np.zeros((288, 5)), std=np.zeros((288, 5)),
        )
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        assert path.read_text() == "#interval_seconds=300,max_ta=4,training_days=3\nslot,ta,mean,std\n"

    def test_single_cell_row_format(self, tmp_path):
        mean = np.zeros((288, 103))
        std = np.zeros((288, 103))
        mean[12, 77] = 3.5
        std[12, 77] = 1.25
        profile = KpiProfile(interval_seconds=300, max_ta=102, training_days=30, mean=mean, std=std)
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#interval_seconds=300,max_ta=102,training_days=30"
        assert lines[1] == "slot,ta,mean,std"
        assert lines[2:] == ["12,77,3.5,1.25"]

    def test_rows_match_per_cell_format(self, tmp_path):
        # About 22k populated cells, several write blocks; some have only a std.
        rng = np.random.default_rng(4)
        mean = rng.random((288, 103)) * (rng.random((288, 103)) < 0.5)
        std = rng.random((288, 103)) * (rng.random((288, 103)) < 0.5)
        profile = KpiProfile(interval_seconds=300, max_ta=102, training_days=30, mean=mean, std=std)
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        cells = np.argwhere((mean != 0.0) | (std != 0.0))
        expected = [f"{slot},{ta},{float(mean[slot, ta])!r},{float(std[slot, ta])!r}" for slot, ta in cells]
        assert path.read_text().split("\n")[2:] == expected + [""]

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("slot,ta,mean,std\n")
        with pytest.raises(ValueError, match="metadata"):
            load_profile(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "#interval_seconds=300,max_ta=10,training_days=2\n"
            "slot,ta,mean,std\n1,2,3.0,0.5\n1,2,4.0,0.5\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_profile(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "#interval_seconds=300,max_ta=10,training_days=2\nslot,ta,mean,std\n1,2,three,0.5\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            load_profile(path)

    @pytest.mark.parametrize("row", ["0,5,1.0,-1.0", "0,5,nan,1.0", "0,5,inf,1.0"])
    def test_invalid_moments_rejected(self, tmp_path, row):
        path = tmp_path / "profile.csv"
        path.write_text(
            f"#interval_seconds=300,max_ta=10,training_days=2\nslot,ta,mean,std\n1,2,3.0,0.5\n{row}\n"
        )
        with pytest.raises(ValueError, match=f"{path}:4: mean and std must be finite and non-negative"):
            load_profile(path)

    def test_out_of_bounds_cell_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "#interval_seconds=300,max_ta=10,training_days=2\nslot,ta,mean,std\n1,11,3.0,0.5\n"
        )
        with pytest.raises(ValueError, match="bounds"):
            load_profile(path)

    @pytest.mark.parametrize(
        "meta, match",
        [
            ("interval_seconds=300,max_ta=10,training_days=0", "training_days must be at least 1"),
            ("interval_seconds=300,max_ta=-1,training_days=2", "max_ta must be non-negative"),
            ("interval_seconds=300,max_ta=-5,training_days=2", "max_ta must be non-negative"),
            ("interval_seconds=7,max_ta=10,training_days=2", "interval_seconds=7"),
        ],
    )
    def test_bad_metadata_rejected_with_path(self, tmp_path, meta, match):
        path = tmp_path / "profile.csv"
        path.write_text(f"#{meta}\nslot,ta,mean,std\n")
        with pytest.raises(ValueError, match=f"^{path}: {match}"):
            load_profile(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("#interval_seconds=300,max_ta=10,training_days=2\nslot;ta;mean;std\n")
        with pytest.raises(ValueError, match="header"):
            load_profile(path)
