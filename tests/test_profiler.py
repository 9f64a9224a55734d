import dataclasses
import math
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stormsim import profiler
from stormsim.core import ROWS_PER_WRITE, SECONDS_PER_DAY, slot_of
from stormsim.profiler import KpiProfile

from conftest import trace_of


def legit(t, ta, device=0):
    return RsrEvent(time_s=t, device_id=device, ta=ta, label=Label.LEGIT)


@st.composite
def counting_cases(draw):
    """A small trace with its interval, max TA and days: events start an
    interval, end one (the last float before the next) or fall inside, and
    one of them may repeat past int8's largest count."""
    interval = draw(st.sampled_from((300, 3600, 21600, 86400)))
    max_ta = draw(st.integers(0, 3))
    days = draw(st.integers(1, 3))
    last_interval = days * (SECONDS_PER_DAY // interval) - 1
    placements = st.one_of(st.just("start"), st.just("last"), st.floats(0.0, 1.0, exclude_max=True))
    raw = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(0), st.just(last_interval), st.integers(0, last_interval)),
                placements,
                st.integers(0, max_ta),
                st.one_of(st.just(1), st.integers(1, 300)),
            ),
            max_size=30,
        )
    )
    events = []
    for index, placement, ta, copies in raw:
        start, end = index * interval, (index + 1) * interval
        if placement == "start":
            time_s = float(start)
        else:
            fraction = 1.0 if placement == "last" else placement
            time_s = min(start + fraction * interval, math.nextafter(end, 0.0))
        events += [legit(time_s, ta)] * copies
    return trace_of(events), interval, max_ta, days


def two_pass_moments(values):
    """Independent oracle: plain two-pass mean and sample deviation."""
    k = len(values)
    mean = sum(values) / k
    if k < 2:
        return mean, 0.0
    m2 = sum((v - mean) ** 2 for v in values)
    return mean, math.sqrt(m2 / (k - 1))


def full_fold(day_counts):
    """Oracle: the CountAccumulator fold over every cell of the table."""
    accumulator = CountAccumulator(day_counts.shape[1:])
    for day in day_counts:
        accumulator.add_day(day)
    return accumulator.mean, accumulator.std()


def assert_bit_identical(profile, tables):
    mean, std = tables
    assert np.array_equal(profile.mean.view(np.int64), mean.view(np.int64))
    assert np.array_equal(profile.std.view(np.int64), std.view(np.int64))


class TestCounting:
    def test_empty_trace(self):
        table = count_per_interval(trace_of([]), 300, 5, 2)
        assert table.shape == (2, 288, 6)
        assert table.sum() == 0

    def test_boundary_arithmetic(self):
        trace = trace_of([legit(10.0, 7), legit(200.0, 7), legit(310.0, 7)])
        table = count_per_interval(trace, 300, 10, 1)
        assert table.dtype == np.int8  # the smallest signed dtype that holds the largest count, 2
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

    @pytest.mark.parametrize("events, dtype", [(0, np.int8), (127, np.int8), (128, np.int16)])
    def test_dtype_holds_the_largest_count(self, events, dtype):
        table = count_per_interval(trace_of([legit(299.5, 3)] * events + [legit(300.0, 3)]), 300, 5, 1)
        assert table.dtype == dtype
        assert table[0, 0, 3] == events and table[0, 1, 3] == 1
        assert table[0, 1, 3] - table[0, 0, 3] == 1 - events  # signed, so a difference never wraps

    @settings(max_examples=150, deadline=None)
    @given(counting_cases())
    def test_matches_bincount_oracle(self, case):
        trace, interval, max_ta, days = case
        n_slots = SECONDS_PER_DAY // interval
        # the keys from the scalar slot arithmetic, counted the wide way
        keys = [
            (slot.day * n_slots + slot.slot_of_day) * (max_ta + 1) + ta
            for slot, ta in zip(map(slot_of, trace.time_s.tolist(), repeat(interval)), trace.ta.tolist())
        ]
        expected = np.bincount(np.array(keys, np.int64), minlength=days * n_slots * (max_ta + 1))
        table = count_per_interval(trace, interval, max_ta, days)
        assert table.shape == (days, n_slots, max_ta + 1)
        assert np.array_equal(table.ravel(), expected)
        assert int(table.sum(dtype=np.int64)) == len(trace)
        assert table.dtype == next(t for t in (np.int8, np.int16) if expected.max(initial=0) <= np.iinfo(t).max)


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

    @pytest.mark.parametrize("days", [1, 2, 7])
    def test_populated_cell_fold_is_bit_identical_to_full_fold(self, days):
        rng = np.random.default_rng(days)
        touched = rng.random((24, 9)) < 0.3  # most cells never see a request
        table = rng.poisson(1.5, size=(days, 24, 9)) * touched
        assert (~table.any(axis=0)).any()
        assert_bit_identical(train(table), full_fold(table))

    def test_populated_cell_fold_of_float_table_is_bit_identical(self):
        rng = np.random.default_rng(3)
        table = rng.random((5, 6, 7)) * (rng.random((6, 7)) < 0.5)
        table[:, 0, 0] = -0.0  # a cell with no counts, only negative zeros
        assert_bit_identical(train(table), full_fold(table))

    @pytest.mark.parametrize("crowded", [False, True])
    def test_narrow_table_trains_bit_identical_to_int64(self, small_config, crowded):
        trace, _, _ = build_trace(small_config, seed=3, days=2)
        if crowded:  # 200 more requests in one cell make the table int16
            trace = trace_of([*trace, *[legit(100_000.0, 4)] * 200])
        table = count_per_interval(trace, 300, 102, 2)
        assert table.dtype == (np.int16 if crowded else np.int8)
        wide = train(table.astype(np.int64))
        assert_bit_identical(train(table), (wide.mean, wide.std))

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

    def test_bytes_match_per_row_format_with_few_distinct_values(self, tmp_path):
        rng = np.random.default_rng(8)
        mean = rng.choice([0.0, 0.5, 1 / 3, 2.0], size=(288, 40))
        std = rng.choice([0.0, 0.25, math.sqrt(2)], size=(288, 40))
        mean[3, 4], std[3, 4] = -0.0, 1.5  # a negative-zero mean keeps its sign
        profile = KpiProfile(interval_seconds=300, max_ta=39, training_days=30, mean=mean, std=std)
        path = tmp_path / "profile.csv"
        save_profile(profile, path)
        cells = np.argwhere((mean != 0.0) | (std != 0.0))
        assert len(cells) > 2 * ROWS_PER_WRITE
        rows = "".join(f"{slot},{ta},{float(mean[slot, ta])!r},{float(std[slot, ta])!r}\n" for slot, ta in cells)
        expected = "#interval_seconds=300,max_ta=39,training_days=30\nslot,ta,mean,std\n" + rows
        assert path.read_bytes() == expected.encode()
        assert "\n3,4,-0.0,1.5\n" in expected

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

    @pytest.mark.parametrize("separator", ["\u2028", "\x85"])
    def test_bad_row_after_unicode_line_separator_keeps_its_line_number(self, tmp_path, separator):
        # only "\n" ends a line; str.splitlines would also break here and report :5
        path = tmp_path / "profile.csv"
        path.write_text(
            f"#interval_seconds=300,max_ta=10,training_days=2\nslot,ta,mean,std\n1,2,3.0,0.5{separator}\n1,3,x,1\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"{path}:4: malformed row '1,3,x,1'"):
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
            # far over the cap: too large to allocate even were it not checked
            (
                "interval_seconds=1,max_ta=1000000000000,training_days=2",
                "a 86400 x 1000000000001 float profile table passes the 1 GiB cap",
            ),
            # "\udcff" is written as the byte 0xff
            ("interval_seconds=300,max_ta=10,training_days=2\udcff", "not valid UTF-8"),
        ],
    )
    def test_bad_metadata_rejected_with_path(self, tmp_path, meta, match):
        path = tmp_path / "profile.csv"
        path.write_bytes(f"#{meta}\nslot,ta,mean,std\n".encode("utf-8", "surrogateescape"))
        with pytest.raises(ValueError, match=f"^{path}: {match}"):
            load_profile(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("#interval_seconds=300,max_ta=10,training_days=2\nslot;ta;mean;std\n")
        with pytest.raises(ValueError, match="header"):
            load_profile(path)


def load_by_lines(path):
    """Oracle: ``load_profile`` with its columnar parse switched off, so the line loop reads every row."""
    with mock.patch.object(profiler, "_read_columns", return_value=False):
        return load_profile(path)


def int_texts(value):
    """Texts ``int`` reads as ``value``: plain, padded, signed, and with an underscore."""
    texts = [str(value), f" {value}", f"+{value} ", f"\t{value}"]
    if value >= 10:
        texts.append(f"{str(value)[0]}_{str(value)[1:]}")
    return st.sampled_from(texts)


def float_texts(value):
    """Texts ``float`` reads as ``value``: repr, exponent forms, padding and a sign."""
    texts = [repr(value), f" {value!r}", f"{value:.17e}", f"{value!r}\t"]
    if math.copysign(1.0, value) > 0:
        texts.append(f"+{value!r}")
    if value.is_integer():
        texts += [f"{int(value)}", f"{int(value)}e0"]
    return st.sampled_from(texts)


@st.composite
def profile_files(draw):
    """A valid profile file: rows in any order, blank and whitespace-only lines, LF or CRLF ends."""
    interval_seconds = draw(st.sampled_from([3600, 7200, 43200]))
    max_ta = draw(st.integers(0, 12))
    n_cells = SECONDS_PER_DAY // interval_seconds * (max_ta + 1)
    cells = draw(st.lists(st.integers(0, n_cells - 1), unique=True, max_size=60))
    if draw(st.booleans()):
        cells.sort()
    moments = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 12.0]), st.floats(0.0, 1e6))
    lines = []
    for cell in cells:
        slot, ta = divmod(cell, max_ta + 1)
        fields = [draw(int_texts(slot)), draw(int_texts(ta)), draw(float_texts(draw(moments))), draw(float_texts(draw(moments)))]
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    head = [f"#interval_seconds={interval_seconds},max_ta={max_ta},training_days=3", "slot,ta,mean,std"]
    return end.join(head + lines) + end * draw(st.booleans()), cells == sorted(cells)


# (bad row, start of the message the line loop raises for it), formatted with
# the free cell the row is placed at, so the row keeps the file's cells ascending
BAD_ROWS = [
    ("{slot},{ta},3.0", "expected 4 fields, got 3"),
    ("{slot},{ta},3.0,0.5,7", "expected 4 fields, got 5"),
    ("{slot},{ta},three,0.5", "malformed row '{slot},{ta},three,0.5'"),
    ("{slot}.0,{ta},3.0,0.5", "malformed row"),
    ("{slot},{ta},3.0,", "malformed row"),
    ("{slot},103,3.0,0.5", r"cell \({slot}, 103\) outside table bounds"),
    ("288,{ta},3.0,0.5", r"cell \(288, {ta}\) outside table bounds"),
    ("-1,{ta},3.0,0.5", r"cell \(-1, {ta}\) outside table bounds"),
    ("99999999999999999999,{ta},3.0,0.5", r"cell \(99999999999999999999, {ta}\) outside table bounds"),
    ("{slot},{ta},nan,0.5", "mean and std must be finite and non-negative"),
    ("{slot},{ta},inf,0.5", "mean and std must be finite and non-negative"),
    ("{slot},{ta},0.5,nan", "mean and std must be finite and non-negative"),
    ("{slot},{ta},3.0,inf", "mean and std must be finite and non-negative"),
    ("{slot},{ta},-1.0,0.5", "mean and std must be finite and non-negative"),
    ("{slot},{ta},3.0,-0.5", "mean and std must be finite and non-negative"),
]
# the second place puts the bad row in the second ROWS_PER_WRITE block
PLACES = [2, ROWS_PER_WRITE + 904]


class TestLoadProfileOracle:
    """``load_profile``'s columnar parse against its line loop."""

    @settings(max_examples=60, deadline=None)
    @given(profile_files())
    def test_columnar_parse_matches_line_loop(self, tmp_path_factory, drawn):
        text, ascending = drawn
        path = tmp_path_factory.mktemp("profile") / "profile.csv"
        path.write_bytes(text.encode())
        fast, slow = load_profile(path), load_by_lines(path)
        assert np.array_equal(fast.mean.view(np.int64), slow.mean.view(np.int64))
        assert np.array_equal(fast.std.view(np.int64), slow.std.view(np.int64))
        # ascending rows are read by the columnar parse itself, not by its fallback
        mean, std = np.zeros(fast.mean.shape), np.zeros(fast.std.shape)
        assert profiler._read_columns(text.splitlines()[2:], mean, std) == ascending
        assert ascending or not (mean.any() or std.any())  # a refused file fills nothing

    @staticmethod
    def write_rows(path, rows_at):
        """A 288 x 103 profile of 5,000 rows at cells 1, 5, 9, ..., with each
        ``{place: row}`` of ``rows_at`` before row ``place``, formatted with
        the free cell ``4 * place - 1``."""
        rows = [f"{cell // 103},{cell % 103},{cell % 7 * 0.5},{cell % 3 * 0.25}" for cell in range(1, 20_000, 4)]
        for place in sorted(rows_at, reverse=True):
            slot, ta = divmod(4 * place - 1, 103)
            rows.insert(place, rows_at[place].format(slot=slot, ta=ta))
        path.write_text("#interval_seconds=300,max_ta=102,training_days=3\nslot,ta,mean,std\n" + "\n".join(rows) + "\n")

    @staticmethod
    def assert_line_loop_error(path, lineno, message):
        with pytest.raises(ValueError, match=f"^{path}:{lineno}: {message}") as fast:
            load_profile(path)
        with pytest.raises(ValueError) as slow:
            load_by_lines(path)
        assert str(fast.value) == str(slow.value)

    @staticmethod
    def assert_same_tables(path):
        fast, slow = load_profile(path), load_by_lines(path)
        assert np.array_equal(fast.mean.view(np.int64), slow.mean.view(np.int64))
        assert np.array_equal(fast.std.view(np.int64), slow.std.view(np.int64))
        return fast

    @pytest.mark.parametrize("at", PLACES)
    @pytest.mark.parametrize("bad_row, message", BAD_ROWS)
    def test_bad_row_raises_line_loop_error(self, tmp_path, bad_row, message, at):
        path = tmp_path / "profile.csv"
        self.write_rows(path, {at: bad_row})
        slot, ta = divmod(4 * at - 1, 103)
        self.assert_line_loop_error(path, at + 3, message.format(slot=slot, ta=ta))

    @pytest.mark.parametrize("at", PLACES)
    def test_duplicate_row_raises_line_loop_error(self, tmp_path, at):
        path = tmp_path / "profile.csv"
        slot, ta = divmod(4 * at - 3, 103)  # the cell of the row just before
        self.write_rows(path, {at: f"{slot},{ta},9.0,1.0"})
        self.assert_line_loop_error(path, at + 3, rf"duplicate cell \({slot}, {ta}\)")

    @pytest.mark.parametrize("at", PLACES)
    def test_field_counts_that_even_out_raise_line_loop_error(self, tmp_path, at):
        # 5 fields then 3: joined and split, they would read as two good rows
        path = tmp_path / "profile.csv"
        slot, ta = divmod(4 * at - 2, 103)
        self.write_rows(path, {at: f"{slot},{ta},2.0,3.0,{{slot}}\n{{ta}},6.0,7.0"})
        self.assert_line_loop_error(path, at + 3, "expected 4 fields, got 5")

    @pytest.mark.parametrize("cell", ["-1,102", "0,-1"])
    def test_negative_cell_in_first_row_raises_line_loop_error(self, tmp_path, cell):
        # the first row's flat cell is below every later one, so only the bounds check stops it
        path = tmp_path / "profile.csv"
        path.write_text(f"#interval_seconds=300,max_ta=102,training_days=3\nslot,ta,mean,std\n{cell},3.0,0.5\n0,1,1.0,0.5\n")
        self.assert_line_loop_error(path, 3, rf"cell \({cell.replace(',', ', ')}\) outside table bounds")

    def test_unsorted_rows_load_as_line_loop_reads_them(self, tmp_path):
        path = tmp_path / "profile.csv"
        self.write_rows(path, {PLACES[1]: "0,0,4.0,2.0"})
        profile = self.assert_same_tables(path)
        assert profile.mean[0, 0] == 4.0 and profile.std[0, 0] == 2.0

    def test_ascending_multi_block_file_is_read_by_columnar_parse(self, tmp_path):
        path = tmp_path / "profile.csv"
        self.write_rows(path, {at: "{slot},{ta},4.0,2.0" for at in PLACES})
        profile = self.assert_same_tables(path)
        mean, std = np.zeros(profile.mean.shape), np.zeros(profile.std.shape)
        assert profiler._read_columns(path.read_text().splitlines()[2:], mean, std)
        assert np.array_equal(mean, profile.mean) and np.array_equal(std, profile.std)
        assert np.count_nonzero(profile.mean == 4.0) == len(PLACES)
