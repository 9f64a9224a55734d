import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stormsim.cli
import stormsim.core
import stormsim.sweep
from stormsim import DetectorConfig, ScoringMode, build_trace, read_trace, run
from stormsim.cli import main
from stormsim.config import config_from_dict
from stormsim.profiler import load_profile

from conftest import bits, deadline, interval_end_replay, needs_pipes, piped

SMALL_CONFIG = {
    "legit": {"device_count": 15},
    "attack": {"adversary_count": 2},
    "training_days": 2,
    "eval_days": 2,
    "gamma": 6.5,
    "gamma_grid": [0.0, 2.0, 6.5],
    "seed_train": 31,
    "seed_eval": 32,
}

REPO = Path(__file__).resolve().parents[1]
# perfbench's independent recomputation of a run's outputs, loaded read-only
_check_spec = importlib.util.spec_from_file_location("perfbench_check", REPO / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_check_spec)
_check_spec.loader.exec_module(check)

RUN_FILES = ["trace.jsonl", "bursts.json", "policies.jsonl", "summary.json", "scenario.json"]

# The names perfbench/step.py wraps to time each layer: the commands must call
# each of them through the module attribute, or the traced benchmark loses it.
WRAPPED_NAMES = {
    stormsim.cli: (
        "build_trace",
        "count_per_interval",
        "train",
        "save_profile",
        "load_profile",
        "run",
        "compute_metrics",
        "write_policy_log",
        "write_trace",
    ),
    stormsim.sweep: ("build_trace", "build_score_cache", "metrics_at"),
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def test_train_writes_profile(config_path, tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["train", "--config", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#interval_seconds=300,max_ta=102,training_days=2"
    assert lines[1] == "slot,ta,mean,std"
    assert f"; {len(lines) - 2} populated cells -> {out}\n" in capsys.readouterr().out


# the float fields reach their extremes: a sub-nanometre cell, a burst window
# of 30,000 years, a day profile whose trough is near zero, a floor below and
# above every std, and gammas at the ends of the float range
EXTREME_GAMMAS = [-1e308, 1e308]
small_configs = st.fixed_dictionaries(
    {
        "cell_radius_m": st.one_of(st.just(1e-9), st.floats(1e-9, 2000.0)),
        "training_days": st.integers(1, 3),
        "eval_days": st.integers(1, 2),
        "legit": st.fixed_dictionaries(
            {
                "device_count": st.integers(0, 20),
                "base_rate_per_hour": st.floats(0.01, 10.0),
                "diurnal_amplitude": st.one_of(st.just(0.999999), st.floats(0.0, 0.999999)),
            }
        ),
        "attack": st.fixed_dictionaries(
            {
                "adversary_count": st.integers(0, 3),
                "rsrs_per_burst": st.integers(1, 50),
                "bursts_per_day": st.floats(0.01, 10.0),
                "burst_window_s": st.one_of(st.just(1e12), st.floats(1e-3, 1e12)),
            }
        ),
        "interval_seconds": st.sampled_from([300, 3600, 86400]),
        "numerology_mu": st.integers(0, 3),
        "scoring_mode": st.sampled_from(["per_rsr", "interval_end"]),
        "sigma_floor": st.sampled_from([5e-324, 1.0, 1e308]),
        "gamma": st.sampled_from([6.5, math.inf, -math.inf, *EXTREME_GAMMAS]),
        "gamma_grid": st.lists(st.sampled_from([0.0, 2.0, 6.5, *EXTREME_GAMMAS]), min_size=1, max_size=4),
        "seed_train": st.integers(0, 2**64 - 1),
        "seed_eval": st.integers(0, 2**64 - 1),
    }
)
# no device and no adversary: every owner table of build_trace is empty
EMPTY_CONFIG = {
    "training_days": 1,
    "eval_days": 1,
    "legit": {"device_count": 0},
    "attack": {"adversary_count": 0, "rsrs_per_burst": 1},
    "interval_seconds": 300,
    "numerology_mu": 0,
    "scoring_mode": "per_rsr",
    "seed_train": 0,
    "seed_eval": 0,
}


def exit_status(*argv) -> int:
    """``main(argv)``'s exit status, held to the CLI's contract: 0, or 2 with exactly one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    lines = err.getvalue().splitlines()
    assert status == 0 and not lines or status == 2 and len(lines) == 1 and lines[0].startswith("error: "), (status, lines)
    return status


@settings(max_examples=60, deadline=None)
@given(doc=small_configs)
@example(doc=EMPTY_CONFIG)
@example(doc=dict(EMPTY_CONFIG, legit={"device_count": 1}))  # one owner
@example(doc=dict(EMPTY_CONFIG, attack={"adversary_count": 1, "rsrs_per_burst": 1}))
# boundary values: day-long intervals, mu 3's TA bins past 127 (an int16
# column), gammas that no score and every score crosses, legit-only and empty traces
@example(doc=dict(EMPTY_CONFIG, legit={"device_count": 20}, interval_seconds=86400, numerology_mu=3, gamma=math.inf))
@example(doc=dict(EMPTY_CONFIG, legit={"device_count": 3}, scoring_mode="interval_end", gamma=-math.inf))
@example(doc=dict(EMPTY_CONFIG, numerology_mu=3, scoring_mode="interval_end", gamma=-math.inf))
# a floor above every std, which scores near zero, and one below them all, which scores 0 or inf
@example(doc=dict(SMALL_CONFIG, sigma_floor=1e308, gamma=-1e308, gamma_grid=EXTREME_GAMMAS))
@example(doc=dict(SMALL_CONFIG, scoring_mode="interval_end", sigma_floor=5e-324, gamma=1e308))
def test_small_configs_run_end_to_end(doc):
    # train, then run --profile, on a drawn config: the trace the run wrote
    # reads back bit for bit as the same config built and run in-process, and
    # sweep writes the same rows from the trained profile as when it trains;
    # at interval end, the verdicts and policies are the replay oracle's; per
    # RSR, the outputs pass perfbench's exact checks (not its 4-sigma
    # traffic and profile counts, which a 1-3 day run misses by chance)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_path, profile, out = tmp / "config.json", tmp / "profile.csv", tmp / "out"
        config_path.write_text(json.dumps(doc))
        config_file = str(config_path)
        if (
            exit_status("train", "--config", config_file, "--out", str(profile))
            or exit_status("run", "--config", config_file, "--profile", str(profile), "--out", str(out))
            or exit_status("sweep", "--config", config_file, "--profile", str(profile), "--out", str(tmp / "profiled.csv"))
            or exit_status("sweep", "--config", config_file, "--out", str(tmp / "trained.csv"))
        ):
            return
        assert (tmp / "profiled.csv").read_text() == (tmp / "trained.csv").read_text()
        config = config_from_dict(doc)
        trace, _bursts, _layout = build_trace(config, seed=config.seed_eval, days=config.eval_days, include_attacks=True)
        detector = DetectorConfig(gamma=config.gamma, sigma_floor=config.sigma_floor)
        report = run(trace, load_profile(profile), detector, config.eval_days, config.scoring_mode)
        read, verdicts = read_trace(out / "trace.jsonl")
        assert bits(read, verdicts) == bits(trace, report.verdicts)
        if config.scoring_mode is ScoringMode.INTERVAL_END:
            end_verdicts, end_policies = interval_end_replay(trace, load_profile(profile), detector)
            assert list(verdicts) == end_verdicts
            logged = [(p["ta"], p["slot"], p["time_s"]) for p in check.parse_policies((out / "policies.jsonl").read_text())]
            assert logged == [(p.ta, p.slot_of_day, p.issued_at_s) for p in end_policies]
            return
        full = json.loads((out / "scenario.json").read_text())["config"]
        texts = {name: (out / name).read_text() for name in ("trace.jsonl", "bursts.json", "policies.jsonl", "summary.json")}
        parsed, summary = check.parse_trace(texts["trace.jsonl"]), json.loads(texts["summary.json"])
        with np.errstate(over="ignore"):  # a subnormal floor scores inf, as the detector does
            scored = check.Scored(parsed, check.parse_profile(profile.read_text()), full)
        policies = check.parse_policies(texts["policies.jsonl"])
        failures = check.check_run(full, scored, json.loads(texts["bursts.json"]), policies, summary)
        for name in ("profiled.csv", "trained.csv"):
            failures += check.check_sweep(full, scored, check.parse_sweep((tmp / name).read_text()))
        attack, rejected = read.attack, verdicts.rejected
        counts = {"events": len(read), "rejects": int(rejected.sum())}
        counts.update(attack_events=int(attack.sum()), rejected_attack_events=int((attack & rejected).sum()))
        assert failures + check.check_readback(parsed, summary, counts) == []


def test_train_single_day_has_zero_std(tmp_path):
    config = dict(SMALL_CONFIG, training_days=1)
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "profile.csv"
    assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[2:]:
        assert line.endswith(",0.0")


def test_train_zero_devices_empty_profile(tmp_path):
    config = dict(SMALL_CONFIG, legit={"device_count": 0})
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "profile.csv"
    assert main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    assert out.read_text() == "#interval_seconds=300,max_ta=102,training_days=2\nslot,ta,mean,std\n"


def test_run_produces_artifacts(config_path, tmp_path):
    profile = tmp_path / "profile.csv"
    out_dir = tmp_path / "out"
    assert main(["train", "--config", config_path, "--out", str(profile)]) == 0
    assert main(["run", "--config", config_path, "--profile", str(profile), "--out", str(out_dir)]) == 0
    for name in RUN_FILES:
        assert (out_dir / name).exists(), name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["gamma"] == 6.5
    assert set(summary) == {
        "gamma",
        "p_detection",
        "p_false_alarm",
        "p_false_alarm_per_cell",
        "numerators",
        "denominators",
    }
    scenario = json.loads((out_dir / "scenario.json").read_text())
    assert scenario["config"]["eval_days"] == 2
    assert len(scenario["layout"]["adversaries"]) == 2


def test_run_no_adversaries_null_p_detection(tmp_path):
    config = dict(SMALL_CONFIG, attack={"adversary_count": 0})
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    profile = tmp_path / "profile.csv"
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(profile)]) == 0
    assert main(["run", "--config", str(config_file), "--profile", str(profile), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["p_detection"] is None
    assert summary["p_false_alarm"] >= 0.0


def test_run_rejects_mismatched_profile(config_path, tmp_path, capsys):
    bad_config = dict(SMALL_CONFIG, interval_seconds=600)
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad_config))
    profile = tmp_path / "profile.csv"
    assert main(["train", "--config", str(bad_file), "--out", str(profile)]) == 0
    out_dir = tmp_path / "out"
    code = main(["run", "--config", config_path, "--profile", str(profile), "--out", str(out_dir)])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_profile_with_bad_metadata_exits_2(config_path, tmp_path, capsys, command):
    profile = tmp_path / "profile.csv"
    profile.write_text("#interval_seconds=300,max_ta=102,training_days=0\nslot,ta,mean,std\n")
    out = tmp_path / "out"
    code = main([command, "--config", config_path, "--profile", str(profile), "--out", str(out)])
    assert code == 2
    assert f"{profile}: training_days must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_and_without_profile(config_path, tmp_path):
    profile = tmp_path / "profile.csv"
    assert main(["train", "--config", config_path, "--out", str(profile)]) == 0
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", config_path, "--out", str(csv_a)]) == 0
    assert main(["sweep", "--config", config_path, "--profile", str(profile), "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    lines = csv_a.read_text().splitlines()
    assert len(lines) == 1 + 3


@needs_pipes
def test_run_reads_a_shuffled_profile_from_a_fifo(config_path, tmp_path):
    # shuffled rows are refused by the columnar parse; a FIFO cannot be
    # rewound, so its rows go to the line loop as they arrive
    profile, shuffled = tmp_path / "profile.csv", tmp_path / "shuffled.csv"
    assert main(["train", "--config", config_path, "--out", str(profile)]) == 0
    lines = profile.read_text().splitlines(keepends=True)
    rows = lines[2:]
    random.Random(5).shuffle(rows)
    shuffled.write_text("".join(lines[:2] + rows))

    def run(source, out):
        assert main(["run", "--config", config_path, "--profile", str(source), "--out", str(out)]) == 0
        return (out / "summary.json").read_bytes()

    summaries = [run(profile, tmp_path / "from-file"), run(shuffled, tmp_path / "from-shuffled")]
    with piped("fifo", tmp_path, shuffled.read_bytes()) as fifo, deadline(60):
        summaries.append(run(fifo, tmp_path / "from-fifo"))
    assert len(rows) > 100 and summaries[0] == summaries[1] == summaries[2]


def test_sweep_single_gamma(tmp_path):
    config = dict(SMALL_CONFIG, gamma_grid=[6.5])
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_missing_config_file_exits_nonzero(tmp_path):
    code = main(["train", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "p.csv")])
    assert code == 2


def test_seed_flags_override_config(config_path, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert main(["train", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["train", "--config", config_path, "--seed-train", "31", "--out", str(out_b)]) == 0
    assert main(["train", "--config", config_path, "--seed-train", "99", "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_bad_config_json_exits_nonzero(tmp_path, capsys):
    config_file = tmp_path / "c.json"
    config_file.write_text("{broken")
    assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "p.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"[" * 100_000 + b"]" * 100_000, b'{"scoring_mode": "pe\xff"}'], ids=["deep", "not_utf8"]
)
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, content):
    config_file = tmp_path / "c.json"
    config_file.write_bytes(content)
    assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "p.csv")]) == 2
    assert f"error: {config_file}: " in capsys.readouterr().err


def test_non_numeric_gamma_grid_exits_nonzero(tmp_path, capsys):
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(dict(SMALL_CONFIG, gamma_grid=[1.0, "x"])))
    assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "s.csv")]) == 2
    assert f"error: {config_file}: gamma_grid entry must be a number, got 'x'" in capsys.readouterr().err


def test_nan_burst_window_exits_2(tmp_path, capsys):
    # json.dumps writes the NaN token, which json.load reads back as a float nan
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(dict(SMALL_CONFIG, attack={"burst_window_s": float("nan")})))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--profile", str(tmp_path / "p.csv"), "--out", str(out)])
    assert code == 2
    assert f"error: {config_file}: attack.burst_window_s must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"gamma": 6.5, "eval_days": 2, "gamma": 2.0}', "gamma"),
        ('{"legit": {"device_count": 15, "device_count": 15}, "eval_days": 2}', "device_count"),
    ],
    ids=["top_level", "nested"],
)
def test_repeated_config_key_exits_2(tmp_path, capsys, text, key):
    # json.load would keep the last value and run on it
    config_file = tmp_path / "c.json"
    config_file.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--profile", str(tmp_path / "p.csv"), "--out", str(out)])
    assert code == 2
    assert f"error: {config_file}: repeated key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_ungeneratable_workload_exits_2(tmp_path, capsys):
    # refused when the config is read, before any trace is generated
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(dict(SMALL_CONFIG, attack={"rsrs_per_burst": 10**13})))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--profile", str(tmp_path / "p.csv"), "--out", str(out)])
    assert code == 2
    assert f"error: {config_file}: a 2-day trace of about" in capsys.readouterr().err
    assert not out.exists()


def test_device_count_cap_exits_2(tmp_path, capsys):
    # a billion idle devices expect almost no requests, yet could not be placed
    config_file = tmp_path / "c.json"
    config_file.write_text(json.dumps(dict(SMALL_CONFIG, legit={"device_count": 10**9, "base_rate_per_hour": 1e-9})))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_file), "--profile", str(tmp_path / "p.csv"), "--out", str(out)])
    assert code == 2
    assert f"error: {config_file}: {10**9 + 2} devices and adversaries" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["explode"])


def test_missing_required_flag_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["train"])


def test_end_to_end_determinism(config_path, tmp_path):
    files = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        profile = base / "profile.csv"
        out_dir = base / "out"
        sweep_csv = base / "sweep.csv"
        assert main(["train", "--config", config_path, "--out", str(profile)]) == 0
        assert main(["run", "--config", config_path, "--profile", str(profile), "--out", str(out_dir)]) == 0
        assert main(["sweep", "--config", config_path, "--profile", str(profile), "--out", str(sweep_csv)]) == 0
        files[tag] = {
            "profile": profile.read_bytes(),
            "trace": (out_dir / "trace.jsonl").read_bytes(),
            "policies": (out_dir / "policies.jsonl").read_bytes(),
            "summary": (out_dir / "summary.json").read_bytes(),
            "scenario": (out_dir / "scenario.json").read_bytes(),
            "sweep": sweep_csv.read_bytes(),
        }
    assert files["first"] == files["second"]


def test_commands_call_the_benchmark_wrapped_names(config_path, tmp_path, monkeypatch):
    calls = {}

    def counting(key, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for module, names in WRAPPED_NAMES.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    profile = str(tmp_path / "profile.csv")
    assert main(["train", "--config", config_path, "--out", profile]) == 0
    assert main(["run", "--config", config_path, "--profile", profile, "--out", str(tmp_path / "out")]) == 0
    assert main(["sweep", "--config", config_path, "--profile", profile, "--out", str(tmp_path / "s.csv")]) == 0
    expected = {f"{module.__name__}.{name}" for module, names in WRAPPED_NAMES.items() for name in names}
    assert expected - set(calls) == set()


def test_train_frees_each_input_once_used(config_path, tmp_path, monkeypatch):
    # the trace is gone before the fold, and the count table before the profile is written
    made = {}

    def wrap(name, freed=None):
        original = getattr(stormsim.cli, name)

        def wrapper(*args, **kwargs):
            assert freed is None or made[freed]() is None, f"{freed}'s result still alive at {name}"
            result = original(*args, **kwargs)
            if name in ("build_trace", "count_per_interval"):
                made[name] = weakref.ref(result[0] if name == "build_trace" else result)
            return result

        monkeypatch.setattr(stormsim.cli, name, wrapper)

    wrap("build_trace")
    wrap("count_per_interval")
    wrap("train", freed="build_trace")
    wrap("save_profile", freed="count_per_interval")
    assert main(["train", "--config", config_path, "--out", str(tmp_path / "profile.csv")]) == 0


@pytest.mark.parametrize("written", [False, True], ids=["before_any_row", "after_a_block"])
def test_dead_write_trace_child_exits_2(config_path, tmp_path, capsys, monkeypatch, written):
    # the child that formats the second half of the trace dies without a
    # word: while it builds its texts, or once a block of its rows is in the
    # temporary file (it formats its time column a block at a time)
    profile = str(tmp_path / "profile.csv")
    assert main(["train", "--config", config_path, "--out", profile]) == 0
    parent, json_texts, temporary_file, rests = os.getpid(), stormsim.core._json_texts, tempfile.TemporaryFile, []

    def recorded(*args, **kwargs):
        rests.append(temporary_file(*args, **kwargs))
        return rests[-1]

    def die_in_child(values):
        if os.getpid() != parent and (not written or os.fstat(rests[-1].fileno()).st_size):
            os.kill(os.getpid(), signal.SIGKILL)
        return json_texts(values)

    monkeypatch.setattr(stormsim.core, "_split_row", lambda n: n // 2)
    monkeypatch.setattr(stormsim.core, "ROWS_PER_WRITE", 1024)  # so the child's half takes several blocks
    monkeypatch.setattr(stormsim.core.tempfile, "TemporaryFile", recorded)
    monkeypatch.setattr(stormsim.core, "_json_texts", die_in_child)
    assert main(["run", "--config", config_path, "--profile", profile, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the forked child was killed by signal 9 before sending its result\n"
    assert len(rests) == 1


NUMPY_MA_PROBE = """
import contextlib, io, json, sys
from stormsim import read_trace
from stormsim.cli import main
loaded = {"import": "numpy.ma" in sys.modules}
for name, argv in (
    ("train", ["train", "--config", "config.json", "--out", "profile.csv"]),
    ("run", ["run", "--config", "config.json", "--profile", "profile.csv", "--out", "out"]),
    ("sweep --profile", ["sweep", "--config", "config.json", "--profile", "profile.csv", "--out", "profiled.csv"]),
    ("sweep", ["sweep", "--config", "config.json", "--out", "trained.csv"]),
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, name
    loaded[name] = "numpy.ma" in sys.modules
read_trace("out/trace.jsonl")
loaded["read_trace"] = "numpy.ma" in sys.modules
print(json.dumps(loaded))
"""


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """A plain ``np.unique`` imports ``numpy.ma`` on its first call (about
    90 ms and 1.1 MiB); the ``return_index=True`` form ``pipeline.run`` uses
    does not. No command, nor ``read_trace``, may load it, step by step in
    one fresh interpreter."""
    (tmp_path / "config.json").write_text(json.dumps(SMALL_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE], cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == dict.fromkeys(("import", "train", "run", "sweep --profile", "sweep", "read_trace"), False)


def test_benchmark_step_runner_smoke(tmp_path):
    """perfbench/step.py's train, traced run and readback on a tiny config: the
    online detector consumes the run's rows, and the traced counts agree with
    what the trace file reads back."""
    config = {"legit": {"device_count": 10}, "training_days": 1, "eval_days": 1, "seed_train": 3, "seed_eval": 4}
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    reports = {}
    for step, trace in (("train", False), ("run", True), ("readback", False)):
        spec = {"step": step, "dir": str(tmp_path), "src": str(REPO / "src"), "trace": trace}
        spec["spawned_at"] = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "step.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        reports[step] = json.loads(done.stdout.splitlines()[-1])
        assert reports[step]["rc"] == 0, step
    run, readback = reports["run"], reports["readback"]["readback"]
    assert "detector.on_rsr" in {span[0] for span in run["spans"]}
    assert run["counts"]["traffic.eval_attack_events"] == readback["attack_events"] > 0
    assert run["counts"]["pipeline.rejected_events"] == readback["rejects"]
