import functools
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import stormsim.cli
import stormsim.core
import stormsim.sweep
from stormsim.cli import main

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
    assert "populated cells" in capsys.readouterr().out


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
            if result is not None:
                made[name] = weakref.ref(result[0] if name == "build_trace" else result)
            return result

        monkeypatch.setattr(stormsim.cli, name, wrapper)

    wrap("build_trace")
    wrap("count_per_interval")
    wrap("train", freed="build_trace")
    wrap("save_profile", freed="count_per_interval")
    assert main(["train", "--config", config_path, "--out", str(tmp_path / "profile.csv")]) == 0


def test_dead_write_trace_child_exits_2(config_path, tmp_path, capsys, monkeypatch):
    # the child that formats the second half of the trace dies without a word
    profile = str(tmp_path / "profile.csv")
    assert main(["train", "--config", config_path, "--out", profile]) == 0
    parent, json_texts = os.getpid(), stormsim.core._json_texts

    def die_in_child(values):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return json_texts(values)

    monkeypatch.setattr(stormsim.core, "_split_row", lambda n: n // 2)
    monkeypatch.setattr(stormsim.core, "_json_texts", die_in_child)
    assert main(["run", "--config", config_path, "--profile", profile, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: the forked child was killed by signal 9 before sending its result\n"


REPO = Path(__file__).resolve().parents[1]


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
