"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion even when everything is green.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import stormsim as ss
from stormsim.cli import main as cli_main
from stormsim.sweep import build_score_cache

from conftest import replay, replay_metrics


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_config():
    return ss.ScenarioConfig()


@pytest.fixture(scope="module")
def timed_experiment(default_config):
    """Full default train + sweep, timed once and reused by several criteria."""
    start = time.perf_counter()
    profile = ss.train_profile_for(default_config)
    rows = ss.run_experiment(default_config, profile=profile)
    elapsed = time.perf_counter() - start
    return profile, rows, elapsed


@pytest.fixture(scope="module")
def eval_artifacts(default_config, timed_experiment):
    profile, _rows, _elapsed = timed_experiment
    trace, bursts, _layout = ss.build_trace(
        default_config,
        seed=default_config.seed_eval,
        days=default_config.eval_days,
        include_attacks=True,
    )
    cache = build_score_cache(trace, profile, default_config.sigma_floor, default_config.eval_days)
    return profile, trace, bursts, cache


def test_criterion_1_sweep_shape_and_runtime(default_config, timed_experiment):
    _profile, rows, elapsed = timed_experiment
    ok_rows = len(rows) == len(default_config.gamma_grid)
    gammas = [r.gamma for r in rows]
    ok_sorted = gammas == sorted(gammas)
    ok_monotone = all(
        later.p_detection <= earlier.p_detection
        and later.p_false_alarm <= earlier.p_false_alarm
        for earlier, later in zip(rows, rows[1:])
    )
    ok_time = elapsed < 60.0
    report(
        "criterion 1 (curve shape + runtime)",
        ok_rows and ok_sorted and ok_monotone and ok_time,
        f"{len(rows)} rows, monotone={ok_monotone}, train+sweep={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_low_gamma_saturation(timed_experiment):
    _profile, rows, _elapsed = timed_experiment
    row0 = rows[0]
    assert row0.gamma == 0.0
    ok = row0.p_false_alarm >= 0.9 and row0.p_detection >= 0.99
    report(
        "criterion 2 (gamma=0 saturation)",
        ok,
        f"p_false_alarm={row0.p_false_alarm:.4f} (>=0.9), p_detection={row0.p_detection:.4f} (>=0.99)",
    )


def test_criterion_3_operating_point(default_config, timed_experiment):
    profile, _rows, _elapsed = timed_experiment
    fa_values, pd_values, rejected_fractions = [], [], []
    for i in range(5):
        config = replace(default_config, seed_eval=default_config.seed_eval + i)
        trace, _bursts, _layout = ss.build_trace(
            config, seed=config.seed_eval, days=config.eval_days, include_attacks=True
        )
        cache = build_score_cache(trace, profile, config.sigma_floor, config.eval_days)
        row = ss.metrics_at(cache, 6.5)
        fa_values.append(row.p_false_alarm)
        pd_values.append(row.p_detection)
        rejected_fractions.append(float((cache.scores[trace.attack] > 6.5).mean()))
    fa_median = float(np.median(fa_values))
    pd_median = float(np.median(pd_values))
    print(
        f"  gamma=6.5 medians over 5 eval seeds: p_false_alarm={fa_median:.4f}, "
        f"p_detection={pd_median:.4f}, attack-RSRs-rejected fraction="
        f"{float(np.median(rejected_fractions)):.4f} (per-event view)"
    )
    ok_fa = 0.005 <= fa_median <= 0.04
    report(
        "criterion 3a (gamma=6.5 false-alarm band)",
        ok_fa,
        f"median p_false_alarm={fa_median:.4f} in [0.005, 0.04]",
    )
    ok_pd = 0.85 <= pd_median <= 0.97
    report(
        "criterion 3b (gamma=6.5 detection band)",
        ok_pd,
        f"median p_detection={pd_median:.4f} in [0.85, 0.97]",
    )


def test_criterion_4_profiler_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    tables = 0
    for _ in range(1000):
        days = int(rng.integers(1, 30))
        shape = (days, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        table = rng.poisson(rng.uniform(0.1, 8.0), size=shape)
        profile = ss.train(table)
        tables += 1
        values = table.astype(float)
        mean_oracle = values.sum(axis=0) / days
        if days > 1:
            m2 = ((values - mean_oracle) ** 2).sum(axis=0)
            std_oracle = np.sqrt(m2 / (days - 1))
        else:
            std_oracle = np.zeros_like(mean_oracle)
        for streaming, oracle in ((profile.mean, mean_oracle), (profile.std, std_oracle)):
            denominator = np.maximum(np.abs(oracle), 1e-30)
            relative = np.abs(streaming - oracle) / denominator
            relative[np.abs(streaming - oracle) < 1e-12] = 0.0
            worst = max(worst, float(relative.max()))
    ok = tables >= 1000 and worst <= 1e-9
    report(
        "criterion 4 (streaming vs two-pass oracle)",
        ok,
        f"{tables} random tables, worst relative error {worst:.2e} (limit 1e-9)",
    )


def test_criterion_5_anomaly_score_properties():
    rng = np.random.default_rng(505)
    counts = rng.integers(0, 500, size=100_000)
    means = rng.uniform(0.0, 50.0, size=100_000)
    stds = rng.uniform(0.0, 10.0, size=100_000)
    floors = rng.uniform(0.1, 5.0, size=100_000)
    exact = 0
    for count, mean, std, floor in zip(counts, means, stds, floors):
        got = ss.anomaly_score(int(count), float(mean), float(std), float(floor))
        if got == (count - mean) / max(std, floor):
            exact += 1
    ok_exact = exact == 100_000
    monotone = all(
        ss.anomaly_score(x + 1, 3.0, 2.0, 1.0) > ss.anomaly_score(x, 3.0, 2.0, 1.0)
        for x in range(0, 200)
    )
    floor_ok = ss.anomaly_score(105, 5.0, 0.0, 1.0) == 100.0
    report(
        "criterion 5 (scoring arithmetic)",
        ok_exact and monotone and floor_ok,
        f"{exact}/100000 triples exact, strict monotonicity={monotone}, sigma-floor at 0 -> {floor_ok}",
    )


def test_criterion_6_traffic_statistics(default_config):
    days = 50
    trace, bursts, _layout = ss.build_trace(
        default_config, seed=909, days=days, include_attacks=True
    )
    legit_times = trace.time_s[~trace.attack]

    expected_legit = default_config.legit.device_count * 5.0 * 24.0 * days
    sigma_legit = math.sqrt(expected_legit)
    ok_count = abs(len(legit_times) - expected_legit) <= 4 * sigma_legit

    tod = legit_times % 86400.0
    hourly, _ = np.histogram(tod, bins=24, range=(0.0, 86400.0))
    worst_rel = 0.0
    for hour, count in enumerate(hourly):
        center = (hour + 0.5) * 3600.0
        expected = default_config.legit.device_count * days * ss.diurnal_rate(
            center, default_config.legit
        )
        worst_rel = max(worst_rel, abs(count - expected) / expected)
    ok_profile = worst_rel < 0.05

    expected_bursts = default_config.attack.adversary_count * 3.0 * days
    sigma_bursts = math.sqrt(expected_bursts)
    ok_bursts = abs(len(bursts) - expected_bursts) <= 4 * sigma_bursts

    complete = [b for b in bursts if b.start_s + b.window_s <= days * 86400.0]
    burst_times = [trace.time_s[trace.burst_id == b.burst_id] for b in complete]
    ok_shape = bool(complete) and all(
        b.count == 100 and times[-1] - times[0] <= 5.0 for b, times in zip(complete, burst_times)
    )

    report(
        "criterion 6 (traffic statistics)",
        ok_count and ok_profile and ok_bursts and ok_shape,
        f"legit {len(legit_times)} vs {expected_legit:.0f}+-{4 * sigma_legit:.0f}, "
        f"hourly worst dev {worst_rel:.3f} (<0.05), bursts {len(bursts)} vs "
        f"{expected_bursts:.0f}+-{4 * sigma_bursts:.0f}, complete-burst shape ok={ok_shape}",
    )


def test_criterion_7_byte_determinism(tmp_path):
    config_doc = {
        "legit": {"device_count": 15},
        "attack": {"adversary_count": 2},
        "training_days": 2,
        "eval_days": 2,
        "gamma": 6.5,
        "gamma_grid": [0.0, 2.0, 6.5],
        "seed_train": 71,
        "seed_eval": 72,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    snapshots = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        profile = base / "profile.csv"
        out_dir = base / "out"
        sweep_csv = base / "sweep.csv"
        assert cli_main(["train", "--config", str(config_path), "--out", str(profile)]) == 0
        assert (
            cli_main(
                ["run", "--config", str(config_path), "--profile", str(profile), "--out", str(out_dir)]
            )
            == 0
        )
        assert (
            cli_main(
                ["sweep", "--config", str(config_path), "--profile", str(profile), "--out", str(sweep_csv)]
            )
            == 0
        )
        snapshots[tag] = {
            "profile": profile.read_bytes(),
            "trace": (out_dir / "trace.jsonl").read_bytes(),
            "summary": (out_dir / "summary.json").read_bytes(),
            "sweep": sweep_csv.read_bytes(),
        }
    ok = snapshots["first"] == snapshots["second"]
    sizes = {name: len(data) for name, data in snapshots["first"].items()}
    report(
        "criterion 7 (byte determinism)",
        ok,
        f"trace/profile/summary/sweep byte-identical across runs, sizes={sizes}",
    )


def test_criterion_8_cached_scores_equal_replay(default_config, eval_artifacts):
    profile, trace, bursts, cache = eval_artifacts
    events = list(trace)  # the rows on_rsr takes, built once for every replay
    horizon = default_config.eval_days
    all_ok = True
    details = []
    for gamma in (2.0, 6.5):
        detector = ss.DetectorConfig(gamma=gamma, sigma_floor=default_config.sigma_floor)
        verdicts, policies = replay(events, profile, detector)
        replay_rejects = np.array([v.decision is ss.Decision.REJECT for v in verdicts])
        replay_scores = np.array([v.anomaly for v in verdicts])
        verdicts_equal = bool(np.array_equal(replay_rejects, cache.scores > gamma))
        scores_equal = bool(np.array_equal(replay_scores, cache.scores))
        metrics = replay_metrics(
            events, verdicts, policies, bursts, gamma, profile.interval_seconds, profile.max_ta, horizon
        )
        metrics_equal = ss.metrics_at(cache, gamma) == metrics
        batch = ss.run(trace, profile, detector, horizon)
        run_equal = (
            list(batch.verdicts) == verdicts
            and batch.policies == policies
            and ss.compute_metrics(batch) == metrics
        )
        all_ok = all_ok and verdicts_equal and scores_equal and metrics_equal and run_equal
        details.append(
            f"gamma={gamma}: verdicts={verdicts_equal}, scores={scores_equal}, "
            f"metrics={metrics_equal}, run={run_equal}"
        )
    report("criterion 8 (sweep caching and run vs on_rsr replay)", all_ok, "; ".join(details))
