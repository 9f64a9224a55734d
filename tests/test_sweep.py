import math
from dataclasses import replace

import numpy as np

from stormsim import (
    Decision,
    DetectorConfig,
    Metrics,
    build_score_cache,
    build_trace,
    compute_metrics,
    metrics_at,
    run,
    run_experiment,
    train_profile_for,
    write_sweep_csv,
)
from stormsim.sweep import SWEEP_CSV_HEADER

from conftest import replay, replay_metrics


class TestRunExperiment:
    def test_rows_sorted_and_monotone(self, small_config):
        rows = run_experiment(small_config)
        gammas = [row.gamma for row in rows]
        assert gammas == sorted(gammas)
        assert len(rows) == len(small_config.gamma_grid)
        for earlier, later in zip(rows, rows[1:]):
            assert later.p_detection <= earlier.p_detection
            assert later.p_false_alarm <= earlier.p_false_alarm
            assert later.p_false_alarm_per_cell <= earlier.p_false_alarm_per_cell

    def test_infinite_gamma_row(self, small_config):
        config = replace(small_config, gamma_grid=(float("inf"),))
        rows = run_experiment(config)
        assert len(rows) == 1
        assert rows[0].p_false_alarm == 0.0
        assert rows[0].p_detection == 0.0

    def test_supplying_profile_skips_training(self, small_config):
        profile = train_profile_for(small_config)
        a = run_experiment(small_config)
        b = run_experiment(small_config, profile=profile)
        assert a == b

    def test_deterministic(self, small_config):
        assert run_experiment(small_config) == run_experiment(small_config)

    def test_intervals_total(self, small_config):
        rows = run_experiment(small_config)
        assert rows[0].denominators["intervals"] == small_config.eval_days * 288


class TestCacheVsReplay:
    def test_thresholding_equals_sequential_replay(self, small_config):
        profile = train_profile_for(small_config)
        trace, bursts, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=True
        )
        cache = build_score_cache(trace, profile, small_config.sigma_floor, 2)
        for gamma in (0.0, 2.0, 6.5):
            config = DetectorConfig(gamma=gamma)
            verdicts, policies = replay(trace, profile, config)
            replay_scores = np.array([v.anomaly for v in verdicts])
            assert np.array_equal(replay_scores, cache.scores)
            replay_rejects = np.array([v.decision is Decision.REJECT for v in verdicts])
            assert np.array_equal(replay_rejects, cache.scores > gamma)
            metrics = replay_metrics(
                trace, verdicts, policies, bursts, gamma, profile.interval_seconds, profile.max_ta, 2
            )
            assert metrics_at(cache, gamma) == metrics
            report = run(trace, profile, config, horizon_days=2)
            assert list(report.verdicts) == verdicts
            assert report.policies == policies
            assert compute_metrics(report) == metrics

    def test_interval_end_rows_equal_run(self, small_config):
        config = replace(small_config, scoring_mode="interval_end")
        profile = train_profile_for(config)
        trace, _bursts, _ = build_trace(config, seed=config.seed_eval, days=2, include_attacks=True)
        rows = run_experiment(config, profile=profile)
        assert [row.gamma for row in rows] == sorted(config.gamma_grid)
        for row in rows:
            report = run(trace, profile, DetectorConfig(gamma=row.gamma), 2, "interval_end")
            assert row == compute_metrics(report)


class TestSweepCsv:
    def test_header_and_rows(self, small_config, tmp_path):
        rows = run_experiment(small_config)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(rows)

    def test_empty_result(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv((), path)
        assert path.read_text() == SWEEP_CSV_HEADER + "\n"

    def test_round_trip_precision(self, tmp_path):
        rows = (
            Metrics(
                gamma=1.5,
                p_detection=0.9231233333712,
                p_false_alarm=0.01518229166,
                p_false_alarm_per_cell=0.000147,
                numerators={},
                denominators={"bursts": 293, "intervals": 5760},
            ),
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[0]) == 1.5
        assert float(fields[1]) == 0.9231233333712
        assert float(fields[2]) == 0.01518229166
        assert float(fields[3]) == 0.000147
        assert int(fields[4]) == 293 and int(fields[5]) == 5760

    def test_undefined_p_detection_written_as_nan(self, tmp_path):
        rows = (
            Metrics(
                gamma=0.0,
                p_detection=None,
                p_false_alarm=0.25,
                p_false_alarm_per_cell=0.01,
                numerators={},
                denominators={"bursts": 0, "intervals": 576},
            ),
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        fields = path.read_text().splitlines()[1].split(",")
        assert math.isnan(float(fields[1]))

    def test_bytes_deterministic(self, small_config, tmp_path):
        rows = run_experiment(small_config)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(rows, path_a)
        write_sweep_csv(run_experiment(small_config), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestNoAdversaries:
    def test_p_detection_undefined_in_rows(self, small_config):
        config = replace(
            small_config, attack=replace(small_config.attack, adversary_count=0)
        )
        rows = run_experiment(config)
        assert all(row.p_detection is None for row in rows)
        assert all(row.denominators["bursts"] == 0 for row in rows)
