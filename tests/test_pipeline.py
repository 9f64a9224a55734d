import json
from dataclasses import asdict

import numpy as np
import pytest

from stormsim import (
    Decision,
    DetectorConfig,
    RsrEvent,
    ScoringMode,
    build_trace,
    compute_metrics,
    run,
    train_profile_for,
    write_json,
    write_policy_log,
)

from stormsim import pipeline
from stormsim.detector import score_events

from conftest import flagged_cells, make_profile, trace_of


def burst_events(ta, start, burst_id, n=100, spacing=0.02, device=50):
    return [
        RsrEvent(time_s=start + i * spacing, device_id=device, ta=ta, burst_id=burst_id)
        for i in range(n)
    ]


def simulate_flag_oracle(n_events, mean, denom, gamma):
    """Brute-force reference for one silent cell: counts up, flags, rejects."""
    flagged = False
    rejected = 0
    for count in range(1, n_events + 1):
        score = (count - mean) / denom
        if score > gamma:
            flagged = True
        if flagged:
            rejected += 1
    return rejected


class TestSingleBurstRun:
    def test_burst_detected_and_rejected_tail(self):
        # silent TA, mu=0 sigma=0 floor 1, gamma=6.5: the brute-force oracle
        # says the 7th event crosses and 94 of 100 get rejected
        events = burst_events(ta=5, start=10.0, burst_id=0)
        profile = make_profile()
        report = run(trace_of(events), profile, DetectorConfig(gamma=6.5), horizon_days=1)
        rejected = sum(1 for v in report.verdicts if v.decision is Decision.REJECT)
        assert rejected == simulate_flag_oracle(100, 0.0, 1.0, 6.5) == 94
        assert flagged_cells(report.policies) == {(0, 0, 5)}
        metrics = compute_metrics(report)
        assert metrics.p_detection == 1.0
        assert metrics.p_false_alarm == 0.0
        assert metrics.p_false_alarm_per_cell == 0.0
        assert metrics.numerators["rejected_attack_events"] == 94
        assert metrics.denominators["attack_events"] == 100

    def test_empty_trace(self):
        profile = make_profile()
        report = run(trace_of([]), profile, DetectorConfig(gamma=1.0), horizon_days=1)
        assert len(report.verdicts) == 0
        assert flagged_cells(report.policies) == set()
        metrics = compute_metrics(report)
        assert metrics.p_detection is None
        assert metrics.p_false_alarm == 0.0

    def test_verdicts_adopt_the_scores(self, monkeypatch):
        # the scores become the verdicts' anomaly column, read-only, without a copy
        scored = []

        def keeping(*args):
            scored.append(score_events(*args))
            return scored[-1]

        monkeypatch.setattr(pipeline, "score_events", keeping)
        report = run(trace_of(burst_events(ta=5, start=10.0, burst_id=0)), make_profile(), DetectorConfig(gamma=6.5), 1)
        assert report.verdicts.anomaly is scored[0][2]
        assert not report.verdicts.anomaly.flags.writeable

    def test_infinite_gamma(self):
        events = burst_events(ta=5, start=10.0, burst_id=0)
        profile = make_profile()
        report = run(trace_of(events), profile, DetectorConfig(gamma=float("inf")), horizon_days=1)
        assert all(v.decision is Decision.ACCEPT for v in report.verdicts)
        assert flagged_cells(report.policies) == set()
        metrics = compute_metrics(report)
        assert metrics.p_detection == 0.0


class TestMetrics:
    def test_two_of_three_bursts_detected(self):
        # bursts at TA 1 and 2 hit silent cells; the burst at TA 3 lands on a
        # cell whose profile mean dwarfs it, so it never crosses gamma
        mean = np.zeros((288, 11))
        mean[:, 3] = 1000.0
        profile = make_profile(mean=mean)
        events_a = burst_events(ta=1, start=10.0, burst_id=0, n=20)
        events_b = burst_events(ta=2, start=400.0, burst_id=1, n=20, device=51)
        events_c = burst_events(ta=3, start=700.0, burst_id=2, n=20, device=52)
        trace = trace_of(sorted(events_a + events_b + events_c, key=lambda e: e.time_s))
        report = run(trace, profile, DetectorConfig(gamma=6.5), horizon_days=1)
        metrics = compute_metrics(report)
        assert metrics.p_detection == pytest.approx(2 / 3)
        assert metrics.numerators["detected_bursts"] == 2
        assert metrics.denominators["bursts"] == 3

    def test_false_alarm_excludes_attacked_cells(self):
        # legit flood and an attack burst share slot 0 but different TAs:
        # only the legit cell counts as a false alarm
        profile = make_profile()
        legit_events = [
            RsrEvent(time_s=1.0 + 0.1 * i, device_id=0, ta=7) for i in range(20)
        ]
        attack_list = burst_events(ta=5, start=3.0, burst_id=0, n=20)
        trace = trace_of(sorted(legit_events + attack_list, key=lambda e: (e.time_s, e.device_id)))
        report = run(trace, profile, DetectorConfig(gamma=6.5), horizon_days=1)
        assert flagged_cells(report.policies) == {(0, 0, 5), (0, 0, 7)}
        metrics = compute_metrics(report)
        assert metrics.numerators["false_alarm_intervals"] == 1
        assert metrics.p_false_alarm == 1 / 288
        assert metrics.p_false_alarm_per_cell == 1 / (288 * 11)

    def test_conservation_per_label(self, small_config):
        profile = train_profile_for(small_config)
        trace, bursts, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=True
        )
        report = run(trace, profile, DetectorConfig(gamma=2.0), horizon_days=2)
        totals = {False: 0, True: 0}  # keyed on whether the event is an attack
        rejected = {False: 0, True: 0}
        for event, verdict in zip(trace, report.verdicts):
            totals[event.burst_id is not None] += 1
            if verdict.decision is Decision.REJECT:
                rejected[event.burst_id is not None] += 1
        assert totals[True] == sum(b.count for b in bursts)
        assert sum(totals.values()) == len(trace)
        metrics = compute_metrics(report)
        assert metrics.numerators["rejected_attack_events"] == rejected[True]
        assert metrics.denominators["attack_events"] == totals[True]

    def test_rejects_only_in_flagged_cells(self, small_config):
        profile = train_profile_for(small_config)
        trace, _, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=True
        )
        report = run(trace, profile, DetectorConfig(gamma=3.0), horizon_days=2)
        flagged = flagged_cells(report.policies)
        for event, verdict in zip(trace, report.verdicts):
            if verdict.decision is Decision.REJECT:
                day = int(event.time_s // 86400)
                slot = int((event.time_s % 86400) // 300)
                assert (day, slot, event.ta) in flagged

    def test_metrics_non_increasing_in_gamma(self, small_config):
        profile = train_profile_for(small_config)
        trace, _bursts, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=True
        )
        previous = None
        reject_sets = []
        for gamma in (0.0, 1.0, 3.0, 6.5, 12.0):
            report = run(trace, profile, DetectorConfig(gamma=gamma), horizon_days=2)
            metrics = compute_metrics(report)
            rejects = {
                i for i, v in enumerate(report.verdicts) if v.decision is Decision.REJECT
            }
            reject_sets.append(rejects)
            if previous is not None:
                assert metrics.p_detection <= previous.p_detection
                assert metrics.p_false_alarm <= previous.p_false_alarm
                assert metrics.p_false_alarm_per_cell <= previous.p_false_alarm_per_cell
            previous = metrics
        for tighter, looser in zip(reject_sets[1:], reject_sets):
            assert tighter <= looser

    def test_no_adversaries_p_detection_undefined(self, small_config):
        profile = train_profile_for(small_config)
        trace, _bursts, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=False
        )
        report = run(trace, profile, DetectorConfig(gamma=float("inf")), horizon_days=2)
        metrics = compute_metrics(report)
        assert metrics.p_detection is None
        assert metrics.p_false_alarm == 0.0


class TestScoringModes:
    def test_interval_end_matches_flags_and_metrics(self, small_config):
        profile = train_profile_for(small_config)
        trace, _bursts, _ = build_trace(
            small_config, seed=small_config.seed_eval, days=2, include_attacks=True
        )
        config = DetectorConfig(gamma=4.0)
        per_rsr = run(trace, profile, config, 2, ScoringMode.PER_RSR)
        interval_end = run(trace, profile, config, 2, ScoringMode.INTERVAL_END)
        assert flagged_cells(interval_end.policies) == flagged_cells(per_rsr.policies)
        n_rsr = sum(1 for v in per_rsr.verdicts if v.decision is Decision.REJECT)
        n_end = sum(1 for v in interval_end.verdicts if v.decision is Decision.REJECT)
        assert n_end >= n_rsr
        m_rsr = compute_metrics(per_rsr)
        m_end = compute_metrics(interval_end)
        assert m_rsr.p_detection == m_end.p_detection
        assert m_rsr.p_false_alarm == m_end.p_false_alarm
        assert m_rsr.p_false_alarm_per_cell == m_end.p_false_alarm_per_cell

    def test_interval_end_anomaly_is_cell_score(self):
        events = burst_events(ta=5, start=10.0, burst_id=0, n=10)
        profile = make_profile()
        report = run(trace_of(events), profile, DetectorConfig(gamma=4.0), 1, ScoringMode.INTERVAL_END)
        assert all(v.anomaly == 10.0 for v in report.verdicts)
        assert all(v.decision is Decision.REJECT for v in report.verdicts)


class TestRunValidation:
    @pytest.mark.parametrize(
        "mode, rejected, anomalies",
        [("per_rsr", [False, True, True], [1.0, 2.0, 3.0]), ("interval_end", [True] * 3, [3.0] * 3)],
    )
    def test_scoring_mode_given_by_value(self, mode, rejected, anomalies):
        events = burst_events(ta=5, start=10.0, burst_id=0, n=3)
        report = run(trace_of(events), make_profile(), DetectorConfig(gamma=1.5), 1, mode)
        assert report.verdicts.rejected.tolist() == rejected
        assert report.verdicts.anomaly.tolist() == anomalies

    def test_unknown_scoring_mode_rejected(self):
        events = burst_events(ta=5, start=10.0, burst_id=0, n=3)
        with pytest.raises(ValueError, match="bogus"):
            run(trace_of(events), make_profile(), DetectorConfig(gamma=1.5), 1, "bogus")

    def test_unsorted_trace_rejected(self):
        profile = make_profile()
        events = [
            RsrEvent(time_s=400.0, device_id=0, ta=1),
            RsrEvent(time_s=5.0, device_id=0, ta=1),
        ]
        with pytest.raises(ValueError):
            run(trace_of(events), profile, DetectorConfig(gamma=1.0), horizon_days=1)

    def test_trace_past_horizon_rejected(self):
        profile = make_profile()
        events = [RsrEvent(time_s=86400.5, device_id=0, ta=1)]
        with pytest.raises(ValueError, match="horizon"):
            run(trace_of(events), profile, DetectorConfig(gamma=1.0), horizon_days=1)


class TestArtifacts:
    def test_policy_log_schema(self, tmp_path):
        events = burst_events(ta=5, start=10.0, burst_id=0, n=20)
        profile = make_profile()
        report = run(trace_of(events), profile, DetectorConfig(gamma=6.5), horizon_days=1)
        path = tmp_path / "policies.jsonl"
        write_policy_log(path, report.policies)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert list(records[0]) == ["time_s", "slot", "ta", "action"]
        assert records[0]["action"] == "reject_all_ta"
        assert records[0]["ta"] == 5

    def test_summary_schema(self, tmp_path):
        events = burst_events(ta=5, start=10.0, burst_id=0, n=20)
        profile = make_profile()
        report = run(trace_of(events), profile, DetectorConfig(gamma=6.5), horizon_days=1)
        metrics = compute_metrics(report)
        path = tmp_path / "summary.json"
        write_json(path, asdict(metrics))
        summary = json.loads(path.read_text())
        assert list(summary) == [
            "gamma",
            "p_detection",
            "p_false_alarm",
            "p_false_alarm_per_cell",
            "numerators",
            "denominators",
        ]
        assert summary["gamma"] == 6.5
        assert summary["p_detection"] == 1.0

    def test_summary_null_p_detection(self, tmp_path):
        profile = make_profile()
        report = run(trace_of([]), profile, DetectorConfig(gamma=1.0), horizon_days=1)
        metrics = compute_metrics(report)
        path = tmp_path / "summary.json"
        write_json(path, asdict(metrics))
        assert json.loads(path.read_text())["p_detection"] is None
