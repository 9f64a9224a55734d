"""stormsim benchmark: train -> run -> sweep -> readback on fixed traffic workloads.

    python3 perfbench/run.py --workload paper_default --seed 0 --seconds 30 --trace 0

Run from the root of a stormsim checkout; the package is imported from its
``src`` directory. Each round runs the four steps one after another, each in
a fresh interpreter (``step.py``) that times its own call, so a step's peak
RSS is that of a process running only that step. Rounds repeat until
``--seconds`` have passed; every figure is the median over the run's rounds.
The outputs of each round are checked against ``check.py``'s independent
recomputation. With ``--trace 1`` the steps also time the calls into each
module and the run reports the per-layer metrics instead of the end-to-end
ones. Every run leaves its round reports, spans included, in
``perfbench/work/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import selftest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
STEPS = ("train", "run", "sweep", "readback")
HARD_STOP_S = 170.0  # a run must end within 180 s
# step.calibrate()'s median time on the reference machine (README.md). Times
# are reported at that speed: each step's times are scaled by this over the
# mean of the calibrations its process ran just before and just after the call.
REFERENCE_CALIBRATION_S = 0.042
BASE_SEED_TRAIN, BASE_SEED_EVAL = 101, 202


def scenario(
    *,
    numerology_mu=2,
    interval_seconds=300,
    device_count=100,
    adversary_count=5,
    bursts_per_day=3.0,
    training_days=30,
    eval_days=20,
) -> dict:
    """A full scenario config; every key is written out so no program default is relied on."""
    return {
        "cell_radius_m": 2000.0,
        "numerology_mu": numerology_mu,
        "interval_seconds": interval_seconds,
        "legit": {"base_rate_per_hour": 5.0, "diurnal_amplitude": 0.35, "device_count": device_count},
        "attack": {
            "adversary_count": adversary_count,
            "bursts_per_day": bursts_per_day,
            "rsrs_per_burst": 100,
            "burst_window_s": 5.0,
        },
        "training_days": training_days,
        "eval_days": eval_days,
        "sigma_floor": 1.0,
        "gamma": 6.5,
        "gamma_grid": [i * 0.5 for i in range(21)],
        "scoring_mode": "per_rsr",
    }


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "paper_default": scenario(),
    "attack_storm": scenario(adversary_count=20, bursts_per_day=24.0, training_days=5, eval_days=1),
    "fine_profile": scenario(numerology_mu=3, interval_seconds=30, device_count=40, training_days=40, eval_days=2),
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "run_s": "s",
    "sweep_s": "s",
    "readback_s": "s",
    "train_peak_mib": "MiB",
    "run_peak_mib": "MiB",
    "sweep_peak_mib": "MiB",
}

# Per-layer times are the round's total time in spans of that name.
LAYER_SPANS = (
    "traffic.build_trace_train",
    "traffic.build_trace_eval",
    "profiler.count_per_interval",
    "profiler.train",
    "profiler.save_profile",
    "profiler.load_profile",
    "sweep.build_score_cache",
    "sweep.metrics_at",
    "detector.on_rsr",
    "pipeline.run",
    "pipeline.compute_metrics",
    "pipeline.write_policy_log",
    "core.write_trace",
    "core.read_trace",
    "cli.train",
    "cli.run",
    "cli.sweep",
)
LAYER_COUNTS = {
    "traffic.train_events": "count",
    "traffic.eval_events": "count",
    "traffic.eval_attack_events": "count",
    "traffic.bursts": "count",
    "traffic.eval_builds": "count",
    "profiler.table_cells": "count",
    "profiler.profile_rows": "count",
    "profiler.peak_mib": "MiB",
    "pipeline.policies": "count",
    "pipeline.rejected_events": "count",
    "core.trace_mib": "MiB",
}
PER_LAYER = {
    "config.parse_config_s": "s",
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{f"cli.{step}_self_s": "s" for step in STEPS[:3]},
    **LAYER_COUNTS,
}


def workload_config(name: str, seed: int) -> dict:
    """The workload's scenario with its two seeds derived from the benchmark seed."""
    return {
        **WORKLOADS[name],
        "seed_train": (BASE_SEED_TRAIN + 1000 * seed) % 2**64,
        "seed_eval": (BASE_SEED_EVAL + 1000 * seed) % 2**64,
    }


def run_step(step: str, work: Path, traced: bool, deadline: float) -> dict:
    """One step in a fresh interpreter; returns its report, or one with ``error`` set."""
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    spec = {"step": step, "dir": str(work), "src": str(SRC), "trace": traced}
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "step.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{step} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{step} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    if report["rc"] != 0:
        report["error"] = f"stormsim {step} returned {report['rc']}: {proc.stderr.strip()[-2000:]}"
    return report


class OutputChecker:
    """Checks each step's outputs; identical outputs reuse the verdict they got before."""

    def __init__(self, config: dict):
        self.config = config
        self.verdicts: dict[tuple, list[str]] = {}

    def check(self, work: Path, reports: dict) -> dict[str, list[str]]:
        names = ("profile.csv", "out/trace.jsonl", "out/bursts.json", "out/policies.jsonl",
                 "out/summary.json", "sweep.csv")
        texts = {name: (work / name).read_text() if (work / name).is_file() else None for name in names}
        digest = {name: hashlib.sha256((t or "").encode()).hexdigest() for name, t in texts.items()}
        needs = {
            "train": ("profile.csv",),
            "run": ("profile.csv", "out/trace.jsonl", "out/bursts.json", "out/policies.jsonl", "out/summary.json"),
            "sweep": ("profile.csv", "out/trace.jsonl", "sweep.csv"),
            "readback": ("out/trace.jsonl", "out/summary.json"),
        }
        readback = json.dumps(reports["readback"].get("readback"), sort_keys=True)
        results, parsed = {}, {}
        for step, names in needs.items():
            key = (step, readback if step == "readback" else None, *(digest[n] for n in names))
            if key not in self.verdicts:
                missing = [n for n in names if texts[n] is None]
                try:
                    failures = [f"{n} missing" for n in missing] or self._check(step, texts, parsed, reports)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    failures = [f"{step} outputs unreadable: {exc!r}"]
                self.verdicts[key] = failures
            results[step] = self.verdicts[key]
        return results

    def _check(self, step: str, texts: dict, parsed: dict, reports: dict) -> list[str]:
        config = self.config
        if "profile" not in parsed:
            parsed["profile"] = check.parse_profile(texts["profile.csv"])
        if step == "train":
            return check.check_profile(config, parsed["profile"])
        if "trace" not in parsed:
            parsed["trace"] = check.parse_trace(texts["out/trace.jsonl"])
            parsed["scored"] = check.Scored(parsed["trace"], parsed["profile"], config)
        trace, scored = parsed["trace"], parsed["scored"]
        if step == "sweep":
            return check.check_sweep(config, scored, check.parse_sweep(texts["sweep.csv"]))
        summary = json.loads(texts["out/summary.json"])
        if step == "readback":
            return check.check_readback(trace, summary, reports["readback"].get("readback") or {})
        bursts = json.loads(texts["out/bursts.json"])
        policies = check.parse_policies(texts["out/policies.jsonl"])
        return check.check_run(config, scored, bursts, policies, summary) + check.check_traffic(
            config, trace, bursts
        )


def run_round(work: Path, traced: bool, deadline: float) -> dict:
    for stale in ("profile.csv", "sweep.csv"):
        (work / stale).unlink(missing_ok=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    reports = {}
    for step in STEPS:
        if any("error" in r for r in reports.values()):
            reports[step] = {"error": "not run: an earlier step failed"}
        else:
            reports[step] = run_step(step, work, traced, deadline)
    return reports


def scaled(report: dict, seconds: float) -> float:
    """A time from one step's process, at the reference machine speed."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.mean(report["calibration_s"])


def layer_figures(reports: dict) -> dict:
    """One round's per-layer figures from its steps' spans and counts."""
    totals = dict.fromkeys(LAYER_SPANS, 0.0)
    figures: dict = {}
    for step, report in reports.items():
        spans = report.get("spans", [])
        for name, _parent, start, end in spans:
            if name in totals:
                totals[name] += scaled(report, end - start)
            if name == "traffic.build_trace_eval":
                figures["traffic.eval_builds"] = figures.get("traffic.eval_builds", 0) + 1
        for i, (name, _parent, start, end) in enumerate(spans):
            if name == f"cli.{step}":
                children = sum(e - s for _n, p, s, e in spans if p == i)
                figures[f"cli.{step}_self_s"] = scaled(report, (end - start) - children)
        figures.update(report.get("counts", {}))
    figures.update({f"{name}_s": total for name, total in totals.items()})
    figures["config.parse_config_s"] = statistics.median(
        scaled(r, r["parse_config_s"]) for r in reports.values()
    )
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + HARD_STOP_S
    if not (SRC / "stormsim" / "__init__.py").is_file():
        print(f"error: no stormsim package under {SRC}", file=sys.stderr)
        return 2

    failures = selftest.run()
    if failures:
        print("error: the benchmark's own checks failed their self-test:", *failures, sep="\n  ", file=sys.stderr)
        return 2

    config = workload_config(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    checker = OutputChecker(config)
    rounds, failed, wrong_outputs = [], 0, False
    try:
        measure_start = time.monotonic()
        while True:
            reports = run_round(work, bool(args.trace), deadline)
            verdicts = checker.check(work, reports)
            rounds.append(reports)
            for step in STEPS:
                problems = ([reports[step]["error"]] if "error" in reports[step] else []) + verdicts[step]
                failed += bool(problems)
                wrong_outputs |= bool(verdicts[step]) and "error" not in reports[step]
                if problems:
                    print(f"{step} failed:", *problems[:5], sep="\n  ", file=sys.stderr)
            now = time.monotonic()
            timed_out = any("timed out" in r.get("error", "") for r in reports.values())
            if now - measure_start >= args.seconds or now >= deadline or timed_out:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_rounds = [r for r in rounds if not any("error" in s for s in r.values())]
    if not ok_rounds:
        print("error: no round completed, nothing was measured", file=sys.stderr)
        return 1
    if args.trace:
        per_round = [layer_figures(r) for r in ok_rounds]
        values = {
            name: (statistics.median_low if name in LAYER_COUNTS else statistics.median)(f[name] for f in per_round)
            for name in PER_LAYER
        }
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(scaled(s, s["setup_s"]) for r in ok_rounds for s in r.values()),
            **{f"{step}_s": statistics.median(scaled(r[step], r[step]["step_s"]) for r in ok_rounds) for step in STEPS},
            **{f"{step}_peak_mib": statistics.median(r[step]["peak_mib"] for r in ok_rounds) for step in STEPS[:3]},
        }
        units = END_TO_END
    # Every round's step reports (with their spans when traced), for reference.
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"config": config, "rounds": rounds, "metrics": values}))
    print(
        json.dumps(
            {
                "correct": not wrong_outputs,
                "attempted": len(STEPS) * len(rounds),
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
