"""Operator entry point: train profiles, replay a single threshold, sweep many.

Scenario parameters live in a JSON config document; flags only select the
command, paths and seed overrides.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, config_to_dict, parse_config
from .core import write_json, write_trace
from .detector import DetectorConfig
from .pipeline import compute_metrics, run, write_policy_log
from .profiler import count_per_interval, load_profile, save_profile, train
from .sweep import run_experiment, write_sweep_csv
from .traffic import build_trace


def _check_profile_matches(profile, config: ScenarioConfig) -> None:
    if profile.interval_seconds != config.interval_seconds or profile.max_ta != config.max_ta:
        raise ConfigError(
            f"profile/config mismatch: profile has interval_seconds="
            f"{profile.interval_seconds}, max_ta={profile.max_ta}; config expects "
            f"interval_seconds={config.interval_seconds}, max_ta={config.max_ta}"
        )


def cmd_train(config: ScenarioConfig, out_path: str) -> int:
    """Generate clean training traffic, fit the profile, write it as CSV."""
    trace, _bursts, _layout = build_trace(
        config, seed=config.seed_train, days=config.training_days, include_attacks=False
    )
    counts = count_per_interval(trace, config.interval_seconds, config.max_ta, config.training_days)
    profile = train(counts)
    save_profile(profile, out_path)
    populated = int(np.count_nonzero((profile.mean != 0.0) | (profile.std != 0.0)))
    print(
        f"trained on {len(trace)} events over {config.training_days} days; "
        f"{populated} populated cells -> {out_path}"
    )
    return 0


def cmd_run(config: ScenarioConfig, profile_path: str, out_dir: str) -> int:
    """Replay the evaluation trace at config.gamma and write all run artifacts."""
    profile = load_profile(profile_path)
    _check_profile_matches(profile, config)
    trace, bursts, layout = build_trace(
        config, seed=config.seed_eval, days=config.eval_days, include_attacks=True
    )
    report = run(
        trace,
        profile,
        DetectorConfig(gamma=config.gamma, sigma_floor=config.sigma_floor),
        config.eval_days,
        config.scoring_mode,
    )
    metrics = compute_metrics(report)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.jsonl", trace, report.verdicts)
    write_json(out / "bursts.json", list(map(asdict, bursts)))
    write_policy_log(out / "policies.jsonl", report.policies)
    write_json(out / "summary.json", asdict(metrics))
    write_json(out / "scenario.json", {"config": config_to_dict(config), "layout": asdict(layout)})

    p_detection = "undefined" if metrics.p_detection is None else f"{metrics.p_detection:.6g}"
    print(
        f"gamma={config.gamma}: p_detection={p_detection}, "
        f"p_false_alarm={metrics.p_false_alarm:.6g} -> {out}"
    )
    return 0


def cmd_sweep(config: ScenarioConfig, out_csv: str, profile_path: str | None = None) -> int:
    """Sweep the gamma grid; trains in-process unless a profile file is given."""
    profile = None
    if profile_path is not None:
        profile = load_profile(profile_path)
        _check_profile_matches(profile, config)
    rows = run_experiment(config, profile=profile)
    write_sweep_csv(rows, out_csv)
    print(f"swept {len(rows)} thresholds -> {out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormsim",
        description="Simulate signaling-storm traffic in one 5G IIoT cell and "
        "evaluate TA-profile anomaly detection.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", metavar="PATH", help="scenario JSON (defaults when omitted)")
        sub.add_argument("--seed-train", type=int, metavar="N", help="override config seed_train")
        sub.add_argument("--seed-eval", type=int, metavar="N", help="override config seed_eval")

    sub_train = subparsers.add_parser("train", help="fit a KPI profile from clean traffic")
    add_common(sub_train)
    sub_train.add_argument("--out", metavar="PATH", required=True, help="profile CSV output")

    sub_run = subparsers.add_parser("run", help="replay the evaluation trace at one gamma")
    add_common(sub_run)
    sub_run.add_argument("--profile", metavar="PATH", required=True, help="trained profile CSV")
    sub_run.add_argument("--out", metavar="DIR", required=True, help="output directory")

    sub_sweep = subparsers.add_parser("sweep", help="sweep the gamma grid, write curve CSV")
    add_common(sub_sweep)
    sub_sweep.add_argument(
        "--profile", metavar="PATH", help="trained profile CSV (retrains when omitted)"
    )
    sub_sweep.add_argument("--out", metavar="PATH", required=True, help="sweep CSV output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else ScenarioConfig()
        if args.seed_train is not None:
            config = replace(config, seed_train=args.seed_train)
        if args.seed_eval is not None:
            config = replace(config, seed_eval=args.seed_eval)
        if args.command == "train":
            return cmd_train(config, args.out)
        if args.command == "run":
            return cmd_run(config, args.profile, args.out)
        return cmd_sweep(config, args.out, args.profile)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
