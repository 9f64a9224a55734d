"""Run one stormsim pipeline step in a fresh interpreter and report it as JSON.

    python3 perfbench/step.py '<spec>'

``spec`` is a JSON object: ``step`` (train, run, sweep or readback), ``dir``
(the round's work directory, holding ``config.json``), ``src`` (the
directory stormsim must be imported from), ``spawned_at`` (the launcher's
``time.monotonic()`` just before it started this process) and ``trace``.

Every time is taken in this process around the call. ``setup_s`` runs from
launch until stormsim is imported and the config is parsed.
``calibration_s`` holds the times of a fixed loop run just before and just
after the call, from which the launcher scales the step's times to a
reference machine speed. With ``trace``
the step also times the calls into each module's public functions, by
wrapping them where ``stormsim.cli`` and ``stormsim.sweep`` look them up, and
counts what they produced. The last line of standard output is the report.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

MIB = 1024 * 1024
CALIBRATION_ITERATIONS = 200_000


class Tracer:
    """Spans kept in memory: [name, parent span index or None, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, tuple] = {}  # span name -> (args, kwargs, result) of its last call
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.spans.append([name, self._open[-1] if self._open else None, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name) -> None:
        """Replace ``module.attr`` by a timed call; ``name`` may be a function of the arguments."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name):
                result = original(*args, **kwargs)
            self.calls[span_name] = (args, kwargs, result)
            return result

        setattr(module, attr, traced)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that touches no stormsim code.

    It gauges how fast this machine runs Python right now, next to the call.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def _build_trace_name(*_args, include_attacks=True, **_kwargs) -> str:
    return "traffic.build_trace_eval" if include_attacks else "traffic.build_trace_train"


def install_wrappers(tracer: Tracer) -> None:
    import stormsim.cli as cli
    import stormsim.sweep as sweep

    for module in (cli, sweep):
        tracer.wrap(module, "build_trace", _build_trace_name)
    for attr, name in (
        ("count_per_interval", "profiler.count_per_interval"),
        ("train", "profiler.train"),
        ("save_profile", "profiler.save_profile"),
        ("load_profile", "profiler.load_profile"),
        ("run", "pipeline.run"),
        ("compute_metrics", "pipeline.compute_metrics"),
        ("write_policy_log", "pipeline.write_policy_log"),
        ("write_trace", "core.write_trace"),
    ):
        tracer.wrap(cli, attr, name)
    tracer.wrap(sweep, "build_score_cache", "sweep.build_score_cache")
    tracer.wrap(sweep, "metrics_at", "sweep.metrics_at")


def traced_counts(step: str, tracer: Tracer, work: Path) -> dict:
    """What the step's layers produced, plus the benchmark-driven layer passes."""
    import numpy as np
    from stormsim import detector, profiler
    from stormsim.core import Decision

    calls, counts = tracer.calls, {}
    if step == "train":
        counts["traffic.train_events"] = len(calls["traffic.build_trace_train"][2][0])
        counts["profiler.table_cells"] = int(calls["profiler.count_per_interval"][2].size)
        profile = calls["profiler.train"][2]
        counts["profiler.profile_rows"] = int(np.count_nonzero((profile.mean != 0) | (profile.std != 0)))
        # Peak traced memory of histogram plus fold, on the same inputs, untimed.
        args, kwargs, _ = calls.pop("profiler.count_per_interval")
        calls.clear()
        del profile
        tracemalloc.start()
        profiler.train(profiler.count_per_interval(*args, **kwargs))
        counts["profiler.peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
    elif step == "run":
        trace, bursts, _layout = calls["traffic.build_trace_eval"][2]
        counts["traffic.eval_events"] = len(trace)
        counts["traffic.eval_attack_events"] = sum(1 for e in trace if e.burst_id is not None)
        counts["traffic.bursts"] = len(bursts)
        (trace, profile, config, *_), _kwargs, report = calls["pipeline.run"]
        counts["pipeline.policies"] = len(report.policies)
        counts["pipeline.rejected_events"] = sum(
            1 for v in report.verdicts if v.decision is Decision.REJECT
        )
        counts["core.trace_mib"] = os.path.getsize(work / "out" / "trace.jsonl") / MIB
        # The online xApp path: on_rsr fed one event at a time.
        state = detector.DetectorState()
        with tracer.span("detector.on_rsr"):
            for event in trace:
                detector.on_rsr(event, profile, config, state)
    return counts


def peak_rss_mib() -> float:
    """This process's peak resident set since exec (VmHWM).

    Not ``ru_maxrss``: Linux carries the launcher's high-water mark across the
    fork and exec into it, so a large launcher would inflate every step.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(spec: dict) -> dict:
    work = Path(spec["dir"])
    import stormsim.cli
    from stormsim.config import parse_config
    from stormsim.core import Decision, read_trace

    if Path(stormsim.cli.__file__).resolve().parent != Path(spec["src"]).resolve() / "stormsim":
        raise SystemExit(f"stormsim imported from {stormsim.cli.__file__}, not from {spec['src']}")
    tracer = Tracer() if spec["trace"] else None
    parse_start = time.perf_counter()
    parse_config(work / "config.json")
    report = {
        "setup_s": time.monotonic() - spec["spawned_at"],
        "parse_config_s": time.perf_counter() - parse_start,
    }
    if tracer:
        install_wrappers(tracer)

    config, profile, out = str(work / "config.json"), str(work / "profile.csv"), work / "out"
    argv = {
        "train": ["train", "--config", config, "--out", profile],
        "run": ["run", "--config", config, "--profile", profile, "--out", str(out)],
        "sweep": ["sweep", "--config", config, "--profile", profile, "--out", str(work / "sweep.csv")],
    }.get(spec["step"])
    span = tracer.span(f"cli.{spec['step']}" if argv else "core.read_trace") if tracer else nullcontext()
    before = calibrate()
    start = time.perf_counter()
    with span:
        if argv:
            rc = stormsim.cli.main(argv)
        else:
            events, verdicts = read_trace(out / "trace.jsonl")
            rc = 0
    report["step_s"] = time.perf_counter() - start
    report["calibration_s"] = [before, calibrate()]
    if not argv:
        rejected = [v.decision is Decision.REJECT for v in verdicts or []]
        attack = [e.burst_id is not None for e in events]
        report["readback"] = {
            "events": len(events),
            "rejects": sum(rejected),
            "attack_events": sum(attack),
            "rejected_attack_events": sum(a and r for a, r in zip(attack, rejected)),
        }
    report["peak_mib"] = peak_rss_mib()
    report["rc"] = rc
    if tracer:
        report["counts"] = traced_counts(spec["step"], tracer, work) if rc == 0 else {}
        report["spans"] = tracer.spans
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
