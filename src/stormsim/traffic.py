"""Workload synthesis: diurnal Poisson requests from legitimate devices plus
burst attacks from adversaries, merged into one deterministic labeled trace.

Every device owns an RNG substream keyed by (master seed, stream kind,
device index), so changing one population's size never reshuffles another's
arrivals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .config import AttackSpec, LegitTrafficSpec, ScenarioConfig
from .core import SECONDS_PER_DAY, Trace
from .geometry import TaQuantizer, place_devices, ta_index

_TWO_PI = 2.0 * math.pi

_STREAM_LEGIT_PLACEMENT = 0
_STREAM_ADVERSARY_PLACEMENT = 1
_STREAM_LEGIT_TRAFFIC = 2
_STREAM_ATTACK_TRAFFIC = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key), stable across unrelated config changes."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


@dataclass(frozen=True)
class Burst:
    """One attack: a fixed-size volley of requests inside a short window.

    ``event_times`` holds the in-horizon arrival times, sorted ascending; a
    burst whose window crosses the horizon keeps only the times before it.
    """

    burst_id: int
    adversary_id: int
    start_s: float
    window_s: float
    event_times: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.event_times)


@dataclass(frozen=True)
class PlacedDevice:
    device_id: int
    distance_m: float
    ta: int


@dataclass(frozen=True)
class CellLayout:
    """Where every device ended up, and hence which TA bin it owns."""

    legit: tuple[PlacedDevice, ...]
    adversaries: tuple[PlacedDevice, ...]


def diurnal_rate(
    time_s: Union[float, np.ndarray], spec: LegitTrafficSpec
) -> Union[float, np.ndarray]:
    """Requests per hour at a simulation time.

    base * (1 - amplitude * cos(2*pi*tod/day)): trough exactly at midnight,
    peak exactly at noon.
    """
    tod = np.asarray(time_s, dtype=float) % SECONDS_PER_DAY
    rate = spec.base_rate_per_hour * (
        1.0 - spec.diurnal_amplitude * np.cos(_TWO_PI * tod / SECONDS_PER_DAY)
    )
    if np.ndim(time_s) == 0:
        return float(rate)
    return rate


def gen_legit_events(spec: LegitTrafficSpec, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
    """One device's arrival times, ascending: a non-homogeneous Poisson
    process over the horizon.

    Thinning against the constant majorant base*(1+amplitude): candidates come
    from a homogeneous process at the peak rate and survive with probability
    rate(t)/peak.
    """
    if horizon_s < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon_s!r}")
    if horizon_s == 0:
        return np.empty(0)
    peak_per_hour = spec.base_rate_per_hour * (1.0 + spec.diurnal_amplitude)
    n_candidates = int(rng.poisson(peak_per_hour / 3600.0 * horizon_s))
    times = rng.uniform(0.0, horizon_s, n_candidates)
    times.sort()
    keep = rng.random(n_candidates) * peak_per_hour < diurnal_rate(times, spec)
    return times[keep]


def gen_attack_bursts(
    adversary_id: int,
    spec: AttackSpec,
    horizon_s: float,
    rng: np.random.Generator,
) -> list[Burst]:
    """One adversary's bursts: onsets form a Poisson process of bursts_per_day.

    Each burst carries ``rsrs_per_burst`` i.i.d.-uniform times inside its
    window, sorted; bursts starting before the horizon are kept, with any
    event past the horizon truncated. Burst ids are per-adversary ordinals
    and get relabeled globally when traces are assembled.
    """
    if horizon_s < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon_s!r}")
    if horizon_s == 0:
        return []
    onset_rate_per_s = spec.bursts_per_day / SECONDS_PER_DAY
    n_bursts = int(rng.poisson(onset_rate_per_s * horizon_s))
    starts = rng.uniform(0.0, horizon_s, n_bursts)
    starts.sort()
    bursts = []
    for k, start in enumerate(starts):
        offsets = rng.uniform(0.0, spec.burst_window_s, spec.rsrs_per_burst)
        offsets.sort()
        times = tuple(float(start + o) for o in offsets if start + o < horizon_s)
        bursts.append(
            Burst(
                burst_id=k,
                adversary_id=adversary_id,
                start_s=float(start),
                window_s=spec.burst_window_s,
                event_times=times,
            )
        )
    return bursts


def derive_layout(config: ScenarioConfig, seed: int, include_attacks: bool = True) -> CellLayout:
    """Place all devices for a trace seed and fix their TA bins."""
    quantizer = TaQuantizer(config.numerology_mu)

    def placed(count: int, stream: int, first_id: int) -> tuple[PlacedDevice, ...]:
        radii = place_devices(count, config.cell_radius_m, substream(seed, stream)).tolist()
        return tuple(PlacedDevice(first_id + i, r, ta_index(r, quantizer)) for i, r in enumerate(radii))

    legit = placed(config.legit.device_count, _STREAM_LEGIT_PLACEMENT, 0)
    adversaries: tuple[PlacedDevice, ...] = ()
    if include_attacks and config.attack.adversary_count > 0:
        adversaries = placed(
            config.attack.adversary_count, _STREAM_ADVERSARY_PLACEMENT, config.legit.device_count
        )
    return CellLayout(legit=legit, adversaries=adversaries)


def build_trace(
    config: ScenarioConfig,
    *,
    seed: int,
    days: int,
    include_attacks: bool = True,
) -> tuple[Trace, list[Burst], CellLayout]:
    """Generate the merged, time-ordered labeled trace for one scenario seed.

    Events are ordered by (time, device_id, per-device sequence), so the
    order is a deterministic function of seed and configuration. Burst ids
    are global, assigned by (start time, adversary id).
    """
    if days < 0:
        raise ValueError(f"days must be non-negative, got {days!r}")
    horizon_s = float(days) * SECONDS_PER_DAY
    layout = derive_layout(config, seed, include_attacks)

    # One block of times per legit device and one per burst, each with its device and burst id.
    owners = list(layout.legit)
    time_blocks = [
        gen_legit_events(config.legit, horizon_s, substream(seed, _STREAM_LEGIT_TRAFFIC, dev.device_id))
        for dev in layout.legit
    ]
    block_bursts = [-1] * len(time_blocks)

    bursts: list[Burst] = []
    if include_attacks:
        raw: list[Burst] = []
        for j, dev in enumerate(layout.adversaries):
            rng = substream(seed, _STREAM_ATTACK_TRAFFIC, j)
            raw.extend(gen_attack_bursts(dev.device_id, config.attack, horizon_s, rng))
        raw.sort(key=lambda b: (b.start_s, b.adversary_id))
        bursts = [replace(b, burst_id=i) for i, b in enumerate(raw)]
        adversary = {dev.device_id: dev for dev in layout.adversaries}
        owners += [adversary[b.adversary_id] for b in bursts]
        time_blocks += [np.array(b.event_times, dtype=float) for b in bursts]
        block_bursts += [b.burst_id for b in bursts]

    sizes = [times.size for times in time_blocks]
    time_s = np.concatenate([np.empty(0), *time_blocks])
    del time_blocks  # copied into time_s; freed before the columns below are built
    device_id = np.repeat(np.array([dev.device_id for dev in owners], dtype=np.int64), sizes)
    ta = np.repeat(np.array([dev.ta for dev in owners], dtype=np.int64), sizes)
    burst_id = np.repeat(np.array(block_bursts, dtype=np.int64), sizes)
    # A device's sequence runs in time order, and in burst id order among
    # equal times, so rows tied on (time, device_id, burst_id) are identical.
    order = np.lexsort((burst_id, device_id, time_s))
    columns = (time_s, device_id, ta, burst_id)
    for column in columns:  # in place, so no second set of columns outlives the sort
        column[:] = column[order]
    return Trace._adopt(*columns), bursts, layout


def write_bursts_json(path, bursts: list[Burst]) -> None:
    """Ground-truth burst list as JSON: id, adversary, start, window, count."""
    records = [
        {
            "burst_id": b.burst_id,
            "adversary_id": b.adversary_id,
            "start_s": b.start_s,
            "window_s": b.window_s,
            "count": b.count,
        }
        for b in bursts
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def layout_to_dict(layout: CellLayout) -> dict:
    def rows(devices: tuple[PlacedDevice, ...]) -> list[dict]:
        return [
            {"device_id": d.device_id, "distance_m": d.distance_m, "ta": d.ta} for d in devices
        ]

    return {"legit": rows(layout.legit), "adversaries": rows(layout.adversaries)}
