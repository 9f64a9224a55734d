"""Workload synthesis: diurnal Poisson requests from legitimate devices plus
burst attacks from adversaries, merged into one deterministic labeled trace.

Every device owns an RNG substream keyed by (master seed, stream kind,
device index), so changing one population's size never reshuffles another's
arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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

    ``count`` is the number of its requests in the trace: a burst whose
    window crosses the horizon keeps only the ones before it. The fields, in
    this order, are the keys of each record of ``bursts.json``.
    """

    burst_id: int
    adversary_id: int
    start_s: float
    window_s: float
    count: int


@dataclass(frozen=True)
class PlacedDevice:
    """One device and its TA bin: the fields, in this order, of a layout entry in ``scenario.json``."""

    device_id: int
    distance_m: float
    ta: int


@dataclass(frozen=True)
class CellLayout:
    """Where every device ended up: the fields, in this order, of ``scenario.json``'s layout."""

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
    spec: AttackSpec, horizon_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One adversary's bursts: onsets form a Poisson process of bursts_per_day.

    Returns the ascending onsets and an (onsets x rsrs_per_burst) matrix
    whose row k holds burst k's i.i.d.-uniform times inside its window,
    sorted. Times at or past the horizon are left in; ``build_trace`` cuts
    them.
    """
    if horizon_s < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon_s!r}")
    onset_rate_per_s = spec.bursts_per_day / SECONDS_PER_DAY
    n_bursts = int(rng.poisson(onset_rate_per_s * horizon_s))
    starts = rng.uniform(0.0, horizon_s, n_bursts)
    starts.sort()
    # one (n, k) draw is the same stream as n draws of k
    offsets = rng.uniform(0.0, spec.burst_window_s, (n_bursts, spec.rsrs_per_burst))
    offsets.sort(axis=1)
    return starts, starts[:, None] + offsets


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

    devices = layout.legit + layout.adversaries
    device_ids = np.array([dev.device_id for dev in devices], dtype=np.int64)
    device_tas = np.array([dev.ta for dev in devices], dtype=np.int64)

    # time_s runs in one stretch per legit device, then one per burst: sizes,
    # owner (index in devices) and owner_burst (-1 for legit) describe them.
    time_blocks = [
        gen_legit_events(config.legit, horizon_s, substream(seed, _STREAM_LEGIT_TRAFFIC, dev.device_id))
        for dev in layout.legit
    ]
    sizes = np.array([times.size for times in time_blocks], dtype=np.int64)
    owner = np.arange(len(layout.legit))
    owner_burst = np.full(len(layout.legit), -1, dtype=np.int64)

    bursts: list[Burst] = []
    if layout.adversaries:
        starts, times = zip(
            *(
                gen_attack_bursts(config.attack, horizon_s, substream(seed, _STREAM_ATTACK_TRAFFIC, j))
                for j in range(len(layout.adversaries))
            )
        )
        adversary = len(layout.legit) + np.repeat(np.arange(len(starts)), [s.size for s in starts])
        starts, times = np.concatenate(starts), np.concatenate(times)
        order = np.lexsort((adversary, starts))  # burst ids by (start time, adversary)
        adversary, starts, times = adversary[order], starts[order], times[order]
        in_horizon = times < horizon_s
        counts = np.count_nonzero(in_horizon, axis=1)
        time_blocks.append(times[in_horizon])  # row-major: burst by burst, each ascending
        sizes = np.concatenate([sizes, counts])
        owner = np.concatenate([owner, adversary])
        owner_burst = np.concatenate([owner_burst, np.arange(starts.size)])
        window = repeat(config.attack.burst_window_s)
        bursts = list(
            map(Burst, range(starts.size), device_ids[adversary].tolist(), starts.tolist(), window, counts.tolist())
        )

    time_s = np.concatenate([np.empty(0), *time_blocks])
    del time_blocks  # copied into time_s; freed before the columns below are built
    device_id = np.repeat(device_ids[owner], sizes)
    ta = np.repeat(device_tas[owner], sizes)
    burst_id = np.repeat(owner_burst, sizes)
    # A device's sequence runs in time order, and in burst id order among
    # equal times, so rows tied on (time, device_id, burst_id) are identical.
    order = np.lexsort((burst_id, device_id, time_s))
    columns = (time_s, device_id, ta, burst_id)
    for column in columns:  # in place, so no second set of columns outlives the sort
        column[:] = column[order]
    return Trace._adopt(*columns), bursts, layout
