"""Cell geometry: radial device placement and distance-to-TA quantization.

Stationary devices keep one timing-advance index for the whole simulation,
so the TA bin acts as a stable per-device fingerprint. The quantization step
follows the NR MAC timing-advance granularity: 16 * 64 basic time units,
scaled down by the subcarrier numerology, halved once more because the
command covers the round trip.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
# NR basic time unit Tc = 1 / (480 kHz * 4096)
BASIC_TIME_UNIT_S = 1.0 / (480_000.0 * 4096.0)


def ta_step_m(numerology_mu: int) -> float:
    """One TA step in metres: ~78 m at mu=0, halving per numerology increment."""
    if numerology_mu not in (0, 1, 2, 3):
        raise ValueError(f"numerology_mu must be one of 0..3, got {numerology_mu!r}")
    return SPEED_OF_LIGHT_M_S * 16.0 * 64.0 * BASIC_TIME_UNIT_S / (2.0 * 2.0**numerology_mu)


def place_devices(count: int, cell_radius_m: float, rng: np.random.Generator) -> np.ndarray:
    """Distances to the gNB of ``count`` devices dropped i.i.d. uniform over
    the disk of the given radius; the angle never matters for TA.

    Uniform area density: radius = R * sqrt(u) with u uniform on [0, 1).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count!r}")
    if cell_radius_m <= 0:
        raise ValueError(f"cell_radius_m must be positive, got {cell_radius_m!r}")
    return cell_radius_m * np.sqrt(rng.random(count))


def ta_index(distance_m: float, numerology_mu: int) -> int:
    """Quantize a distance to its TA index: floor(distance / step). Noiseless.

    Exact Python integer arithmetic, so a huge distance gives its true bin
    count rather than a wrapped one; the cell radius gives the last TA bin.
    """
    if distance_m < 0:
        raise ValueError(f"distance_m must be non-negative, got {distance_m!r}")
    return int(distance_m // ta_step_m(numerology_mu))
