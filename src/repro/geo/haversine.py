"""Great-circle distance (Haversine) and propagation delay.

The paper (Section VI-A) derives the propagation delay between two nodes as
the Haversine distance between their coordinates divided by a propagation
speed of :data:`~repro.types.PROPAGATION_SPEED_M_PER_S` (``2e8 m/s``).
"""

from __future__ import annotations

import math

from repro.geo.coordinates import GeoPoint
from repro.types import MS_PER_S, PROPAGATION_SPEED_M_PER_S

__all__ = [
    "EARTH_RADIUS_M",
    "haversine_m",
    "propagation_delay_ms",
]

#: Mean Earth radius in metres (IUGG).
EARTH_RADIUS_M: float = 6_371_000.0


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in metres.

    Uses the numerically stable Haversine formulation (Robusto, 1957 —
    reference [19] of the paper).

    >>> ny = GeoPoint(40.7128, -74.0060)
    >>> la = GeoPoint(34.0522, -118.2437)
    >>> 3.9e6 < haversine_m(ny, la) < 4.0e6
    True
    """
    phi1, phi2 = a.latitude_rad, b.latitude_rad
    dphi = phi2 - phi1
    dlam = b.longitude_rad - a.longitude_rad
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # Clamp for floating-point safety before the asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def propagation_delay_ms(
    a: GeoPoint,
    b: GeoPoint,
    speed_m_per_s: float = PROPAGATION_SPEED_M_PER_S,
) -> float:
    """One-way propagation delay between two points, in milliseconds."""
    if speed_m_per_s <= 0:
        raise ValueError(f"propagation speed must be positive: {speed_m_per_s!r}")
    return haversine_m(a, b) / speed_m_per_s * MS_PER_S

