"""Geographic primitives: coordinates, great-circle distance, delays.

The paper computes controller-switch propagation delays from node
latitude/longitude using the Haversine formula and a propagation speed of
``2e8 m/s`` (Section VI-A).  This package provides those primitives.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.geo.coordinates": ("GeoPoint",),
        "repro.geo.haversine": (
            "EARTH_RADIUS_M",
            "haversine_m",
            "propagation_delay_ms",
        ),
    },
)
