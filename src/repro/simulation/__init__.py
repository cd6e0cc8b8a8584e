"""Discrete-event simulation: engine + recovery timeline."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simulation.engine": ("SimulationError", "Simulator"),
        "repro.simulation.timeline": (
            "TimelineParameters",
            "TimelineReport",
            "simulate_recovery_timeline",
        ),
    },
)
