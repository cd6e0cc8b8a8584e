"""Traffic engineering over recovered programmability (application layer)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.te.capacity": (
            "betweenness_capacities",
            "link_loads",
            "link_utilization",
            "max_link_utilization",
            "uniform_capacities",
        ),
        "repro.te.engineer": (
            "RerouteAction",
            "TrafficEngineer",
            "TrafficEngineeringResult",
        ),
        "repro.te.recovered": ("controllable_nodes", "programmable_switches"),
    },
)
