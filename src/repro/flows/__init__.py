"""Flow model and workload generation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.flows.demands": (
            "all_pairs_flows",
            "flows_from_pairs",
            "gravity_demands",
            "random_pairs_flows",
            "shortest_path",
        ),
        "repro.flows.flow": ("Flow",),
        "repro.flows.paths": (
            "flows_by_id",
            "flows_through",
            "path_delay_ms",
            "switch_flow_counts",
            "validate_path",
        ),
    },
)
