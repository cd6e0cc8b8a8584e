"""Routing substrate: shortest paths, k-paths, legacy tables, path counting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.routing.kpaths": ("k_shortest_paths", "path_weight"),
        "repro.routing.ospf": ("LegacyRoutingTable", "compute_legacy_tables"),
        "repro.routing.path_count": (
            "BoundedSimplePathCounter",
            "LoopFreeAlternateCounter",
            "PathCounter",
            "ShortestDagCounter",
            "make_counter",
        ),
        "repro.routing.programmability": ("ProgrammabilityModel",),
        "repro.routing.shortest": (
            "delay_distances_to",
            "hop_distances_to",
            "shortest_path_dag",
            "weight_attribute",
        ),
    },
)
