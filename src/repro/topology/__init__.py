"""Topology models, the embedded ATT backbone, parsers, and generators."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.att": (
            "ATT_CONTROLLER_SITES",
            "ATT_DEFAULT_CAPACITY",
            "ATT_DOMAINS",
            "ATT_EDGES",
            "ATT_NODES",
            "att_topology",
        ),
        "repro.topology.generators": (
            "grid_topology",
            "ring_topology",
            "star_topology",
            "waxman_topology",
        ),
        "repro.topology.gml_writer": ("save_gml", "to_gml"),
        "repro.topology.graph": ("NodeInfo", "Topology"),
        "repro.topology.partition": (
            "balanced_partition",
            "nearest_site_partition",
            "validate_partition",
        ),
        "repro.topology.zoo": ("load_zoo_topology", "loads_zoo_topology", "parse_gml"),
    },
)
