"""Legacy (OSPF-style) destination-based routing tables.

When a flow runs in legacy mode on the hybrid pipeline (Fig. 2(c) of the
paper), the switch forwards it by destination using an OSPF routing table.
OSPF computes per-destination shortest paths over link costs; here the
cost metric defaults to propagation delay, matching the flow workload's
shortest paths so that legacy-mode flows stay on their original paths.
"""

from __future__ import annotations

from repro.exceptions import RoutingError
from repro.routing.shortest import single_source_paths, weight_attribute
from repro.topology.graph import Topology
from repro.types import NodeId

__all__ = ["LegacyRoutingTable", "compute_legacy_tables"]


class LegacyRoutingTable:
    """Destination → next-hop map for one switch."""

    def __init__(self, switch: NodeId, next_hops: dict[NodeId, NodeId]) -> None:
        self._switch = switch
        self._next_hops = dict(next_hops)

    @property
    def switch(self) -> NodeId:
        """The switch this table belongs to."""
        return self._switch

    def next_hop(self, dst: NodeId) -> NodeId:
        """Next hop toward ``dst``.

        Raises :class:`RoutingError` for the switch's own address or an
        unknown destination.
        """
        if dst == self._switch:
            raise RoutingError(f"switch {self._switch!r} is itself the destination")
        try:
            return self._next_hops[dst]
        except KeyError:
            raise RoutingError(
                f"switch {self._switch!r} has no legacy route to {dst!r}"
            ) from None

    def destinations(self) -> tuple[NodeId, ...]:
        """All routable destinations, sorted."""
        return tuple(sorted(self._next_hops))

    def __len__(self) -> int:
        return len(self._next_hops)

    def __repr__(self) -> str:
        return f"LegacyRoutingTable(switch={self._switch}, routes={len(self)})"


def compute_legacy_tables(
    topology: Topology, weight: str = "delay"
) -> dict[NodeId, LegacyRoutingTable]:
    """OSPF-style routing tables for every switch.

    For each destination the next hop is the first hop of the (unique,
    deterministic) shortest path under ``weight``.  Using the same metric
    as flow generation guarantees that a legacy-mode flow keeps following
    its original forwarding path.
    """
    attr = weight_attribute(weight)
    tables: dict[NodeId, dict[NodeId, NodeId]] = {n: {} for n in topology.nodes}
    for src in topology.nodes:
        for dst, path in single_source_paths(topology, src, attr).items():
            if dst == src:
                continue
            tables[src][dst] = path[1]
    return {
        switch: LegacyRoutingTable(switch, next_hops)
        for switch, next_hops in tables.items()
    }
