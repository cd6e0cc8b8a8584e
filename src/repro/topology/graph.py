"""The :class:`Topology` model — a geographic WAN graph.

A topology is an undirected, connected graph whose nodes are SDN switches
placed at real geographic coordinates and whose edges are WAN links.  Edge
lengths are great-circle (Haversine) distances and edge delays follow from
the fibre propagation speed, exactly as in Section VI-A of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from repro.exceptions import TopologyError
from repro.geo import GeoPoint, haversine_m
from repro.types import MS_PER_S, PROPAGATION_SPEED_M_PER_S, Edge, NodeId

__all__ = ["Link", "NodeInfo", "Topology"]


@dataclass(frozen=True, slots=True)
class NodeInfo:
    """Static description of one topology node."""

    node: NodeId
    label: str
    geo: GeoPoint


class Link(NamedTuple):
    """Static attributes of one undirected link."""

    distance_m: float
    delay_ms: float


class Topology:
    """An SD-WAN data-plane topology.

    Parameters
    ----------
    name:
        Human-readable topology name (e.g. ``"ATT"``).
    nodes:
        Mapping from node id to :class:`NodeInfo` (or ``(label, GeoPoint)``
        pairs, which are promoted).
    edges:
        Iterable of undirected node-id pairs.  Self-loops and duplicate
        edges are rejected.
    propagation_speed_m_per_s:
        Speed used to convert link distance to delay.

    The graph must be connected: the paper's recovery problem assumes every
    offline switch is reachable and every flow has a forwarding path.
    """

    def __init__(
        self,
        name: str,
        nodes: Mapping[NodeId, NodeInfo | tuple[str, GeoPoint]],
        edges: Iterable[Edge],
        propagation_speed_m_per_s: float = PROPAGATION_SPEED_M_PER_S,
    ) -> None:
        if propagation_speed_m_per_s <= 0:
            raise TopologyError(
                f"propagation speed must be positive: {propagation_speed_m_per_s!r}"
            )
        self._name = str(name)
        self._speed = float(propagation_speed_m_per_s)
        self._nodes: dict[NodeId, NodeInfo] = {}
        for node_id, info in nodes.items():
            if not isinstance(info, NodeInfo):
                label, geo = info
                info = NodeInfo(node=node_id, label=label, geo=geo)
            elif info.node != node_id:
                raise TopologyError(
                    f"NodeInfo id {info.node!r} disagrees with key {node_id!r}"
                )
            self._nodes[node_id] = info

        # Each node's neighbours are kept in edge-insertion order: the
        # shortest-path routines (repro.routing.shortest) break ties by it.
        adjacency: dict[NodeId, dict[NodeId, Link]] = {n: {} for n in self._nodes}
        links: list[Edge] = []
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop on node {u!r}")
            if u not in self._nodes or v not in self._nodes:
                raise TopologyError(f"edge ({u!r}, {v!r}) references unknown node")
            if v in adjacency[u]:
                raise TopologyError(f"duplicate edge ({u!r}, {v!r})")
            dist = haversine_m(self._nodes[u].geo, self._nodes[v].geo)
            adjacency[u][v] = adjacency[v][u] = Link(dist, dist / self._speed * MS_PER_S)
            links.append((u, v))
        if not adjacency:
            raise TopologyError("topology has no nodes")
        parts = _component_sizes(adjacency)
        if len(parts) > 1:
            raise TopologyError(
                f"topology {self._name!r} is not connected "
                f"(component sizes: {sorted(parts)})"
            )
        self._links = tuple(links)
        self._adjacency = MappingProxyType(
            {n: MappingProxyType(nbrs) for n, nbrs in adjacency.items()}
        )
        self._sorted_nodes = tuple(sorted(adjacency))
        self._edges = tuple(sorted((min(u, v), max(u, v)) for u, v in links))
        self._neighbors = {n: tuple(sorted(nbrs)) for n, nbrs in adjacency.items()}

    def __reduce__(self):
        # The constructor's arguments are the whole state: the adjacency
        # and the sorted views are rebuilt from them on load.
        return (
            type(self),
            (self._name, self._nodes, self._links, self._speed),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Topology name."""
        return self._name

    @property
    def adjacency(self) -> Mapping[NodeId, Mapping[NodeId, Link]]:
        """Read-only ``node -> {neighbour: Link}``.

        Nodes are in construction order and each node's neighbours in
        link-insertion order; shortest-path tie-breaking follows both.
        """
        return self._adjacency

    @property
    def links(self) -> tuple[Edge, ...]:
        """Undirected links as given to the constructor, in that order."""
        return self._links

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """Node ids in sorted order."""
        return self._sorted_nodes

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    @property
    def n_directed_links(self) -> int:
        """Number of directed links (twice the undirected count).

        Topology Zoo and the paper count links directionally; the ATT
        topology is described as "25 nodes and 112 links" = 56 undirected.
        """
        return 2 * self.n_links

    @property
    def propagation_speed_m_per_s(self) -> float:
        """Fibre propagation speed used for link delays."""
        return self._speed

    def edges(self) -> tuple[Edge, ...]:
        """All undirected edges as sorted ``(min, max)`` pairs."""
        return self._edges

    def info(self, node: NodeId) -> NodeInfo:
        """Return the :class:`NodeInfo` for ``node``."""
        try:
            return self._nodes[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def label(self, node: NodeId) -> str:
        """Human-readable label of ``node``."""
        return self.info(node).label

    def geo(self, node: NodeId) -> GeoPoint:
        """Geographic position of ``node``."""
        return self.info(node).geo

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the undirected link ``(u, v)`` exists."""
        nbrs = self._adjacency.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Sorted neighbor ids of ``node``."""
        try:
            return self._neighbors[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def degree(self, node: NodeId) -> int:
        """Number of links incident to ``node``."""
        return len(self.neighbors(node))

    # ------------------------------------------------------------------
    # Distances and delays
    # ------------------------------------------------------------------
    def link_distance_m(self, u: NodeId, v: NodeId) -> float:
        """Great-circle length of link ``(u, v)`` in metres."""
        return self._link(u, v).distance_m

    def link_delay_ms(self, u: NodeId, v: NodeId) -> float:
        """One-way propagation delay of link ``(u, v)`` in milliseconds."""
        return self._link(u, v).delay_ms

    def geo_distance_m(self, u: NodeId, v: NodeId) -> float:
        """Direct great-circle distance between two nodes (not via links)."""
        return haversine_m(self.geo(u), self.geo(v))

    def geo_delay_ms(self, u: NodeId, v: NodeId) -> float:
        """Direct propagation delay between two nodes in milliseconds.

        This is the paper's ``D_ij``: "the distance divided by the
        propagation speed" (Section VI-A), i.e. straight-line, not routed.
        """
        return self.geo_distance_m(u, v) / self._speed * MS_PER_S

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _link(self, u: NodeId, v: NodeId) -> Link:
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise TopologyError(f"no link between {u!r} and {v!r}") from None

    def __contains__(self, node: object) -> bool:
        try:
            return node in self._nodes
        except TypeError:
            return False

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, nodes={self.n_nodes}, "
            f"links={self.n_links})"
        )


def _component_sizes(adjacency: Mapping[NodeId, Iterable[NodeId]]) -> list[int]:
    """Sizes of the connected components (BFS from each unreached node)."""
    sizes = []
    reached: set[NodeId] = set()
    for start in adjacency:
        if start in reached:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            next_frontier = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in component:
                        component.add(w)
                        next_frontier.append(w)
            frontier = next_frontier
        reached |= component
        sizes.append(len(component))
    return sizes
