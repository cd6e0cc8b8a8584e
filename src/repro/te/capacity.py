"""Link capacities and utilization for the traffic-engineering layer.

The paper motivates path programmability with network performance under
traffic variation: a programmable flow can be moved off a congested
link.  This module supplies the measurement side — link loads, link
capacities, and the classic max-link-utilization (MLU) objective.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping

from repro.exceptions import TopologyError
from repro.flows.flow import Flow
from repro.topology.graph import Topology
from repro.types import Edge

__all__ = [
    "uniform_capacities",
    "betweenness_capacities",
    "edge_betweenness",
    "link_loads",
    "link_utilization",
    "max_link_utilization",
]


def _canonical(edge: Edge) -> Edge:
    u, v = edge
    return (u, v) if u <= v else (v, u)


def uniform_capacities(topology: Topology, capacity: float) -> dict[Edge, float]:
    """The same capacity on every link."""
    if capacity <= 0:
        raise TopologyError(f"link capacity must be positive: {capacity!r}")
    return {edge: float(capacity) for edge in topology.edges()}


def betweenness_capacities(
    topology: Topology,
    base: float,
    scale: float = 4.0,
) -> dict[Edge, float]:
    """Capacities proportional to edge betweenness (core links are fat).

    ``capacity = base * (1 + scale * normalized_betweenness)`` — a
    standard synthetic provisioning when real capacities are unknown:
    heavily-used core links get up to ``1 + scale`` times the base.
    """
    if base <= 0 or scale < 0:
        raise TopologyError(f"invalid capacity parameters base={base!r} scale={scale!r}")
    betweenness = edge_betweenness(topology)
    top = max(betweenness.values()) or 1.0
    return {
        _canonical(edge): base * (1.0 + scale * value / top)
        for edge, value in betweenness.items()
    }


def edge_betweenness(topology: Topology) -> dict[Edge, float]:
    """Normalized edge betweenness (Brandes, hop-count shortest paths).

    The share of ordered node pairs ``(s, t)`` whose shortest paths cross
    each link, split evenly over equal paths, over ``n (n - 1)`` pairs.
    Keys are ``(u, v)`` with ``u`` the endpoint listed first in
    ``topology.adjacency``.  Sources are summed in adjacency order and
    dependencies accumulated from the farthest node back, an order that
    fixes every float (``tests/test_graph_core.py`` checks them bit for
    bit against an independent implementation).
    """
    adjacency = topology.adjacency
    betweenness: dict[Edge, float] = {}
    listed: set = set()
    for node, nbrs in adjacency.items():
        for nbr in nbrs:
            if nbr not in listed:
                betweenness[(node, nbr)] = 0.0
        listed.add(node)
    for source in adjacency:
        # BFS counting shortest paths (sigma) and their predecessors.
        order = []
        preds: dict = {node: [] for node in adjacency}
        sigma = dict.fromkeys(adjacency, 0.0)
        sigma[source] = 1.0
        depth = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            next_depth = depth[v] + 1
            for w in adjacency[v]:
                if w not in depth:
                    queue.append(w)
                    depth[w] = next_depth
                if depth[w] == next_depth:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # Accumulate dependencies from the farthest node back.
        delta = dict.fromkeys(order, 0)
        while order:
            w = order.pop()
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                c = sigma[v] * coeff
                if (v, w) not in betweenness:
                    betweenness[(w, v)] += c
                else:
                    betweenness[(v, w)] += c
                delta[v] += c
    n = len(adjacency)
    if n >= 2:
        scale = 1 / (n * (n - 1))
        for edge in betweenness:
            betweenness[edge] *= scale
    return betweenness


def link_loads(topology: Topology, flows: Iterable[Flow]) -> dict[Edge, float]:
    """Aggregate demand per undirected link (both directions summed)."""
    loads = {edge: 0.0 for edge in topology.edges()}
    for flow in flows:
        for u, v in zip(flow.path, flow.path[1:]):
            edge = _canonical((u, v))
            if edge not in loads:
                raise TopologyError(f"flow {flow.flow_id} uses missing link {edge}")
            loads[edge] += flow.demand
    return loads


def link_utilization(
    topology: Topology,
    flows: Iterable[Flow],
    capacities: Mapping[Edge, float],
) -> dict[Edge, float]:
    """Per-link utilization (load / capacity)."""
    loads = link_loads(topology, flows)
    out = {}
    for edge, load in loads.items():
        capacity = capacities.get(edge)
        if capacity is None or capacity <= 0:
            raise TopologyError(f"no positive capacity for link {edge}")
        out[edge] = load / capacity
    return out


def max_link_utilization(
    topology: Topology,
    flows: Iterable[Flow],
    capacities: Mapping[Edge, float],
) -> float:
    """The MLU objective: the utilization of the busiest link."""
    utilization = link_utilization(topology, flows, capacities)
    return max(utilization.values()) if utilization else 0.0
