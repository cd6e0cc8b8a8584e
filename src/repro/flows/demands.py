"""Workload (demand) generation: which flows exist and on which paths.

The paper's default workload is *all-pairs*: one flow per ordered node pair,
routed on the shortest path (Section VI-A).  We also provide a gravity
model and random-pairs sampling for ablations and scalability studies.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.exceptions import FlowError, RoutingError
from repro.flows.flow import Flow
from repro.routing.shortest import (
    bidirectional_dijkstra,
    bidirectional_shortest_path,
    single_source_paths,
    weight_attribute,
)
from repro.topology.graph import Topology
from repro.types import NodeId

__all__ = [
    "shortest_path",
    "all_pairs_flows",
    "random_pairs_flows",
    "gravity_demands",
    "flows_from_pairs",
]

def shortest_path(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    weight: str = "delay",
) -> tuple[NodeId, ...]:
    """Deterministic shortest path from ``src`` to ``dst``.

    ``weight`` selects the metric: ``"delay"`` (propagation delay,
    default), ``"distance"`` (link length), or ``"hops"``.  The path is
    searched from both ends; ties are broken deterministically by the
    topology's link order (see :mod:`repro.routing.shortest`).
    """
    if src not in topology or dst not in topology:
        raise RoutingError(f"unknown endpoint: {src!r} or {dst!r}")
    attr = weight_attribute(weight)
    if attr is None:
        path = bidirectional_shortest_path(topology, src, dst)
    else:
        found = bidirectional_dijkstra(topology, src, dst, attr)
        path = None if found is None else found[1]
    if path is None:  # pragma: no cover - topologies are connected
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    return path


def all_pairs_flows(
    topology: Topology,
    weight: str = "delay",
    demand: float = 1.0,
) -> list[Flow]:
    """One flow per ordered node pair on its shortest path.

    This is the paper's workload: for the 25-node ATT topology it yields
    ``25 * 24 = 600`` flows.
    """
    flows = []
    attr = weight_attribute(weight)
    nodes = topology.nodes
    for src in nodes:
        paths = single_source_paths(topology, src, attr)
        for dst in nodes:
            if src == dst:
                continue
            flows.append(Flow(src, dst, paths[dst], demand=demand))
    return flows


def random_pairs_flows(
    topology: Topology,
    n_flows: int,
    weight: str = "delay",
    seed: int = 0,
    demand: float = 1.0,
) -> list[Flow]:
    """Sample ``n_flows`` distinct ordered pairs uniformly at random."""
    nodes = topology.nodes
    max_pairs = len(nodes) * (len(nodes) - 1)
    if not (0 < n_flows <= max_pairs):
        raise FlowError(
            f"n_flows must be in [1, {max_pairs}] for {len(nodes)} nodes: {n_flows!r}"
        )
    rng = random.Random(seed)
    all_pairs = [(s, d) for s in nodes for d in nodes if s != d]
    pairs = rng.sample(all_pairs, n_flows)
    return flows_from_pairs(topology, pairs, weight=weight, demand=demand)


def gravity_demands(
    topology: Topology,
    total_demand: float = 1000.0,
    weight: str = "delay",
    population: dict[NodeId, float] | None = None,
) -> list[Flow]:
    """All-pairs flows with gravity-model demands.

    Demand between ``(s, d)`` is proportional to ``m_s * m_d`` where node
    mass ``m`` defaults to ``degree + 1`` — a standard synthetic traffic
    matrix when real populations are unavailable.
    """
    if total_demand <= 0:
        raise FlowError(f"total_demand must be positive: {total_demand!r}")
    mass = population or {n: topology.degree(n) + 1.0 for n in topology.nodes}
    for node in topology.nodes:
        if mass.get(node, 0) <= 0:
            raise FlowError(f"node {node!r} needs positive mass, got {mass.get(node)!r}")
    pairs = [(s, d) for s in topology.nodes for d in topology.nodes if s != d]
    weights = [mass[s] * mass[d] for s, d in pairs]
    scale = total_demand / sum(weights)
    flows = []
    for (src, dst), w in zip(pairs, weights):
        path = shortest_path(topology, src, dst, weight=weight)
        flows.append(Flow(src, dst, path, demand=w * scale))
    return flows


def flows_from_pairs(
    topology: Topology,
    pairs: Iterable[tuple[NodeId, NodeId]] | Sequence[tuple[NodeId, NodeId]],
    weight: str = "delay",
    demand: float = 1.0,
) -> list[Flow]:
    """Build shortest-path flows for explicit ``(src, dst)`` pairs."""
    flows = []
    seen: set[tuple[NodeId, NodeId]] = set()
    for src, dst in pairs:
        if (src, dst) in seen:
            raise FlowError(f"duplicate flow pair {(src, dst)!r}")
        seen.add((src, dst))
        flows.append(Flow(src, dst, shortest_path(topology, src, dst, weight=weight), demand=demand))
    return flows
