"""Yen's algorithm for k-shortest loopless paths.

Each spur path is a :func:`repro.routing.shortest.dijkstra_path` with the
prefix's nodes and edges banned.  Used by examples that install
alternate paths after recovery and by path-diversity metrics.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.exceptions import RoutingError
from repro.routing.shortest import dijkstra_path, weight_attribute
from repro.topology.graph import Topology
from repro.types import NodeId, Path

__all__ = ["k_shortest_paths", "path_weight"]


def path_weight(topology: Topology, path: Path, weight: str = "delay") -> float:
    """Total weight of ``path`` under the chosen metric."""
    attr = weight_attribute(weight)
    if len(path) < 2:
        raise RoutingError(f"path must have at least 2 nodes: {path!r}")
    total = 0.0
    for u, v in zip(path, path[1:]):
        if not topology.has_edge(u, v):
            raise RoutingError(f"path uses missing link ({u!r}, {v!r})")
        total += 1.0 if attr is None else getattr(topology.adjacency[u][v], attr)
    return total


def k_shortest_paths(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    k: int,
    weight: str = "delay",
) -> list[Path]:
    """Up to ``k`` loopless paths from ``src`` to ``dst``, shortest first.

    Classic Yen's algorithm: repeatedly derives spur paths by banning, for
    each prefix of the previous result, the edges that would recreate an
    already-returned path.  Returns fewer than ``k`` paths when the graph
    does not contain that many simple paths.
    """
    if k < 1:
        raise RoutingError(f"k must be at least 1: {k!r}")
    if src == dst:
        raise RoutingError("src and dst must differ")
    if src not in topology or dst not in topology:
        raise RoutingError(f"unknown endpoint: {src!r} or {dst!r}")
    attr = weight_attribute(weight)
    adjacency = topology.adjacency

    first = dijkstra_path(topology, src, dst, attr)
    if first is None:  # pragma: no cover - topologies are connected
        return []
    accepted: list[tuple[float, Path]] = [first]
    candidates: list[tuple[float, int, Path]] = []
    seen: set[Path] = {first[1]}
    tie = count()

    while len(accepted) < k:
        _, prev_path = accepted[-1]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges: set[tuple[NodeId, NodeId]] = set()
            for _, p in accepted:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            for _, __, p in candidates:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = set(root[:-1])
            spur = dijkstra_path(
                topology, spur_node, dst, attr,
                banned_nodes=banned_nodes, banned_edges=banned_edges,
            )
            if spur is None:
                continue
            spur_cost, spur_path = spur
            total = tuple(root[:-1]) + spur_path
            if total in seen:
                continue
            root_cost = sum(
                1.0 if attr is None else getattr(adjacency[u][v], attr)
                for u, v in zip(root, root[1:])
            )
            seen.add(total)
            heapq.heappush(candidates, (root_cost + spur_cost, next(tie), total))
        if not candidates:
            break
        cost, _, best = heapq.heappop(candidates)
        accepted.append((cost, best))

    return [p for _, p in accepted]
