"""Shortest paths over a :class:`Topology`: BFS, Dijkstra and their
bidirectional forms.

Every routine walks ``topology.adjacency`` (nodes in construction order,
neighbours in link-insertion order), and among equal paths the one it
returns is fixed by that order:

* :func:`dijkstra` keeps a ``(dist, counter, node)`` heap, relaxes on a
  strict ``<`` and keeps the first relaxing node as the predecessor;
* :func:`single_source_paths` is that Dijkstra's path tree; with unit
  weights Dijkstra pops nodes in FIFO order, so it is a BFS whose parent
  is the first node to discover each node;
* :func:`bidirectional_shortest_path` (BFS) and
  :func:`bidirectional_dijkstra` answer single-pair queries, searching
  from both ends and alternating between them.  They may pick a
  different one of several equal paths than the single-source routines.

``tests/test_graph_core.py`` checks every path, length and float against
an independent graph library on the same graphs.

Banned nodes and edges stand in for a subgraph view: they are skipped
while scanning a node's neighbours, which keeps the order of the rest.
An edge ``(u, v)`` is banned in both directions.
"""

from __future__ import annotations

from collections.abc import Collection
from heapq import heappop, heappush
from itertools import count

from repro.exceptions import RoutingError
from repro.topology.graph import Topology
from repro.types import NodeId, Path

__all__ = [
    "weight_attribute",
    "dijkstra",
    "dijkstra_path",
    "single_source_paths",
    "bidirectional_shortest_path",
    "bidirectional_dijkstra",
    "hop_distances_to",
    "delay_distances_to",
    "shortest_path_dag",
]

_WEIGHTS = {"delay": "delay_ms", "distance": "distance_m", "hops": None}

_NONE: frozenset = frozenset()


def weight_attribute(weight: str) -> str | None:
    """Map a metric name to the topology edge attribute (``None`` = hops)."""
    try:
        return _WEIGHTS[weight]
    except KeyError:
        raise RoutingError(f"unknown weight metric {weight!r}; use one of {sorted(_WEIGHTS)}") from None


def dijkstra(
    topology: Topology,
    source: NodeId,
    attr: str | None,
    *,
    target: NodeId | None = None,
    banned_nodes: Collection[NodeId] = _NONE,
    banned_edges: Collection[tuple[NodeId, NodeId]] = _NONE,
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId]]:
    """Distances and predecessors from ``source``.

    ``attr`` is a :class:`~repro.topology.graph.Link` field, or ``None``
    for unit (hop) weights.  Stops once ``target`` is settled.  ``dist``
    is in settling order; ``pred`` maps every reached node but
    ``source`` to its predecessor.
    """
    adjacency = topology.adjacency
    dist: dict[NodeId, float] = {}
    seen: dict[NodeId, float] = {source: 0}
    pred: dict[NodeId, NodeId] = {}
    tie = count()
    fringe: list[tuple[float, int, NodeId]] = [(0, next(tie), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        if v == target:
            break
        for u, link in adjacency[v].items():
            if u in dist or u in banned_nodes:
                continue
            if banned_edges and ((v, u) in banned_edges or (u, v) in banned_edges):
                continue
            vu_dist = dist_v + (1 if attr is None else getattr(link, attr))
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(tie), u))
                pred[u] = v
    return dist, pred


def _walk_back(pred: dict[NodeId, NodeId], source: NodeId, target: NodeId) -> Path:
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path)


def dijkstra_path(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    attr: str | None,
    *,
    banned_nodes: Collection[NodeId] = _NONE,
    banned_edges: Collection[tuple[NodeId, NodeId]] = _NONE,
) -> tuple[float, Path] | None:
    """Length and path ``source -> target`` by :func:`dijkstra`.

    ``None`` when ``target`` is unreachable or an endpoint is banned.
    """
    if source in banned_nodes or target in banned_nodes:
        return None
    dist, pred = dijkstra(
        topology, source, attr, target=target,
        banned_nodes=banned_nodes, banned_edges=banned_edges,
    )
    if target not in dist:
        return None
    return dist[target], _walk_back(pred, source, target)


def single_source_paths(
    topology: Topology, source: NodeId, attr: str | None
) -> dict[NodeId, Path]:
    """A shortest path from ``source`` to every node, ``source`` included."""
    adjacency = topology.adjacency
    paths: dict[NodeId, Path] = {source: (source,)}
    if attr is None:
        frontier = [source]
        while frontier:
            reached = []
            for v in frontier:
                path_v = paths[v]
                for w in adjacency[v]:
                    if w not in paths:
                        paths[w] = path_v + (w,)
                        reached.append(w)
            frontier = reached
        return paths
    dist, pred = dijkstra(topology, source, attr)
    # ``dist`` is in settling order, so each predecessor's path exists.
    for v in dist:
        if v != source:
            paths[v] = paths[pred[v]] + (v,)
    return paths


def _meet_by_bfs(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    banned_nodes: Collection[NodeId],
) -> tuple[dict, dict, NodeId] | None:
    """Grow BFS levels from both ends, always the smaller fringe first,
    until one reaches a node the other has seen."""
    adjacency = topology.adjacency
    pred: dict[NodeId, NodeId | None] = {source: None}
    succ: dict[NodeId, NodeId | None] = {target: None}
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in adjacency[v]:
                    if w in banned_nodes:
                        continue
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            level, reverse = reverse, []
            for v in level:
                for w in adjacency[v]:
                    if w in banned_nodes:
                        continue
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return pred, succ, w
    return None


def bidirectional_shortest_path(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    *,
    banned_nodes: Collection[NodeId] = _NONE,
) -> Path | None:
    """A fewest-hop path by BFS from both ends; ``None`` if none exists."""
    if source in banned_nodes or target in banned_nodes:
        return None
    if source == target:
        return (source,)
    met = _meet_by_bfs(topology, source, target, banned_nodes)
    if met is None:
        return None
    pred, succ, meet = met
    return _join(pred, succ, meet)


def _join(pred: dict, succ: dict, meet: NodeId) -> Path:
    """``source .. meet`` by ``pred`` links, then ``.. target`` by ``succ``."""
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return tuple(path)


def bidirectional_dijkstra(
    topology: Topology,
    source: NodeId,
    target: NodeId,
    attr: str,
    *,
    banned_nodes: Collection[NodeId] = _NONE,
    banned_edges: Collection[tuple[NodeId, NodeId]] = _NONE,
) -> tuple[float, Path] | None:
    """Length and path of a min-``attr`` path searched from both ends.

    ``None`` when no path exists or an endpoint is banned.
    """
    if source in banned_nodes or target in banned_nodes:
        return None
    if source == target:
        return 0, (source,)
    adjacency = topology.adjacency
    # Index 0 searches forward from ``source``, 1 backward from ``target``.
    dists: tuple[dict, dict] = ({}, {})
    preds: tuple[dict, dict] = ({source: None}, {target: None})
    seen: tuple[dict, dict] = ({source: 0}, {target: 0})
    tie = count()
    fringe: tuple[list, list] = ([(0, next(tie), source)], [(0, next(tie), target)])
    final_dist = None
    meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        settled = dists[direction]
        if v in settled:
            continue
        settled[v] = dist
        if v in dists[1 - direction]:
            return final_dist, _join(preds[0], preds[1], meet)
        seen_here, seen_there = seen[direction], seen[1 - direction]
        for w, link in adjacency[v].items():
            if w in settled or w in banned_nodes:
                continue
            if banned_edges and ((v, w) in banned_edges or (w, v) in banned_edges):
                continue
            vw_length = dist + getattr(link, attr)
            if w not in seen_here or vw_length < seen_here[w]:
                seen_here[w] = vw_length
                heappush(fringe[direction], (vw_length, next(tie), w))
                preds[direction][w] = v
                if w in seen_there:
                    total = vw_length + seen_there[w]
                    if final_dist is None or final_dist > total:
                        final_dist, meet = total, w
    return None


def hop_distances_to(topology: Topology, dst: NodeId) -> dict[NodeId, int]:
    """Hop count from every node to ``dst`` (BFS), in BFS order."""
    if dst not in topology:
        raise RoutingError(f"unknown node {dst!r}")
    adjacency = topology.adjacency
    distances = {dst: 0}
    frontier = [dst]
    level = 0
    while frontier:
        level += 1
        reached = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in distances:
                    distances[w] = level
                    reached.append(w)
        frontier = reached
    return distances


def delay_distances_to(topology: Topology, dst: NodeId) -> dict[NodeId, float]:
    """Propagation delay of the min-delay path from every node to ``dst``."""
    if dst not in topology:
        raise RoutingError(f"unknown node {dst!r}")
    return dijkstra(topology, dst, "delay_ms")[0]


def shortest_path_dag(
    topology: Topology, dst: NodeId, weight: str = "delay"
) -> dict[NodeId, tuple[NodeId, ...]]:
    """The shortest-path DAG toward ``dst``.

    Returns, for every node ``u != dst``, the tuple of neighbors ``v`` such
    that ``dist(u) == w(u, v) + dist(v)`` under the chosen metric — i.e.
    every next hop that lies on *some* shortest path from ``u`` to ``dst``.
    ECMP-style routing fans out over exactly these successors.
    """
    attr = weight_attribute(weight)
    if attr is None:
        dist: dict[NodeId, float] = {
            n: float(d) for n, d in hop_distances_to(topology, dst).items()
        }
    else:
        dist = dijkstra(topology, dst, attr)[0]

    dag: dict[NodeId, tuple[NodeId, ...]] = {}
    tolerance = 1e-9
    adjacency = topology.adjacency
    for u in topology.nodes:
        if u == dst:
            continue
        successors = tuple(
            sorted(
                v
                for v, link in adjacency[u].items()
                if abs(
                    dist[u] - ((1.0 if attr is None else getattr(link, attr)) + dist[v])
                ) <= tolerance * max(1.0, dist[u])
            )
        )
        dag[u] = successors
    return dag
