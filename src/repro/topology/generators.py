"""Synthetic WAN topology generators.

The paper evaluates on the ATT backbone only, but a reusable library needs
topologies of varying size and density for scalability studies and
ablations.  Every generator here places nodes at synthetic geographic
coordinates inside a continental-US-like bounding box so the Haversine
delay machinery applies uniformly.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.exceptions import TopologyError
from repro.geo import GeoPoint, haversine_m
from repro.topology.graph import Topology

__all__ = [
    "US_BOUNDING_BOX",
    "random_us_points",
    "ring_topology",
    "grid_topology",
    "waxman_topology",
    "star_topology",
]

#: (min_lat, max_lat, min_lon, max_lon) roughly covering the contiguous US.
US_BOUNDING_BOX: tuple[float, float, float, float] = (25.0, 49.0, -124.0, -67.0)


def random_us_points(n: int, rng: random.Random) -> list[GeoPoint]:
    """Draw ``n`` uniform points inside :data:`US_BOUNDING_BOX`."""
    if n <= 0:
        raise ValueError(f"n must be positive: {n!r}")
    lat_lo, lat_hi, lon_lo, lon_hi = US_BOUNDING_BOX
    return [
        GeoPoint(rng.uniform(lat_lo, lat_hi), rng.uniform(lon_lo, lon_hi))
        for _ in range(n)
    ]


def _build(name: str, points: Sequence[GeoPoint], edges: set[tuple[int, int]]) -> Topology:
    nodes = {i: (f"{name}-{i}", p) for i, p in enumerate(points)}
    return Topology(name, nodes, sorted(edges))


def ring_topology(n: int, chords: int = 0, seed: int = 0) -> Topology:
    """A ring of ``n`` nodes with ``chords`` extra random chords.

    Rings are the minimal 2-connected WAN shape; chords raise path
    diversity (and hence programmability).
    """
    if n < 3:
        raise TopologyError(f"a ring needs at least 3 nodes, got {n}")
    rng = random.Random(seed)
    points = random_us_points(n, rng)
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    attempts = 0
    max_chords = n * (n - 1) // 2 - n
    if chords > max_chords:
        raise TopologyError(f"cannot add {chords} chords to a {n}-ring (max {max_chords})")
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
        attempts += 1
        if attempts > 100 * (n + chords):
            raise TopologyError("chord sampling did not converge")
    return _build(f"ring{n}", points, edges)


def grid_topology(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` grid laid out over the US bounding box."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError(f"grid needs at least 2 nodes: {rows}x{cols}")
    lat_lo, lat_hi, lon_lo, lon_hi = US_BOUNDING_BOX
    points = []
    for r in range(rows):
        for c in range(cols):
            lat = lat_lo + (lat_hi - lat_lo) * (r / max(rows - 1, 1))
            lon = lon_lo + (lon_hi - lon_lo) * (c / max(cols - 1, 1))
            points.append(GeoPoint(lat, lon))
    edges: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.add((i, i + 1))
            if r + 1 < rows:
                edges.add((i, i + cols))
    return _build(f"grid{rows}x{cols}", points, edges)


def waxman_topology(
    n: int,
    alpha: float = 0.4,
    beta: float = 0.25,
    seed: int = 0,
) -> Topology:
    """A Waxman random graph over a geographic spanning-tree backbone.

    Edge probability between nodes ``u, v`` is
    ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the largest
    pairwise distance — the classic WAN-like generator.  To guarantee
    connectivity (plain Waxman draws are frequently disconnected at WAN
    densities), a Euclidean minimum spanning tree over the sampled points
    is always included, mirroring how real backbones grow from a core.
    """
    if n < 2:
        raise TopologyError(f"waxman needs at least 2 nodes, got {n}")
    if not (0 < alpha <= 1) or beta <= 0:
        raise TopologyError(f"invalid waxman parameters alpha={alpha}, beta={beta}")
    rng = random.Random(seed)
    points = random_us_points(n, rng)
    # Haversine is symmetric bit for bit, so each pair is computed once.
    dist = [[0.0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            dist[u][v] = dist[v][u] = haversine_m(points[u], points[v])
    scale = max(max(row) for row in dist)

    # Prim's MST over the complete distance graph: the connected backbone.
    # ``key[v]`` is the least ``(distance, tree node)`` joining ``v`` to
    # the tree, and the least ``(distance, tree node, v)`` joins next.
    edges: set[tuple[int, int]] = set()
    key = {v: (dist[0][v], 0) for v in range(1, n)}
    while key:
        v = min(key, key=lambda w: (*key[w], w))
        _, u = key.pop(v)
        edges.add((min(u, v), max(u, v)))
        row = dist[v]
        for w, best in key.items():
            if (row[w], v) < best:
                key[w] = (row[w], v)

    # Waxman extra edges on top of the backbone.
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edges:
                continue
            p = alpha * math.exp(-dist[u][v] / (beta * scale))
            if rng.random() < p:
                edges.add((u, v))
    return _build(f"waxman{n}", points, edges)


def star_topology(n_leaves: int, seed: int = 0) -> Topology:
    """A hub-and-spoke topology: node 0 is the hub.

    Degenerate (1-connected) — useful to exercise the ``programmability
    == 0`` edge cases, since leaf switches have a single path everywhere.
    """
    if n_leaves < 2:
        raise TopologyError(f"star needs at least 2 leaves, got {n_leaves}")
    rng = random.Random(seed)
    points = random_us_points(n_leaves + 1, rng)
    edges = {(0, i) for i in range(1, n_leaves + 1)}
    return _build(f"star{n_leaves}", points, edges)
