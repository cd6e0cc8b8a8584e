"""Tests for synthetic topology generators."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from conftest import nx_graph

from repro.exceptions import TopologyError
from repro.geo import haversine_m
from repro.topology.generators import (
    _build,
    grid_topology,
    random_us_points,
    ring_topology,
    star_topology,
    waxman_topology,
)


class TestRing:
    def test_plain_ring(self):
        topo = ring_topology(8)
        assert topo.n_nodes == 8
        assert topo.n_links == 8
        assert all(topo.degree(n) == 2 for n in topo.nodes)

    def test_ring_with_chords(self):
        topo = ring_topology(10, chords=4, seed=3)
        assert topo.n_links == 14

    def test_deterministic_for_seed(self):
        assert ring_topology(10, chords=3, seed=5).edges() == ring_topology(10, chords=3, seed=5).edges()

    def test_different_seeds_differ(self):
        a = ring_topology(12, chords=6, seed=1).edges()
        b = ring_topology(12, chords=6, seed=2).edges()
        assert a != b

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            ring_topology(2)

    def test_too_many_chords_rejected(self):
        with pytest.raises(TopologyError, match="chords"):
            ring_topology(4, chords=100)


class TestGrid:
    def test_dimensions(self):
        topo = grid_topology(3, 4)
        assert topo.n_nodes == 12
        # rows*(cols-1) + cols*(rows-1) edges
        assert topo.n_links == 3 * 3 + 4 * 2

    def test_corner_degree_two(self):
        topo = grid_topology(3, 3)
        assert topo.degree(0) == 2

    def test_single_row_is_a_path(self):
        topo = grid_topology(1, 5)
        assert topo.n_links == 4

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            grid_topology(1, 1)


class TestWaxman:
    def test_connected_and_sized(self):
        topo = waxman_topology(20, seed=1)
        assert topo.n_nodes == 20
        assert nx.is_connected(nx_graph(topo))

    def test_deterministic_for_seed(self):
        assert waxman_topology(15, seed=9).edges() == waxman_topology(15, seed=9).edges()

    def test_higher_alpha_denser(self):
        sparse = waxman_topology(25, alpha=0.3, beta=0.3, seed=2)
        dense = waxman_topology(25, alpha=0.9, beta=0.5, seed=2)
        assert dense.n_links > sparse.n_links

    def test_bad_parameters_rejected(self):
        with pytest.raises(TopologyError):
            waxman_topology(10, alpha=0.0)
        with pytest.raises(TopologyError):
            waxman_topology(10, beta=-1.0)
        with pytest.raises(TopologyError):
            waxman_topology(1)

    def test_tiny_alpha_still_connected_via_backbone(self):
        # The MST backbone guarantees connectivity even when the Waxman
        # probability adds virtually nothing.
        topo = waxman_topology(30, alpha=1e-9, beta=0.01, seed=0)
        assert nx.is_connected(nx_graph(topo))
        assert topo.n_links == 29  # exactly the spanning tree


def _waxman_reference(n, alpha, beta, seed):
    """The O(n³) construction: the full distance matrix and a Prim step
    that scans every (tree node, outside node) pair for the least
    ``(distance, tree node, outside node)``."""
    rng = random.Random(seed)
    points = random_us_points(n, rng)
    dist = [[haversine_m(points[u], points[v]) for v in range(n)] for u in range(n)]
    scale = max(max(row) for row in dist)
    edges = set()
    in_tree = {0}
    while len(in_tree) < n:
        _, u, v = min(
            (dist[u][v], u, v)
            for u in in_tree
            for v in range(n)
            if v not in in_tree
        )
        edges.add((min(u, v), max(u, v)))
        in_tree.add(v)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edges:
                continue
            if rng.random() < alpha * math.exp(-dist[u][v] / (beta * scale)):
                edges.add((u, v))
    return _build(f"waxman{n}", points, edges)


@pytest.mark.parametrize(
    "n, alpha, beta, seed",
    [
        (2, 0.4, 0.25, 0),
        (12, 0.4, 0.25, 3),
        (40, 0.4, 0.25, 1),
        (40, 0.9, 0.5, 2),
        (72, 0.4, 0.25, 1),
        (72, 1e-9, 0.01, 0),
        (150, 0.4, 0.25, 2),
    ],
)
def test_waxman_matches_reference_construction(n, alpha, beta, seed):
    """Links, with their lengths and delays, equal the O(n³) oracle's."""
    topo = waxman_topology(n, alpha=alpha, beta=beta, seed=seed)
    reference = _waxman_reference(n, alpha, beta, seed)
    assert topo.links == reference.links
    assert topo.adjacency == reference.adjacency


class TestStar:
    def test_hub_and_spokes(self):
        topo = star_topology(6)
        assert topo.n_nodes == 7
        assert topo.degree(0) == 6
        assert all(topo.degree(n) == 1 for n in topo.nodes if n != 0)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            star_topology(1)
