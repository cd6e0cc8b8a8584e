"""Tests for Yen's k-shortest paths."""

from __future__ import annotations

import networkx as nx
import pytest
from conftest import nx_graph

from repro.exceptions import RoutingError
from repro.routing.kpaths import k_shortest_paths, path_weight
from repro.topology.generators import grid_topology, ring_topology


@pytest.fixture(scope="module")
def grid():
    return grid_topology(3, 3)


class TestPathWeight:
    def test_hops(self, grid):
        assert path_weight(grid, (0, 1, 2), weight="hops") == 2

    def test_delay_matches_links(self, grid):
        expected = grid.link_delay_ms(0, 1) + grid.link_delay_ms(1, 2)
        assert path_weight(grid, (0, 1, 2), weight="delay") == pytest.approx(expected)

    def test_missing_link_rejected(self, grid):
        with pytest.raises(RoutingError):
            path_weight(grid, (0, 8))

    def test_short_path_rejected(self, grid):
        with pytest.raises(RoutingError):
            path_weight(grid, (0,))


class TestKShortest:
    def test_first_path_is_shortest(self, grid):
        paths = k_shortest_paths(grid, 0, 8, k=1, weight="hops")
        assert len(paths) == 1
        assert len(paths[0]) == 5

    def test_paths_sorted_by_weight(self, grid):
        paths = k_shortest_paths(grid, 0, 8, k=8, weight="delay")
        weights = [path_weight(grid, p, "delay") for p in paths]
        assert weights == sorted(weights)

    def test_paths_are_simple_and_distinct(self, grid):
        paths = k_shortest_paths(grid, 0, 8, k=10, weight="hops")
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert len(set(p)) == len(p)
            assert p[0] == 0 and p[-1] == 8

    def test_matches_networkx_reference(self, grid):
        ours = k_shortest_paths(grid, 0, 8, k=6, weight="hops")
        reference = []
        for i, p in enumerate(nx.shortest_simple_paths(nx_graph(grid), 0, 8)):
            if i >= 6:
                break
            reference.append(len(p))
        assert [len(p) for p in ours] == reference

    def test_fewer_paths_than_k(self):
        ring = ring_topology(5)
        # A plain ring has exactly 2 simple paths between any pair.
        paths = k_shortest_paths(ring, 0, 2, k=10, weight="hops")
        assert len(paths) == 2

    def test_k_must_be_positive(self, grid):
        with pytest.raises(RoutingError):
            k_shortest_paths(grid, 0, 8, k=0)

    def test_same_endpoints_rejected(self, grid):
        with pytest.raises(RoutingError):
            k_shortest_paths(grid, 3, 3, k=2)

    def test_unknown_endpoint_rejected(self, grid):
        with pytest.raises(RoutingError):
            k_shortest_paths(grid, 0, 99, k=2)

    def test_att_path_diversity(self, att):
        paths = k_shortest_paths(att, 0, 24, k=5, weight="delay")
        assert len(paths) == 5
        weights = [path_weight(att, p, "delay") for p in paths]
        assert weights == sorted(weights)
