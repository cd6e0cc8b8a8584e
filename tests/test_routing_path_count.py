"""Tests for the path-programmability counters."""

from __future__ import annotations

import pytest

from repro.exceptions import RoutingError
from repro.routing.path_count import (
    BoundedSimplePathCounter,
    LoopFreeAlternateCounter,
    ShortestDagCounter,
    make_counter,
    shared_hop_distances,
)
from repro.topology.generators import grid_topology, ring_topology, star_topology


@pytest.fixture(scope="module")
def grid():
    return grid_topology(3, 3)


@pytest.fixture(scope="module")
def ring():
    return ring_topology(6)


class TestBoundedCounter:
    def test_grid_corner_to_corner_slack0(self, grid):
        counter = BoundedSimplePathCounter(grid, slack=0)
        # Shortest 0->8 paths on a 3x3 grid: C(4,2) = 6 monotone paths.
        assert counter.count(0, 8) == 6

    def test_slack_increases_count(self, grid):
        c0 = BoundedSimplePathCounter(grid, slack=0).count(0, 8)
        c2 = BoundedSimplePathCounter(grid, slack=2).count(0, 8)
        assert c2 > c0

    def test_ring_has_two_paths(self, ring):
        counter = BoundedSimplePathCounter(ring, slack=10)
        # Opposite side of a 6-ring: both directions, both length 3.
        assert counter.count(0, 3) == 2

    def test_self_count_zero(self, grid):
        assert BoundedSimplePathCounter(grid).count(4, 4) == 0

    def test_max_count_saturates(self, grid):
        counter = BoundedSimplePathCounter(grid, slack=4, max_count=3)
        assert counter.count(0, 8) == 3

    def test_cache_consistency(self, grid):
        counter = BoundedSimplePathCounter(grid, slack=1)
        assert counter.count(0, 8) == counter.count(0, 8)

    def test_invalid_parameters(self, grid):
        with pytest.raises(ValueError):
            BoundedSimplePathCounter(grid, slack=-1)
        with pytest.raises(ValueError):
            BoundedSimplePathCounter(grid, max_count=0)

    def test_unknown_nodes(self, grid):
        with pytest.raises(RoutingError):
            BoundedSimplePathCounter(grid).count(0, 99)


class TestDagCounter:
    def test_grid_counts_binomial(self, grid):
        counter = ShortestDagCounter(grid, weight="hops")
        assert counter.count(0, 8) == 6
        assert counter.count(0, 4) == 2
        assert counter.count(0, 1) == 1

    def test_star_single_paths(self):
        star = star_topology(4)
        counter = ShortestDagCounter(star, weight="hops")
        assert counter.count(1, 2) == 1

    def test_weight_property(self, grid):
        assert ShortestDagCounter(grid, weight="hops").weight == "hops"


class TestLfaCounter:
    def test_grid_corner_has_two_alternates(self, grid):
        counter = LoopFreeAlternateCounter(grid, slack=1)
        # Corner 0 toward 8: both neighbors (1 and 3) work.
        assert counter.count(0, 8) == 2

    def test_neighbor_counts_direct_link(self, grid):
        counter = LoopFreeAlternateCounter(grid, slack=0)
        assert counter.count(0, 1) >= 1

    def test_count_bounded_by_degree(self, att):
        counter = LoopFreeAlternateCounter(att, slack=1)
        for src in att.nodes:
            for dst in att.nodes:
                if src != dst:
                    assert counter.count(src, dst) <= att.degree(src)

    def test_ring_opposite_has_both_directions(self, ring):
        counter = LoopFreeAlternateCounter(ring, slack=0)
        assert counter.count(0, 3) == 2

    def test_ring_near_node_one_way_without_slack(self, ring):
        # 0 -> 1: direct is 1 hop; the other way round is 5 hops.
        assert LoopFreeAlternateCounter(ring, slack=0).count(0, 1) == 1
        assert LoopFreeAlternateCounter(ring, slack=4).count(0, 1) == 2

    def test_star_leaf_single_choice(self):
        star = star_topology(5)
        counter = LoopFreeAlternateCounter(star, slack=5)
        assert counter.count(1, 2) == 1  # only via the hub

    def test_negative_slack_rejected(self, grid):
        with pytest.raises(ValueError):
            LoopFreeAlternateCounter(grid, slack=-1)


class TestMakeCounter:
    def test_default_is_lfa(self, grid):
        assert isinstance(make_counter(grid), LoopFreeAlternateCounter)

    def test_named_strategies(self, grid):
        assert isinstance(make_counter(grid, "bounded"), BoundedSimplePathCounter)
        assert isinstance(make_counter(grid, "dag"), ShortestDagCounter)
        assert isinstance(make_counter(grid, "lfa", slack=2), LoopFreeAlternateCounter)

    def test_kwargs_forwarded(self, grid):
        counter = make_counter(grid, "bounded", slack=3)
        assert counter.slack == 3

    def test_unknown_strategy(self, grid):
        with pytest.raises(RoutingError, match="unknown counting strategy"):
            make_counter(grid, "magic")


class TestSharedHopDistances:
    def test_counters_share_one_bfs_per_destination(self, grid):
        """Different counter instances reuse the same map (the LFA
        counter reads no hop distances: its rows carry their own)."""
        tight = BoundedSimplePathCounter(grid, slack=0)
        loose = BoundedSimplePathCounter(grid, slack=2)
        assert tight._distances(8) is loose._distances(8)
        assert tight._distances(8) is shared_hop_distances(grid, 8)

    def test_cache_is_per_topology(self):
        a, b = ring_topology(6), ring_topology(6)
        assert shared_hop_distances(a, 0) is not shared_hop_distances(b, 0)
        # Same distances, distinct cache entries.
        assert shared_hop_distances(a, 0) == shared_hop_distances(b, 0)

    def test_distances_are_correct(self, ring):
        distances = shared_hop_distances(ring, 0)
        assert distances[0] == 0
        assert distances[3] == 3  # opposite side of the 6-ring
