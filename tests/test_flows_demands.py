"""Tests for workload generation."""

from __future__ import annotations

import pytest

from repro.exceptions import FlowError, RoutingError
from repro.flows.demands import (
    all_pairs_flows,
    flows_from_pairs,
    gravity_demands,
    random_pairs_flows,
    shortest_path,
)
from repro.topology.generators import grid_topology, ring_topology


@pytest.fixture(scope="module")
def grid():
    return grid_topology(3, 3)


class TestShortestPath:
    def test_endpoints(self, grid):
        path = shortest_path(grid, 0, 8)
        assert path[0] == 0 and path[-1] == 8

    def test_hops_metric_minimizes_hops(self, grid):
        path = shortest_path(grid, 0, 8, weight="hops")
        assert len(path) == 5  # 4 hops across a 3x3 grid

    def test_unknown_weight_rejected(self, grid):
        with pytest.raises(RoutingError, match="weight"):
            shortest_path(grid, 0, 8, weight="bananas")

    def test_unknown_endpoint_rejected(self, grid):
        with pytest.raises(RoutingError):
            shortest_path(grid, 0, 99)

    def test_deterministic(self, grid):
        assert shortest_path(grid, 0, 8) == shortest_path(grid, 0, 8)


class TestAllPairs:
    def test_count_is_n_times_n_minus_1(self, grid):
        flows = all_pairs_flows(grid)
        assert len(flows) == 9 * 8

    def test_att_workload_size(self, att):
        assert len(all_pairs_flows(att, weight="hops")) == 600

    def test_unique_flow_ids(self, grid):
        flows = all_pairs_flows(grid)
        assert len({f.flow_id for f in flows}) == len(flows)

    def test_paths_are_shortest_in_hops(self, grid):
        import networkx as nx
        from conftest import nx_graph

        lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(grid)))
        for flow in all_pairs_flows(grid, weight="hops"):
            assert flow.hop_count == lengths[flow.src][flow.dst]

    def test_demand_applied(self, grid):
        flows = all_pairs_flows(grid, demand=5.0)
        assert all(f.demand == 5.0 for f in flows)


class TestRandomPairs:
    def test_requested_count(self, grid):
        flows = random_pairs_flows(grid, 10, seed=1)
        assert len(flows) == 10
        assert len({f.flow_id for f in flows}) == 10

    def test_deterministic_for_seed(self, grid):
        a = [f.flow_id for f in random_pairs_flows(grid, 12, seed=4)]
        b = [f.flow_id for f in random_pairs_flows(grid, 12, seed=4)]
        assert a == b

    def test_too_many_rejected(self, grid):
        with pytest.raises(FlowError, match="n_flows"):
            random_pairs_flows(grid, 9 * 8 + 1)

    def test_zero_rejected(self, grid):
        with pytest.raises(FlowError):
            random_pairs_flows(grid, 0)


class TestGravity:
    def test_total_demand_respected(self, grid):
        flows = gravity_demands(grid, total_demand=1000.0)
        assert sum(f.demand for f in flows) == pytest.approx(1000.0)

    def test_high_degree_nodes_attract_more(self):
        topo = ring_topology(8, chords=0, seed=0)
        flows = gravity_demands(topo, total_demand=800.0)
        # Uniform degrees -> uniform demands on a plain ring.
        demands = {f.demand for f in flows}
        assert max(demands) == pytest.approx(min(demands))

    def test_custom_population(self, grid):
        population = {n: 1.0 for n in grid.nodes}
        population[0] = 100.0
        flows = gravity_demands(grid, total_demand=100.0, population=population)
        # From node 0: 8 pairs each with weight 100.  From node 1: weight
        # 100 toward node 0 plus 7 unit-weight pairs = 107.
        from_zero = sum(f.demand for f in flows if f.src == 0)
        from_one = sum(f.demand for f in flows if f.src == 1)
        assert from_zero == pytest.approx(from_one * 800 / 107)

    def test_nonpositive_total_rejected(self, grid):
        with pytest.raises(FlowError):
            gravity_demands(grid, total_demand=0.0)

    def test_nonpositive_mass_rejected(self, grid):
        population = {n: 1.0 for n in grid.nodes}
        population[3] = 0.0
        with pytest.raises(FlowError, match="mass"):
            gravity_demands(grid, population=population)


class TestFlowsFromPairs:
    def test_explicit_pairs(self, grid):
        flows = flows_from_pairs(grid, [(0, 8), (8, 0)])
        assert [f.flow_id for f in flows] == [(0, 8), (8, 0)]

    def test_duplicates_rejected(self, grid):
        with pytest.raises(FlowError, match="duplicate"):
            flows_from_pairs(grid, [(0, 8), (0, 8)])
