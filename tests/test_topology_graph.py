"""Tests for repro.topology.graph.Topology."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.geo import GeoPoint
from repro.topology.graph import NodeInfo, Topology

A = GeoPoint(40.0, -74.0)
B = GeoPoint(41.0, -75.0)
C = GeoPoint(42.0, -76.0)


def triangle() -> Topology:
    nodes = {0: ("a", A), 1: ("b", B), 2: ("c", C)}
    return Topology("tri", nodes, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic_properties(self):
        topo = triangle()
        assert topo.name == "tri"
        assert topo.n_nodes == 3
        assert topo.n_links == 3
        assert topo.n_directed_links == 6
        assert topo.nodes == (0, 1, 2)

    def test_nodeinfo_objects_accepted(self):
        nodes = {
            0: NodeInfo(0, "a", A),
            1: NodeInfo(1, "b", B),
        }
        topo = Topology("t", nodes, [(0, 1)])
        assert topo.label(0) == "a"

    def test_nodeinfo_id_mismatch_rejected(self):
        with pytest.raises(TopologyError, match="disagrees"):
            Topology("t", {0: NodeInfo(1, "a", A), 1: NodeInfo(1, "b", B)}, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Topology("t", {0: ("a", A), 1: ("b", B)}, [(0, 0), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology("t", {0: ("a", A), 1: ("b", B)}, [(0, 1), (1, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="unknown node"):
            Topology("t", {0: ("a", A), 1: ("b", B)}, [(0, 2)])

    def test_disconnected_rejected(self):
        nodes = {0: ("a", A), 1: ("b", B), 2: ("c", C)}
        with pytest.raises(TopologyError, match="not connected"):
            Topology("t", nodes, [(0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology("t", {}, [])

    def test_bad_speed_rejected(self):
        with pytest.raises(TopologyError, match="speed"):
            Topology("t", {0: ("a", A), 1: ("b", B)}, [(0, 1)], propagation_speed_m_per_s=0)


class TestAccessors:
    def test_label_and_geo(self):
        topo = triangle()
        assert topo.label(1) == "b"
        assert topo.geo(1) == B

    def test_unknown_node_raises(self):
        topo = triangle()
        with pytest.raises(TopologyError):
            topo.info(99)
        with pytest.raises(TopologyError):
            topo.neighbors(99)
        with pytest.raises(TopologyError):
            topo.degree(99)

    def test_neighbors_sorted(self):
        topo = triangle()
        assert topo.neighbors(1) == (0, 2)

    def test_degree(self):
        topo = triangle()
        assert topo.degree(0) == 2

    def test_edges_canonical_order(self):
        topo = triangle()
        assert topo.edges() == ((0, 1), (0, 2), (1, 2))

    def test_contains_and_len(self):
        topo = triangle()
        assert 0 in topo
        assert 99 not in topo
        assert len(topo) == 3

    def test_has_edge_symmetric(self):
        topo = triangle()
        assert topo.has_edge(0, 1)
        assert topo.has_edge(1, 0)


class TestDistances:
    def test_link_delay_consistent_with_distance(self):
        topo = triangle()
        dist = topo.link_distance_m(0, 1)
        assert topo.link_delay_ms(0, 1) == pytest.approx(dist / 2e8 * 1000)

    def test_missing_link_raises(self):
        nodes = {0: ("a", A), 1: ("b", B), 2: ("c", C)}
        topo = Topology("path", nodes, [(0, 1), (1, 2)])
        with pytest.raises(TopologyError, match="no link"):
            topo.link_delay_ms(0, 2)

    def test_geo_delay_between_non_neighbors(self):
        nodes = {0: ("a", A), 1: ("b", B), 2: ("c", C)}
        topo = Topology("path", nodes, [(0, 1), (1, 2)])
        assert topo.geo_delay_ms(0, 2) > 0

    def test_link_distance_positive(self):
        topo = triangle()
        for u, v in topo.edges():
            assert topo.link_distance_m(u, v) > 0

    def test_repr_mentions_size(self):
        assert "nodes=3" in repr(triangle())
