"""The graph core against networkx: same paths, lengths and floats.

``repro.routing.shortest`` and ``repro.te.capacity.edge_betweenness``
reimplement the networkx routines the program used to call, tie-breaking
included.  networkx is a test-only dependency; here it is the oracle,
run on ``nx_graph(topology)`` (same node and neighbour order) with the
calls the program made before.  Every comparison is exact: paths equal,
dicts equal in order, floats bit-equal.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import pytest
from conftest import nx_graph
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_topology_zoo import SAMPLE

import repro.routing.kpaths as kpaths
from repro.control.delay import DelayModel
from repro.exceptions import TopologyError
from repro.flows.demands import all_pairs_flows, shortest_path
from repro.geo import GeoPoint
from repro.routing.kpaths import k_shortest_paths
from repro.routing.ospf import compute_legacy_tables
from repro.routing.shortest import (
    bidirectional_shortest_path,
    delay_distances_to,
    dijkstra,
    hop_distances_to,
    single_source_paths,
)
from repro.te.capacity import betweenness_capacities, edge_betweenness
from repro.te.engineer import TrafficEngineer
from repro.topology.att import att_topology
from repro.topology.generators import grid_topology, ring_topology, waxman_topology
from repro.topology.graph import Topology
from repro.topology.zoo import load_zoo_topology, loads_zoo_topology

REPO_ROOT = Path(__file__).resolve().parents[1]

WEIGHTS = {"hops": None, "delay": "delay_ms", "distance": "distance_m"}

BUILDERS = {
    "att": att_topology,
    "zoo-att": lambda: load_zoo_topology(REPO_ROOT / "data" / "att.gml"),
    "zoo-sample": lambda: loads_zoo_topology(SAMPLE),
    "ring20+chords": lambda: ring_topology(20, chords=8, seed=3),
    "grid4x5": lambda: grid_topology(4, 5),
    **{
        f"waxman{n}-s{seed}": (
            lambda n=n, seed=seed: waxman_topology(n, alpha=0.6, beta=0.35, seed=seed)
        )
        for n in (40, 72, 150)
        for seed in (1, 2)
    },
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def case(request):
    topology = BUILDERS[request.param]()
    return topology, nx_graph(topology)


def _sources(topology: Topology, spread: int = 12) -> tuple:
    """Every node, or about ``spread`` of them over a larger graph (time)."""
    nodes = topology.nodes
    return nodes if len(nodes) <= 40 else nodes[:: len(nodes) // spread]


def _same_paths(topology: Topology, graph: nx.Graph) -> None:
    for attr in WEIGHTS.values():
        for src in _sources(topology):
            ours = single_source_paths(topology, src, attr)
            theirs = nx.single_source_dijkstra_path(graph, src, weight=attr or 1)
            assert list(ours.items()) == [(n, tuple(p)) for n, p in theirs.items()]


def _same_pair_paths(topology: Topology, graph: nx.Graph) -> None:
    for weight, attr in WEIGHTS.items():
        for src in _sources(topology, spread=6):
            for dst in topology.nodes:
                if dst != src:
                    expected = tuple(nx.shortest_path(graph, src, dst, weight=attr))
                    assert shortest_path(topology, src, dst, weight) == expected


def _same_betweenness(topology: Topology, graph: nx.Graph) -> None:
    ours = edge_betweenness(topology)
    theirs = nx.edge_betweenness_centrality(graph, normalized=True)
    assert list(ours.items()) == list(theirs.items())


class TestPaths:
    def test_single_source_paths(self, case):
        _same_paths(*case)

    def test_single_pair_paths(self, case):
        _same_pair_paths(*case)

    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_all_pairs_flows(self, case, weight):
        topology, graph = case
        paths = dict(nx.all_pairs_dijkstra_path(graph, weight=WEIGHTS[weight] or 1))
        flows = all_pairs_flows(topology, weight=weight)
        assert [(f.src, f.dst, f.path) for f in flows] == [
            (src, dst, tuple(paths[src][dst]))
            for src in topology.nodes
            for dst in topology.nodes
            if src != dst
        ]

    def test_bidirectional_bfs_around_a_node(self, case):
        topology, graph = case
        for banned in topology.nodes[:: max(1, len(topology) // 6)]:
            sub = graph.subgraph(n for n in graph if n != banned)
            for src in _sources(topology)[:10]:
                for dst in topology.nodes:
                    ours = bidirectional_shortest_path(
                        topology, src, dst, banned_nodes={banned}
                    )
                    if banned in (src, dst) or not nx.has_path(sub, src, dst):
                        assert ours is None
                    else:
                        assert ours == tuple(nx.shortest_path(sub, src, dst))


class TestLengths:
    def test_bfs_lengths(self, case):
        topology, graph = case
        for node in topology.nodes:
            ours = hop_distances_to(topology, node)
            theirs = nx.single_source_shortest_path_length(graph, node)
            assert list(ours.items()) == list(theirs.items())

    @pytest.mark.parametrize("attr", ["delay_ms", "distance_m"])
    def test_dijkstra_lengths(self, case, attr):
        topology, graph = case
        for node in topology.nodes:
            ours = dijkstra(topology, node, attr)[0]
            theirs = nx.single_source_dijkstra_path_length(graph, node, weight=attr)
            assert list(ours.items()) == list(theirs.items())
        node = topology.nodes[0]
        assert delay_distances_to(topology, node) == nx.single_source_dijkstra_path_length(
            graph, node, weight="delay_ms"
        )


class TestCallers:
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_ospf_tables(self, case, weight):
        topology, graph = case
        tables = compute_legacy_tables(topology, weight=weight)
        for src in topology.nodes:
            paths = nx.single_source_dijkstra_path(graph, src, weight=WEIGHTS[weight] or 1)
            for dst, path in paths.items():
                if dst != src:
                    assert tables[src].next_hop(dst) == path[1]

    def test_routed_delays(self, case):
        topology, graph = case
        model = DelayModel(topology, mode="routed")
        for site in _sources(topology):
            lengths = nx.single_source_dijkstra_path_length(graph, site, weight="delay_ms")
            for switch in topology.nodes:
                if switch != site:
                    assert model.delay_ms(switch, site) == lengths[switch]

    def test_edge_betweenness(self, case):
        topology, graph = case
        _same_betweenness(topology, graph)
        theirs = nx.edge_betweenness_centrality(graph, normalized=True)
        top = max(theirs.values()) or 1.0
        assert betweenness_capacities(topology, 10.0) == {
            (min(u, v), max(u, v)): 10.0 * (1.0 + 4.0 * value / top)
            for (u, v), value in theirs.items()
        }

    def test_k_shortest_paths(self, case, monkeypatch):
        """Yen's spur searches agree with networkx's Dijkstra on the
        subgraph the bans leave (the program's k-paths, spur for spur)."""
        topology, graph = case

        def reference(topology, source, target, attr, *, banned_nodes=(), banned_edges=()):
            if source in banned_nodes or target in banned_nodes:
                return None
            view = nx.subgraph_view(
                graph,
                filter_node=lambda n: n not in banned_nodes,
                filter_edge=lambda u, v: (u, v) not in banned_edges
                and (v, u) not in banned_edges,
            )
            try:
                length, path = nx.single_source_dijkstra(
                    view, source, target, weight=attr or 1
                )
            except nx.NetworkXNoPath:
                return None
            return length, tuple(path)

        nodes = topology.nodes
        pairs = [(nodes[0], nodes[-1]), (nodes[-1], nodes[len(nodes) // 3])]
        ours = {
            (pair, weight): k_shortest_paths(topology, *pair, k=6, weight=weight)
            for pair in pairs
            for weight in WEIGHTS
        }
        monkeypatch.setattr(kpaths, "dijkstra_path", reference)
        for (pair, weight), paths in ours.items():
            assert paths == k_shortest_paths(topology, *pair, k=6, weight=weight)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_te_detour(self, case, restricted):
        """The engineer's suffix search equals a networkx shortest path
        on the subgraph view it used to build."""
        topology, graph = case
        allowed = frozenset(topology.nodes[::2]) if restricted else None

        def reference(start, dst, hot_link, banned_nodes):
            def keep(node):
                if node in banned_nodes:
                    return False
                return allowed is None or node in (start, dst) or node in allowed

            sub = nx.subgraph_view(
                graph, filter_node=keep, filter_edge=lambda u, v: {u, v} != set(hot_link)
            )
            if start not in sub or dst not in sub:
                return None
            try:
                return tuple(nx.shortest_path(sub, start, dst, weight="delay_ms"))
            except nx.NetworkXNoPath:
                return None

        engineer = TrafficEngineer(topology, {}, allowed_nodes=allowed)
        checked = 0
        flows = all_pairs_flows(topology)
        for flow in flows[:: max(7, len(flows) // 300)]:
            for idx in range(1, len(flow.path) - 1):
                switch = flow.path[idx]
                hot_link = (flow.path[idx], flow.path[idx + 1])
                banned = set(flow.path[:idx])
                assert engineer._suffix_avoiding(
                    switch, flow.dst, hot_link, banned
                ) == reference(switch, flow.dst, hot_link, banned)
                checked += 1
        assert checked or topology.n_nodes <= 3  # a triangle has no transit


class TestTopology:
    def test_disconnected_error_names_component_sizes(self):
        points = {n: (f"n{n}", GeoPoint(30.0 + n, -100.0 + n)) for n in range(9)}
        links = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]
        graph = nx.Graph()
        graph.add_nodes_from(points)
        graph.add_edges_from(links)
        sizes = sorted(len(c) for c in nx.connected_components(graph))
        with pytest.raises(TopologyError) as err:
            Topology("parts", points, links)
        assert str(err.value) == (
            f"topology 'parts' is not connected (component sizes: {sizes})"
        )

    def test_adjacency_matches_networkx_order(self, case):
        topology, graph = case
        assert list(topology.adjacency) == list(graph)
        for node, nbrs in topology.adjacency.items():
            assert list(nbrs) == list(graph.adj[node])
            assert topology.neighbors(node) == tuple(sorted(graph.adj[node]))
            assert topology.degree(node) == graph.degree[node]
        assert topology.edges() == tuple(sorted((min(u, v), max(u, v)) for u, v in graph.edges))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(min_value=4, max_value=30),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    beta=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_random_waxman_graphs(n, alpha, beta, seed):
    topology = waxman_topology(n, alpha=alpha, beta=beta, seed=seed)
    graph = nx_graph(topology)
    _same_paths(topology, graph)
    _same_pair_paths(topology, graph)
    _same_betweenness(topology, graph)
