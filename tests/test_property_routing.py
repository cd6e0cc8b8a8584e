"""Property-based tests for routing and path counting (hypothesis)."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from conftest import nx_graph
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_grounding_index import wan72_context
from test_topology_zoo import SAMPLE

from repro.experiments.scenarios import default_att_context
from repro.flows.paths import switch_flow_counts
from repro.fmssm.build import GroundingIndex
from repro.routing.kpaths import k_shortest_paths, path_weight
from repro.routing.ospf import compute_legacy_tables
from repro.routing.path_count import (
    BoundedSimplePathCounter,
    LoopFreeAlternateCounter,
    PathCounter,
    ShortestDagCounter,
)
from repro.routing.programmability import ProgrammabilityModel
from repro.routing.shortest import hop_distances_to
from repro.topology.att import att_topology
from repro.topology.generators import (
    grid_topology,
    ring_topology,
    star_topology,
    waxman_topology,
)
from repro.topology.zoo import loads_zoo_topology

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

topologies = st.builds(
    waxman_topology,
    n=st.integers(min_value=5, max_value=14),
    alpha=st.just(0.7),
    beta=st.just(0.4),
    seed=st.integers(min_value=0, max_value=50),
)

#: Connected shapes with varied path diversity: sparse-to-dense Waxman
#: draws, chorded rings and grids (many equal-length detours).
lfa_topologies = st.one_of(
    topologies,
    st.integers(min_value=4, max_value=14).flatmap(
        lambda n: st.builds(
            ring_topology,
            n=st.just(n),
            chords=st.integers(min_value=0, max_value=min(n, n * (n - 3) // 2)),
            seed=st.integers(min_value=0, max_value=50),
        )
    ),
    st.builds(
        grid_topology,
        rows=st.integers(min_value=1, max_value=4),
        cols=st.integers(min_value=2, max_value=5),
    ),
)

pairs = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1])


class TestCounterProperties:
    @SETTINGS
    @given(topologies, st.data())
    def test_lfa_bounded_by_degree(self, topo, data):
        src = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != src]))
        counter = LoopFreeAlternateCounter(topo, slack=1)
        assert 1 <= counter.count(src, dst) <= topo.degree(src)

    @SETTINGS
    @given(topologies, st.data())
    def test_bounded_counter_monotone_in_slack(self, topo, data):
        src = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != src]))
        counts = [
            BoundedSimplePathCounter(topo, slack=s).count(src, dst) for s in (0, 1, 2)
        ]
        assert counts == sorted(counts)

    @SETTINGS
    @given(topologies, st.data())
    def test_dag_count_at_most_bounded_slack0(self, topo, data):
        src = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != src]))
        dag = ShortestDagCounter(topo, weight="hops").count(src, dst)
        bounded = BoundedSimplePathCounter(topo, slack=0).count(src, dst)
        # Both count hop-shortest paths; they must agree.
        assert dag == bounded

    @SETTINGS
    @given(topologies, st.data())
    def test_at_least_one_path_everywhere(self, topo, data):
        src = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != src]))
        assert BoundedSimplePathCounter(topo, slack=0).count(src, dst) >= 1


class PairwiseLfaCounter(PathCounter):
    """The loop-free-alternate count, one pair at a time (the reference).

    A neighbor ``v`` of ``src`` counts toward ``dst`` when ``v == dst``
    or ``1 + d(v, dst) <= d(src, dst) + slack``, with ``d(v, dst)``
    measured in the graph without ``src``.
    """

    def __init__(self, topology, slack):
        super().__init__(topology)
        self._slack = slack

    def _count(self, src, dst):
        graph = nx_graph(self._topology)
        budget = nx.shortest_path_length(graph, src, dst) + self._slack
        avoiding_src = nx.single_source_shortest_path_length(
            graph.subgraph(n for n in graph if n != src), dst
        )
        count = 0
        for neighbor in graph.neighbors(src):
            if neighbor == dst:
                count += 1
                continue
            detour = avoiding_src.get(neighbor)
            if detour is not None and 1 + detour <= budget:
                count += 1
        return count


def bfs_avoiding(adjacency, start, excluded):
    """BFS hop distances from ``start`` in the graph without ``excluded``."""
    # Pre-marking ``excluded`` as reached keeps the BFS from entering it.
    distances = {excluded: -1, start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in distances:
                    distances[neighbor] = depth
                    reached.append(neighbor)
        frontier = reached
    del distances[excluded]
    return distances


def reference_lfa_rows(topology, slack):
    """Every LFA row from one Python BFS per neighbor of each switch
    (the reference for the counter's numpy rows), in ``topology.nodes``
    order; a destination no neighbor reaches counts 0."""
    nodes = topology.nodes
    adjacency = {node: topology.neighbors(node) for node in nodes}
    rows = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for i, src in enumerate(nodes):
        budget = {t: hops + slack for t, hops in hop_distances_to(topology, src).items()}
        counts = dict.fromkeys(nodes, 0)
        for neighbor in adjacency[src]:
            for target, detour in bfs_avoiding(adjacency, neighbor, src).items():
                if 1 + detour <= budget[target]:
                    counts[target] += 1
        rows[i] = [counts[dst] if dst != src else 0 for dst in nodes]
    return rows


def counter_rows(counter):
    """The counter's rows through its public entry point."""
    everyone = np.arange(counter.topology.n_nodes)
    return np.array([counter.counts(src, everyone) for src in counter.topology.nodes])


#: Fixed shapes for the row oracle: the star's hub, once removed,
#: leaves every leaf unreachable from the others.
FIXED_TOPOLOGIES = {
    "att": att_topology,
    "zoo-sample": lambda: loads_zoo_topology(SAMPLE),
    "grid4x5": lambda: grid_topology(4, 5),
    "ring9": lambda: ring_topology(9),
    "star6": lambda: star_topology(6),
}


class TestLfaRows:
    """The counter's numpy rows equal the per-neighbor Python BFS."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.builds(
            waxman_topology,
            n=st.integers(min_value=2, max_value=30),
            alpha=st.sampled_from((0.3, 0.7)),
            beta=st.sampled_from((0.2, 0.4)),
            seed=st.integers(min_value=0, max_value=50),
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_waxman_rows_match_python_bfs(self, topo, slack):
        counter = LoopFreeAlternateCounter(topo, slack=slack)
        assert counter_rows(counter).tolist() == reference_lfa_rows(topo, slack).tolist()

    @pytest.mark.parametrize("slack", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", sorted(FIXED_TOPOLOGIES))
    def test_fixed_topologies(self, shape, slack):
        topo = FIXED_TOPOLOGIES[shape]()
        counter = LoopFreeAlternateCounter(topo, slack=slack)
        expected = reference_lfa_rows(topo, slack)
        assert counter_rows(counter).tolist() == expected.tolist()
        # count() reads the same rows.
        nodes = topo.nodes
        assert [[counter.count(s, t) for t in nodes] for s in nodes] == expected.tolist()

    def test_star_hub_reaches_each_leaf_through_that_leaf_only(self):
        star = star_topology(6)
        counter = LoopFreeAlternateCounter(star, slack=3)
        assert [counter.count(0, leaf) for leaf in range(1, 7)] == [1] * 6
        assert counter.count(1, 2) == 1


def per_pair_fill(model, flows, nodes):
    """``(indptr, packed entries, gamma)`` rebuilt from one
    ``ProgrammabilityModel.pbar`` call per (transit switch, flow) pair."""
    by_id = sorted(range(len(flows)), key=lambda i: flows[i].flow_id)
    sizes, rows = [], []
    for switch in nodes:
        found = [
            (i, flows[i].path.index(switch), model.pbar(flows[i], switch))
            for i in by_id
            if switch in flows[i].transit_switches
        ]
        found = [row for row in found if row[2]]
        sizes.append(len(found))
        rows.extend(found)
    gamma = switch_flow_counts(flows)
    return (
        np.concatenate(([0], np.cumsum(sizes))),
        np.array(rows, dtype=np.int64).reshape(-1, 3).T,
        np.array([gamma.get(node, 0) for node in nodes]),
    )


class TestFilledIndexOracle:
    """The filled grounding index equals a per-pair rebuild."""

    @pytest.mark.parametrize("strategy", ["lfa", "bounded", "dag"])
    def test_att(self, strategy):
        context = default_att_context(counter_strategy=strategy)
        self.assert_fill_matches(context.materialize_table(), context.programmability)

    def test_wan72(self):
        context = wan72_context()
        self.assert_fill_matches(context.materialize_table(), context.programmability)

    def test_population_out_of_flow_id_order(self):
        # Entries are sorted by flow id, not by population position.
        context = default_att_context()
        flows = random.Random(7).sample(context.flows, len(context.flows))
        model = ProgrammabilityModel(context.programmability.counter, flows)
        self.assert_fill_matches(GroundingIndex(context.plane, flows, model).fill(), model)

    @staticmethod
    def assert_fill_matches(index, model):
        indptr, table = index.packed_entries()
        expected_indptr, expected_table, expected_gamma = per_pair_fill(
            model, model.flows, model.counter.topology.nodes
        )
        assert indptr.tolist() == expected_indptr.tolist()
        assert table.tolist() == expected_table.tolist()
        assert table.dtype == np.int64
        assert index._gamma.tolist() == expected_gamma.tolist()


class TestLfaRowFill:
    """The row-at-a-time LFA counter equals the per-pair definition."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lfa_topologies, st.integers(min_value=0, max_value=3), st.data())
    def test_matches_pairwise_reference(self, topo, slack, data):
        counter = LoopFreeAlternateCounter(topo, slack=slack)
        reference = PairwiseLfaCounter(topo, slack)
        # Queries start at a drawn pair, so a row is filled from an
        # arbitrary destination, not always from the first node.
        order = data.draw(st.permutations(topo.nodes))
        for src in order:
            for dst in reversed(order):
                assert counter.count(src, dst) == reference.count(src, dst), (
                    src, dst,
                )

    def test_att_coefficient_table_identical_in_order(self):
        # The filled grounding index holds every p̄ of the network: each
        # switch's (flow, path position, p̄) entries and key tuples.
        context = default_att_context()
        counter = context.programmability.counter
        index = context.materialize_table()
        reference = GroundingIndex(
            context.plane,
            context.flows,
            ProgrammabilityModel(
                PairwiseLfaCounter(context.topology, counter.slack), context.flows
            ),
        ).fill()
        for code, (table, keys) in enumerate(index._entries):
            expected, expected_keys = reference._entries[code]
            assert table.tolist() == expected.tolist(), code
            assert keys == expected_keys, code


class TestKPathProperties:
    @SETTINGS
    @given(topologies, st.data())
    def test_yen_results_sorted_simple_unique(self, topo, data):
        src = data.draw(st.sampled_from(topo.nodes))
        dst = data.draw(st.sampled_from([n for n in topo.nodes if n != src]))
        paths = k_shortest_paths(topo, src, dst, k=4, weight="delay")
        assert paths, "connected topology must have at least one path"
        weights = [path_weight(topo, p, "delay") for p in paths]
        assert weights == sorted(weights)
        assert len(set(paths)) == len(paths)
        for p in paths:
            assert p[0] == src and p[-1] == dst
            assert len(set(p)) == len(p)

    @SETTINGS
    @given(st.integers(min_value=4, max_value=12))
    def test_ring_has_exactly_two_paths(self, n):
        ring = ring_topology(n)
        paths = k_shortest_paths(ring, 0, n // 2, k=10, weight="hops")
        assert len(paths) == 2


class TestLegacyTableProperties:
    @SETTINGS
    @given(topologies)
    def test_legacy_tables_loop_free(self, topo):
        """Following hop-metric legacy tables always reaches the
        destination in exactly the shortest hop distance."""
        tables = compute_legacy_tables(topo, weight="hops")
        for dst in topo.nodes:
            dist = hop_distances_to(topo, dst)
            for src in topo.nodes:
                if src == dst:
                    continue
                node, steps = src, 0
                while node != dst:
                    node = tables[node].next_hop(dst)
                    steps += 1
                    assert steps <= topo.n_nodes, "routing loop"
                assert steps == dist[src]
