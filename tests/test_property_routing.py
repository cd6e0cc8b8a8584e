"""Property-based tests for routing and path counting (hypothesis)."""

from __future__ import annotations

import networkx as nx
from conftest import nx_graph
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import default_att_context
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
from repro.topology.generators import grid_topology, ring_topology, waxman_topology

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
