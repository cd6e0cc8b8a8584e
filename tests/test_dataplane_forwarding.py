"""Tests for network-wide forwarding simulation."""

from __future__ import annotations

import pytest

from repro.dataplane.forwarding import NetworkDataPlane
from repro.dataplane.packet import Packet
from repro.dataplane.switch import SwitchMode
from repro.exceptions import DataPlaneError, ForwardingLoopError
from repro.flows.demands import all_pairs_flows
from repro.flows.flow import Flow
from repro.topology.generators import grid_topology


@pytest.fixture
def grid():
    return grid_topology(3, 3)


@pytest.fixture
def plane(grid):
    return NetworkDataPlane(grid, mode=SwitchMode.HYBRID, legacy_weight="hops")


class TestLegacyForwarding:
    def test_all_flows_delivered_via_legacy(self, grid, plane):
        """With empty flow tables, the legacy fall-through routes everything."""
        flows = all_pairs_flows(grid, weight="hops")
        realized = plane.check_all_delivered(flows)
        assert len(realized) == len(flows)
        for flow in flows:
            path = realized[flow.flow_id]
            assert path[0] == flow.src and path[-1] == flow.dst
            assert len(path) - 1 == flow.hop_count  # same metric -> same length

    def test_forward_trace_recorded(self, plane):
        packet = Packet(0, 8)
        path = plane.forward(packet)
        assert packet.trace == list(path)
        assert packet.delivered


class TestInstalledPaths:
    def test_install_flow_path_steers_packet(self, grid, plane):
        # Deliberately install a non-shortest path; the flow entries must win
        # over legacy routing at every hop.
        detour = Flow(0, 2, (0, 3, 4, 1, 2))
        plane.install_flow_path(detour)
        path = plane.forward(Packet(0, 2))
        assert path == (0, 3, 4, 1, 2)

    def test_unknown_switch_rejected(self, plane):
        with pytest.raises(DataPlaneError):
            plane.switch(99)


class TestReroute:
    def test_reroute_changes_next_hop(self, grid, plane):
        flow = Flow(0, 8, (0, 1, 2, 5, 8))
        plane.install_flow_path(flow)
        assert plane.forward(Packet(0, 8)) == (0, 1, 2, 5, 8)
        # Reprogram at node 1: go down (to 4) instead of right (to 2).
        plane.reroute((0, 8), at=1, new_next_hop=4)
        path = plane.forward(Packet(0, 8))
        assert path[:3] == (0, 1, 4)
        assert path[-1] == 8

    def test_reroute_to_non_neighbor_rejected(self, plane):
        with pytest.raises(DataPlaneError, match="no link"):
            plane.reroute((0, 8), at=0, new_next_hop=8)

    def test_loop_detected(self, grid, plane):
        # Program a 2-cycle: 0 -> 1 -> 0.
        plane.reroute((0, 8), at=0, new_next_hop=1)
        plane.reroute((0, 8), at=1, new_next_hop=0)
        with pytest.raises(ForwardingLoopError):
            plane.forward(Packet(0, 8))


class TestApplyRecovery:
    def test_recovery_output_is_installable(self, att_context, att_instance_13_20):
        """PM's output installs on the data plane and every offline flow
        still reaches its destination."""
        from repro.pm import solve_pm

        solution = solve_pm(att_instance_13_20)
        plane = NetworkDataPlane(
            att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
        )
        plane.apply_recovery(att_instance_13_20, solution)
        realized = plane.check_all_delivered(att_instance_13_20.flows.values())
        assert len(realized) == att_instance_13_20.n_flows
        # SDN pairs must have flow entries installed.
        for switch, flow_id in solution.sdn_pairs:
            assert plane.switch(switch).flow_table.lookup(flow_id) is not None

    def test_recovered_flow_can_be_rerouted(self, att_context, att_instance_13_20):
        """What programmability buys: a recovered flow reroutes at a
        recovered switch onto an alternate next hop and still arrives."""
        from repro.pm import solve_pm

        instance = att_instance_13_20
        solution = solve_pm(instance)
        plane = NetworkDataPlane(
            att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
        )
        plane.apply_recovery(instance, solution)

        # Find a recovered pair with an alternate next hop available.
        import networkx as nx
        from conftest import nx_graph

        topology = att_context.topology
        graph = nx_graph(topology)
        for switch, flow_id in sorted(solution.sdn_pairs):
            flow = instance.flows[flow_id]
            original = flow.next_hop(switch)
            for neighbor in topology.neighbors(switch):
                if neighbor == original or neighbor in flow.path[: flow.path.index(switch)]:
                    continue
                # Candidate alternate: neighbor that still reaches dst
                # without coming back through `switch`.
                sub = graph.subgraph(n for n in graph if n != switch)
                if neighbor in sub and nx.has_path(sub, neighbor, flow.dst):
                    blocked = set(flow.path[: flow.path.index(switch) + 1])
                    path_nodes = nx.shortest_path(sub, neighbor, flow.dst)
                    if blocked & set(path_nodes):
                        continue
                    plane.reroute(flow_id, at=switch, new_next_hop=neighbor)
                    packet = Packet(flow.src, flow.dst)
                    realized = plane.forward(packet)
                    assert realized[-1] == flow.dst
                    assert neighbor in realized
                    return
        pytest.fail("no reroutable recovered pair found")
