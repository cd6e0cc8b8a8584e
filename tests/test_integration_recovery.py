"""End-to-end integration: failure → recovery → data plane → reroute.

These tests drive the full pipeline the way an operator would: inject
failures (simultaneous and successive), run recovery, install the result
on the simulated hybrid data plane, and confirm that traffic still flows
and programmable flows are actually reroutable.
"""

from __future__ import annotations

import pytest

from repro.control.failures import FailureScenario, successive_scenarios
from repro.dataplane.forwarding import NetworkDataPlane
from repro.dataplane.packet import Packet
from repro.dataplane.switch import SwitchMode
from repro.fmssm.evaluation import evaluate_solution
from repro.pm.algorithm import solve_pm


class TestFullPipeline:
    @pytest.mark.parametrize("failed", [(13,), (13, 20), (2, 5, 6)])
    def test_recover_install_deliver(self, att_context, failed):
        instance = att_context.instance(FailureScenario(frozenset(failed)))
        solution = solve_pm(instance)
        evaluation = evaluate_solution(instance, solution)
        assert evaluation.recovered_flows > 0

        plane = NetworkDataPlane(
            att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
        )
        plane.apply_recovery(instance, solution)
        realized = plane.check_all_delivered(instance.flows.values())
        # Every offline flow reaches its destination on its original path
        # (SDN entries steer recovered hops; legacy handles the rest).
        for flow in instance.flows.values():
            assert realized[flow.flow_id][-1] == flow.dst
            assert len(realized[flow.flow_id]) - 1 == flow.hop_count

    def test_online_flows_unaffected(self, att_context):
        instance = att_context.instance(FailureScenario(frozenset({13, 20})))
        solution = solve_pm(instance)
        plane = NetworkDataPlane(
            att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
        )
        plane.apply_recovery(instance, solution)
        online = [
            f for f in att_context.flows if f.flow_id not in instance.flows
        ]
        realized = plane.check_all_delivered(online)
        for flow in online:
            assert realized[flow.flow_id][-1] == flow.dst


class TestSuccessiveFailures:
    def test_each_stage_recoverable(self, att_context):
        """Controllers fail one after another; recovery is recomputed
        from scratch at each stage and remains installable."""
        previous_recovered = None
        for scenario in successive_scenarios([13, 20, 5]):
            instance = att_context.instance(scenario)
            solution = solve_pm(instance)
            evaluation = evaluate_solution(instance, solution)
            assert evaluation.recovered_flows > 0
            plane = NetworkDataPlane(
                att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
            )
            plane.apply_recovery(instance, solution)
            plane.check_all_delivered(instance.flows.values())
            previous_recovered = evaluation.recovered_flows
        assert previous_recovered is not None

    def test_recovery_degrades_gracefully(self, att_context):
        """More failures -> recovery fraction never improves."""
        fractions = []
        for scenario in successive_scenarios([13, 20, 5]):
            instance = att_context.instance(scenario)
            evaluation = evaluate_solution(instance, solve_pm(instance))
            fractions.append(evaluation.recovery_fraction)
        assert fractions[0] >= fractions[-1]


class TestRerouteAfterRecovery:
    def test_many_recovered_flows_reroutable(self, att_context):
        """For a sample of recovered pairs, an alternate loop-free next
        hop exists and packets still arrive after reprogramming."""
        import networkx as nx
        from conftest import nx_graph

        instance = att_context.instance(FailureScenario(frozenset({13, 20})))
        solution = solve_pm(instance)
        plane = NetworkDataPlane(
            att_context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
        )
        plane.apply_recovery(instance, solution)
        topology = att_context.topology
        graph = nx_graph(topology)

        rerouted = 0
        for switch, flow_id in sorted(solution.sdn_pairs)[:100]:
            flow = instance.flows[flow_id]
            original_next = flow.next_hop(switch)
            prefix = set(flow.path[: flow.path.index(switch) + 1])
            sub = graph.subgraph(n for n in graph if n != switch)
            for neighbor in topology.neighbors(switch):
                if neighbor == original_next or neighbor in prefix:
                    continue
                if neighbor not in sub or not nx.has_path(sub, neighbor, flow.dst):
                    continue
                alternate = nx.shortest_path(sub, neighbor, flow.dst)
                if prefix & set(alternate):
                    continue
                # Controller installs the changed path segment atomically.
                plane.install_path(flow_id, (switch, *alternate))
                realized = plane.forward(Packet(flow.src, flow.dst))
                assert realized[-1] == flow.dst
                assert neighbor in realized
                # Restore the original path for the next iteration.
                plane.install_path(flow_id, flow.path[flow.path.index(switch):])
                rerouted += 1
                break
        # The programmability coefficients promise alternatives at beta=1
        # switches; a healthy majority of sampled pairs must reroute.
        assert rerouted >= 50
