"""What path programmability buys: rerouting on the hybrid data plane.

Fails two controllers, recovers with PM, installs the result on the
simulated hybrid SDN/OSPF data plane (Fig. 2 of the paper), and then acts
as the controller: it walks a packet along its recovered flow, reroutes
the flow at a recovered switch onto an alternate path, and walks a second
packet to show the path change take effect — while a legacy-mode flow
keeps following OSPF.

Run with::

    python examples/hybrid_dataplane.py
"""

from __future__ import annotations

from repro import (
    FailureScenario,
    NetworkDataPlane,
    Packet,
    SwitchMode,
    default_att_context,
    solve_pm,
)
from repro.routing.shortest import bidirectional_shortest_path


def fmt_path(context, path) -> str:
    return " -> ".join(f"{context.topology.label(n)}({n})" for n in path)


def main() -> None:
    context = default_att_context()
    scenario = FailureScenario(frozenset({13, 20}))
    instance = context.instance(scenario)
    solution = solve_pm(instance)

    plane = NetworkDataPlane(
        context.topology, mode=SwitchMode.HYBRID, legacy_weight="hops"
    )
    plane.apply_recovery(instance, solution)
    print(
        f"Recovered {len(solution.sdn_pairs)} (switch, flow) pairs in SDN mode "
        f"across {len(solution.mapping)} remapped switches.\n"
    )

    # Pick a recovered pair with a loop-free alternate path.
    topology = context.topology
    for switch, flow_id in sorted(solution.sdn_pairs):
        flow = instance.flows[flow_id]
        original_next = flow.next_hop(switch)
        prefix = set(flow.path[: flow.path.index(switch) + 1])
        for neighbor in topology.neighbors(switch):
            if neighbor == original_next or neighbor in prefix:
                continue
            # Fewest hops to the destination without re-entering ``switch``.
            alternate = bidirectional_shortest_path(
                topology, neighbor, flow.dst, banned_nodes={switch}
            )
            if alternate is None or prefix & set(alternate):
                continue

            print(f"Flow {flow_id} ({topology.label(flow.src)} -> {topology.label(flow.dst)})")
            before = plane.forward(Packet(*flow_id))
            print(f"  before reroute: {fmt_path(context, before)}")

            # The controller reprograms the path at the recovered switch.
            plane.install_path(flow_id, (switch, *alternate))
            after = plane.forward(Packet(*flow_id))
            print(
                f"  rerouted at {topology.label(switch)}({switch}) "
                f"via {topology.label(neighbor)}({neighbor}):"
            )
            print(f"  after reroute : {fmt_path(context, after)}\n")

            # A legacy-mode flow is NOT programmable: it matches no flow
            # entry and falls through to OSPF.
            for legacy in instance.flows.values():
                legacy_hops = [
                    s for s in legacy.transit_switches
                    if s in instance.switches
                    and (s, legacy.flow_id) not in solution.sdn_pairs
                ]
                if legacy_hops:
                    realized = plane.forward(Packet(*legacy.flow_id))
                    print(
                        f"Legacy-mode flow {legacy.flow_id} (no entry at "
                        f"{topology.label(legacy_hops[0])}) follows OSPF unchanged:"
                    )
                    print(f"  {fmt_path(context, realized)}")
                    break
            return
    raise SystemExit("no reroutable recovered pair found")


if __name__ == "__main__":
    main()
