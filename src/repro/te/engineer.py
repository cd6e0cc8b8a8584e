"""Greedy traffic engineering over *programmable* flows.

After a recovery, only flows with SDN-mode hops under an active
controller can be rerouted.  :class:`TrafficEngineer` relieves congested
links by deviating such flows at their programmable switches — the
application-level payoff of programmability the paper's introduction
motivates ("flexible flow control ... can significantly improve
utilization of WANs").

The engineer is deliberately simple and deterministic: repeatedly take
the most-utilized link, try to move one crossing flow off it by
deviating at one of its programmable switches onto the shortest suffix
that avoids the hot link, accept the move if the MLU strictly improves,
and stop when no move helps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.exceptions import RoutingError
from repro.flows.flow import Flow
from repro.routing.shortest import bidirectional_dijkstra
from repro.te.capacity import link_utilization, max_link_utilization
from repro.topology.graph import Topology
from repro.types import Edge, FlowId, NodeId

__all__ = ["RerouteAction", "TrafficEngineeringResult", "TrafficEngineer"]


@dataclass(frozen=True)
class RerouteAction:
    """One accepted deviation."""

    flow_id: FlowId
    at_switch: NodeId
    relieved_link: Edge
    old_path: tuple[NodeId, ...]
    new_path: tuple[NodeId, ...]


@dataclass
class TrafficEngineeringResult:
    """Outcome of a TE run."""

    flows: dict[FlowId, Flow]
    mlu_before: float
    mlu_after: float
    actions: list[RerouteAction] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative MLU reduction (0 when nothing improved)."""
        if self.mlu_before <= 0:
            return 0.0
        return (self.mlu_before - self.mlu_after) / self.mlu_before


class TrafficEngineer:
    """Relieve congestion by rerouting programmable flows.

    Parameters
    ----------
    topology:
        The data-plane graph.
    capacities:
        Per-undirected-link capacities (see :mod:`repro.te.capacity`).
    allowed_nodes:
        Switches new path suffixes may transit.  A deviated flow needs
        new entries along its suffix, so the suffix must stay on
        controllable switches — online ones plus offline switches that
        were remapped by the recovery.  ``None`` allows every node.
    """

    def __init__(
        self,
        topology: Topology,
        capacities: Mapping[Edge, float],
        allowed_nodes: frozenset[NodeId] | None = None,
    ) -> None:
        self._topology = topology
        self._capacities = dict(capacities)
        self._allowed = allowed_nodes

    def _suffix_avoiding(
        self,
        start: NodeId,
        dst: NodeId,
        hot_link: Edge,
        banned_nodes: set[NodeId],
    ) -> tuple[NodeId, ...] | None:
        """Min-delay path ``start -> dst`` avoiding a link and nodes.

        Transit nodes must also be allowed (the endpoints need not be).
        """
        if self._allowed is not None:
            banned_nodes = banned_nodes | {
                node for node in self._topology.nodes
                if node not in self._allowed and node not in (start, dst)
            }
        found = bidirectional_dijkstra(
            self._topology, start, dst, "delay_ms",
            banned_nodes=banned_nodes, banned_edges=(tuple(hot_link),),
        )
        return None if found is None else found[1]

    def relieve(
        self,
        flows: Mapping[FlowId, Flow],
        programmable: Mapping[FlowId, frozenset[NodeId] | set[NodeId] | tuple[NodeId, ...]],
        max_actions: int = 100,
    ) -> TrafficEngineeringResult:
        """Greedily reduce MLU by deviating programmable flows.

        Parameters
        ----------
        flows:
            Current flow set by id (paths carry the load).
        programmable:
            Flow id → switches where the flow may be deviated (its
            SDN-mode hops under active controllers).  Flows missing from
            the mapping are pinned.
        max_actions:
            Upper bound on accepted reroutes.
        """
        if max_actions < 0:
            raise RoutingError(f"max_actions must be >= 0: {max_actions!r}")
        current: dict[FlowId, Flow] = dict(flows)
        mlu_before = max_link_utilization(
            self._topology, current.values(), self._capacities
        )
        actions: list[RerouteAction] = []

        while len(actions) < max_actions:
            utilization = link_utilization(
                self._topology, current.values(), self._capacities
            )
            hot_link, hot_value = max(utilization.items(), key=lambda kv: kv[1])
            best_move: tuple[float, RerouteAction, Flow] | None = None

            crossing = [
                flow
                for flow in current.values()
                if any({u, v} == set(hot_link) for u, v in zip(flow.path, flow.path[1:]))
            ]
            # Try heavier flows first: moving them relieves more.
            crossing.sort(key=lambda f: (-f.demand, f.flow_id))
            for flow in crossing:
                switches = programmable.get(flow.flow_id, ())
                for switch in flow.transit_switches:
                    if switch not in switches:
                        continue
                    idx = flow.path.index(switch)
                    # Deviating helps only if the hot link lies after the
                    # deviation point.
                    remaining = list(zip(flow.path[idx:], flow.path[idx + 1 :]))
                    if not any({u, v} == set(hot_link) for u, v in remaining):
                        continue
                    prefix = flow.path[: idx + 1]
                    suffix = self._suffix_avoiding(
                        switch, flow.dst, hot_link, set(prefix[:-1])
                    )
                    if suffix is None:
                        continue
                    new_path = prefix[:-1] + suffix
                    if len(set(new_path)) != len(new_path):
                        continue
                    candidate = Flow(flow.src, flow.dst, new_path, demand=flow.demand)
                    trial = dict(current)
                    trial[flow.flow_id] = candidate
                    new_mlu = max_link_utilization(
                        self._topology, trial.values(), self._capacities
                    )
                    if new_mlu < hot_value - 1e-12 and (
                        best_move is None or new_mlu < best_move[0]
                    ):
                        best_move = (
                            new_mlu,
                            RerouteAction(
                                flow_id=flow.flow_id,
                                at_switch=switch,
                                relieved_link=hot_link,
                                old_path=flow.path,
                                new_path=new_path,
                            ),
                            candidate,
                        )
                if best_move is not None and best_move[0] < hot_value * 0.95:
                    break  # good enough for this round; apply it
            if best_move is None:
                break
            _, action, candidate = best_move
            current[action.flow_id] = candidate
            actions.append(action)

        mlu_after = max_link_utilization(
            self._topology, current.values(), self._capacities
        )
        return TrafficEngineeringResult(
            flows=current,
            mlu_before=mlu_before,
            mlu_after=mlu_after,
            actions=actions,
        )
