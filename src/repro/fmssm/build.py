"""Assemble an :class:`~repro.fmssm.instance.FMSSMInstance` from a network.

This is the glue between the substrates (topology, flows, programmability
model, control plane, failure scenario) and the optimization/heuristic
layer.  Every recovery algorithm consumes the instance built here, so all
algorithms are compared on identical ground data.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.control.delay import DelayModel, ideal_recovery_delay
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.exceptions import FlowError
from repro.flows.flow import Flow
from repro.flows.paths import switch_flow_counts
from repro.fmssm.instance import FMSSMInstance
from repro.routing.programmability import ProgrammabilityModel
from repro.types import ControllerId, FlowId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.coefficients import CoefficientTable

__all__ = ["GroundingIndex", "build_instance", "default_lambda"]

#: One flow's ``(switch, (switch, flow id), p̄)`` for each transit switch
#: with p̄ != 0, in path order; the key tuple is shared by every instance.
_FlowPairs = tuple[tuple[NodeId, tuple[NodeId, FlowId], int], ...]


def default_lambda(total_max_programmability: int) -> float:
    """A weight that keeps obj1 strictly prioritized over obj2.

    The paper combines ``obj = r + lambda * sum(pro)`` and picks the
    weight "following [17]" so the combined optimum matches the two-stage
    optimum.  Any ``lambda < 1 / max(obj2)`` works: raising ``r`` by one
    unit (its smallest step, since programmabilities are integers) then
    always beats any achievable obj2 gain.  We use half that bound.
    """
    return 0.5 / max(1, total_max_programmability)


class GroundingIndex:
    """Everything about a network that is the same for every scenario.

    A sweep, a store probe or an operator's request loop grounds many
    failure scenarios against one plane and one flow population.  The
    index does the per-workload work once:

    * ``gamma`` of every switch over the full workload;
    * the spare capacity of every controller under the full workload
      (computed on the first :meth:`ground`, so a mis-provisioned plane
      raises :class:`~repro.exceptions.CapacityError` there, after the
      scenario itself was validated);
    * a node → flow-position incidence, so a scenario's offline flows
      are one union over its offline switches instead of a scan of
      every path;
    * each flow's non-zero ``(transit switch, p̄)`` pairs in path order,
      read once from ``programmability``, the first time the flow is
      offline.

    :meth:`ground` then builds each instance from the index alone, with
    the same fields and the same dict insertion order as a scan of the
    flows in order would give.

    Parameters
    ----------
    plane:
        Control plane (topology, domains, capacities).
    flows:
        The full flow population, with unique flow ids.
    programmability:
        Source of ``p̄`` — the lazy :class:`ProgrammabilityModel` or a
        materialized :class:`~repro.perf.coefficients.CoefficientTable`;
        the values are identical by construction.
    """

    def __init__(
        self,
        plane: ControlPlane,
        flows: Iterable[Flow],
        programmability: ProgrammabilityModel | CoefficientTable,
    ) -> None:
        self._plane = plane
        self._flows = tuple(flows)
        self._spare: dict[ControllerId, int] | None = None
        self._sites = {c: plane.controller(c).site for c in plane.controller_ids}
        self._gamma = {s: int(n) for s, n in switch_flow_counts(self._flows).items()}

        self._ids = tuple(flow.flow_id for flow in self._flows)
        if len(set(self._ids)) != len(self._ids):
            raise FlowError("duplicate flow id in the flow population")
        incidence: dict[NodeId, list[int]] = {}
        for position, flow in enumerate(self._flows):
            for node in flow.path:
                incidence.setdefault(node, []).append(position)
        self._incidence = {node: tuple(v) for node, v in incidence.items()}
        self._programmability = programmability
        #: Per flow position, filled the first time the flow is offline,
        #: so a one-scenario run on a lazy model only counts paths for
        #: the flows it needs.
        self._pairs: list[_FlowPairs | None] = [None] * len(self._flows)

    def _flow_pairs(self, position: int) -> _FlowPairs:
        """Read the p̄ pairs of the flow at ``position``."""
        flow, flow_id = self._flows[position], self._ids[position]
        pairs = []
        for switch in flow.transit_switches:
            value = self._programmability.pbar(flow, switch)
            if value:
                pairs.append((switch, (switch, flow_id), value))
        return tuple(pairs)

    def ground(
        self,
        scenario: FailureScenario,
        delay_model: DelayModel | None = None,
        lam: float | None = None,
    ) -> FMSSMInstance:
        """Ground the FMSSM problem for one failure scenario.

        Parameters
        ----------
        scenario:
            Which controllers failed; validated once.
        delay_model:
            Switch-controller delay interpretation; defaults to the
            paper's geodesic model.
        lam:
            Objective weight; defaults to :func:`default_lambda` of the
            instance's obj2 upper bound.
        """
        plane = self._plane
        active, offline_switches = scenario.resolve(plane)
        if self._spare is None:
            # Spare capacity of every controller given the *full*
            # workload — active controllers keep serving their own
            # domains (the paper's "without interrupting their normal
            # operations").
            self._spare = plane.spare_capacity(self._flows)
        delay_model = delay_model or DelayModel(plane.topology, mode="geodesic")
        offline_set = set(offline_switches)
        sites = {c: self._sites[c] for c in active}

        # Offline flows: every flow visiting an offline switch (its
        # destination included), in flow order; p̄ on their offline
        # transit switches, flow-major and in path order.
        incidence = self._incidence
        positions = set().union(*(incidence.get(s, ()) for s in offline_switches))
        flows, ids, pairs = self._flows, self._ids, self._pairs
        offline_flows: dict[FlowId, Flow] = {}
        pbar: dict[tuple[NodeId, FlowId], int] = {}
        for position in sorted(positions):
            offline_flows[ids[position]] = flows[position]
            flow_pairs = pairs[position]
            if flow_pairs is None:
                flow_pairs = pairs[position] = self._flow_pairs(position)
            for switch, key, value in flow_pairs:
                if switch in offline_set:
                    pbar[key] = value

        # gamma over offline switches, counting every flow in the switch
        # (Table III convention: destination included).
        gamma = {s: self._gamma.get(s, 0) for s in offline_switches}
        delay = delay_model.matrix(offline_switches, sites)
        nearest: dict[NodeId, ControllerId] = {
            s: delay_model.nearest_controller(s, sites) for s in offline_switches
        }
        ideal = ideal_recovery_delay(delay_model, offline_switches, sites, gamma)

        if lam is None:
            lam = default_lambda(sum(pbar.values()))

        return FMSSMInstance(
            switches=offline_switches,
            controllers=active,
            spare={c: self._spare[c] for c in active},
            delay=delay,
            flows=offline_flows,
            pbar=pbar,
            gamma=gamma,
            ideal_delay_ms=ideal,
            lam=lam,
            nearest=nearest,
        )


def build_instance(
    plane: ControlPlane,
    flows: Iterable[Flow],
    programmability: ProgrammabilityModel | CoefficientTable,
    scenario: FailureScenario,
    delay_model: DelayModel | None = None,
    lam: float | None = None,
) -> FMSSMInstance:
    """Ground one failure scenario through a one-off :class:`GroundingIndex`.

    Callers grounding several scenarios of one network should build the
    index once (as :meth:`ExperimentContext.instance
    <repro.experiments.scenarios.ExperimentContext.instance>` does) and
    call :meth:`GroundingIndex.ground` per scenario.
    """
    return GroundingIndex(plane, flows, programmability).ground(scenario, delay_model, lam)
