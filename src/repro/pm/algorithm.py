"""ProgrammabilityMedic — the paper's Algorithm 1.

The heuristic runs in two phases:

Phase 1 (lines 2–40) — *balanced recovery*.  Repeatedly pick the untested
offline switch with the most flows sitting at the current least
programmability level ``sigma`` (lines 5–15), map it to the nearest
active controller with room for the whole switch — or, failing that, the
controller with the most spare resource (lines 17–28) — and flip flows at
or below ``sigma`` into SDN mode there while the controller has budget
(lines 31–36).  When every switch has been tested, reset the test set,
advance ``sigma`` to the new least programmability and repeat, up to
TOTAL_ITERATIONS rounds (each flow's programmability can rise once per
offline switch on its path, so more rounds cannot help).

Phase 2 (lines 42–50) — *resource saturation*.  Scan the remaining
programmable pairs on mapped switches and flip them to SDN mode while
their controller has spare budget, maximizing total programmability.

Faithfulness notes (documented deviations from the pseudo-code):

* Lines 20–24 lack a ``break``, which as written would select the
  *farthest* capable controller; the surrounding text says controllers
  are tested "following the ascending order of the propagation delay",
  so we stop at the first (nearest) capable controller.
* When no untested switch has any flow at level ``sigma`` the pseudo-code
  leaves ``i0 = NULL`` and would dereference it; we treat that as "this
  pass is exhausted" and advance to the next round.
* The pseudo-code never enforces the delay bound (Eq. 14) — PM keeps
  delay low only through its nearest-controller preference, and the
  paper's own Fig. 5(f) discussion confirms PM's total delay may exceed
  G (Optimal "can be only limited to G" while PM beats it on overhead in
  just 8 of 15 cases).  We therefore default to ``enforce_delay=False``;
  the strict variant (skip activations that would exceed G) is available
  for the ablation benchmark as "PM-strict".

:class:`ProgrammabilityMedic` reads like the pseudo-code, line by line.
:func:`solve_pm`, the entry everything else calls, runs the array
kernel :func:`repro.perf.kernels.solve_pm_array` instead, which
``tests/test_perf_kernels.py`` holds bit-identical to this class.
"""

from __future__ import annotations

import time

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["ProgrammabilityMedic", "solve_pm"]


class ProgrammabilityMedic:
    """Stateful runner for Algorithm 1.

    Parameters
    ----------
    instance:
        Ground FMSSM data.
    phase2_order:
        ``"paper"`` scans pairs in sorted (switch, flow) order, as the
        pseudo-code does; ``"greedy"`` scans by decreasing ``p̄`` so the
        leftover budget buys the most total programmability (used by the
        ablation benchmark).
    enforce_delay:
        Skip activations that would exceed the ideal delay ``G``
        (Eq. 14).  Off by default, matching the paper's pseudo-code (see
        module notes); the strict variant is the "PM-strict" ablation.
    phase2:
        Run phase 2 (resource saturation).  ``False`` stops after the
        balanced-recovery phase — the paper's design-consideration-3
        ablation (least programmability unchanged, total drops).
    """

    def __init__(
        self,
        instance: FMSSMInstance,
        phase2_order: str = "paper",
        enforce_delay: bool = False,
        phase2: bool = True,
    ) -> None:
        if phase2_order not in ("paper", "greedy"):
            raise ValueError(f"phase2_order must be 'paper' or 'greedy': {phase2_order!r}")
        self._instance = instance
        self._phase2_order = phase2_order
        self._enforce_delay = enforce_delay
        self._phase2_enabled = phase2
        # Mutable run state.
        self._mapping: dict[NodeId, ControllerId] = {}
        self._sdn_pairs: set[tuple[NodeId, FlowId]] = set()
        self._available: dict[ControllerId, int] = {}
        self._h: dict[FlowId, int] = {}
        self._total_delay_ms: float = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> RecoverySolution:
        """Execute Algorithm 1 and return the recovery solution."""
        start = time.perf_counter()
        instance = self._instance
        self._mapping = {}
        self._sdn_pairs = set()
        self._available = dict(instance.spare)
        self._h = {flow_id: 0 for flow_id in instance.flows}
        self._total_delay_ms = 0.0

        self._phase1()
        if self._phase2_enabled:
            self._phase2()

        meta: dict[str, object] = {
            "phase2_order": self._phase2_order,
            "total_iterations": instance.total_iterations,
        }
        if not self._phase2_enabled:
            meta["phase2"] = False
        return RecoverySolution(
            algorithm="pm",
            mapping=dict(self._mapping),
            sdn_pairs=set(self._sdn_pairs),
            solve_time_s=time.perf_counter() - start,
            feasible=True,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Phase 1: balanced recovery (lines 2-40)
    # ------------------------------------------------------------------
    def _phase1(self) -> None:
        instance = self._instance
        recoverable = set(instance.recoverable_flows)
        untested: list[NodeId] = list(instance.switches)
        sigma = 0
        test_count = 0

        while test_count < instance.total_iterations:
            switch = self._select_switch(untested, sigma)
            if switch is None:
                # No untested switch helps any least-level flow: this pass
                # is exhausted (pseudo-code leaves i0 = NULL here).
                untested = []
            else:
                controller = self._map_switch(switch)
                untested.remove(switch)
                self._recover_at(switch, controller, sigma)
            if not untested:
                untested = list(instance.switches)
                test_count += 1
                if recoverable:
                    sigma = min(self._h[f] for f in recoverable)

    def _select_switch(self, untested: list[NodeId], sigma: int) -> NodeId | None:
        """Lines 5-15: switch with the most least-programmability flows.

        Ties break toward the lower switch id (the pseudo-code's strict
        ``>`` keeps the first maximum in iteration order; we iterate
        switches sorted).
        """
        best_switch: NodeId | None = None
        best_count = 0
        for switch in sorted(untested):
            count = sum(
                1
                for flow_id in self._instance.pairs_at[switch]
                if self._h[flow_id] == sigma
            )
            if count > best_count:
                best_count = count
                best_switch = switch
        return best_switch

    def _map_switch(self, switch: NodeId) -> ControllerId:
        """Lines 17-28: reuse an existing mapping or pick a controller."""
        if switch in self._mapping:
            return self._mapping[switch]
        instance = self._instance
        gamma = instance.gamma[switch]
        ordered = sorted(
            instance.controllers,
            key=lambda c: (instance.delay[(switch, c)], c),
        )
        chosen: ControllerId | None = None
        for controller in ordered:
            if self._available[controller] >= gamma:
                chosen = controller
                break  # nearest capable controller (see module notes)
        if chosen is None:
            # Line 26: fall back to the controller with the most spare
            # resource; ties toward lower id.
            chosen = max(
                instance.controllers,
                key=lambda c: (self._available[c], -c),
            )
        self._mapping[switch] = chosen
        return chosen

    def _charge_delay(self, switch: NodeId, controller: ControllerId) -> bool:
        """Add one activation's delay; under Eq. 14 refuse past ``G``."""
        delay = self._instance.delay[(switch, controller)]
        if (
            self._enforce_delay
            and self._total_delay_ms + delay > self._instance.ideal_delay_ms + 1e-9
        ):
            return False
        self._total_delay_ms += delay
        return True

    def _recover_at(self, switch: NodeId, controller: ControllerId, sigma: int) -> None:
        """Lines 31-36: flip least-level flows to SDN mode at ``switch``."""
        instance = self._instance
        for flow_id in instance.pairs_at[switch]:
            if self._h[flow_id] > sigma:
                continue
            if (switch, flow_id) in self._sdn_pairs:
                continue
            if self._available[controller] <= 0:
                break
            if not self._charge_delay(switch, controller):
                continue
            self._available[controller] -= 1
            self._h[flow_id] += instance.pbar[(switch, flow_id)]
            self._sdn_pairs.add((switch, flow_id))

    # ------------------------------------------------------------------
    # Phase 2: resource saturation (lines 42-50)
    # ------------------------------------------------------------------
    def _phase2(self) -> None:
        """Scan leftover pairs and spend any remaining controller budget."""
        instance = self._instance
        pairs = list(instance.pairs)
        if self._phase2_order == "greedy":
            pairs.sort(key=lambda p: (-instance.pbar[p], p))
        for switch, flow_id in pairs:
            if (switch, flow_id) in self._sdn_pairs:
                continue
            controller = self._mapping.get(switch)
            if controller is None:
                continue
            if self._available[controller] <= 0:
                continue
            if not self._charge_delay(switch, controller):
                continue
            self._available[controller] -= 1
            self._h[flow_id] += instance.pbar[(switch, flow_id)]
            self._sdn_pairs.add((switch, flow_id))


def solve_pm(
    instance: FMSSMInstance,
    phase2_order: str = "paper",
    enforce_delay: bool = False,
    phase2: bool = True,
) -> RecoverySolution:
    """Run the PM heuristic on ``instance``.

    Runs the array kernel :func:`repro.perf.kernels.solve_pm_array`,
    bit-identical to :class:`ProgrammabilityMedic`.  ``phase2=False``
    stops after balanced recovery (the phase-2 ablation).
    """
    from repro.perf.kernels import solve_pm_array

    return solve_pm_array(
        instance,
        phase2_order=phase2_order,
        enforce_delay=enforce_delay,
        phase2=phase2,
    )
