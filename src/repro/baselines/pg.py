"""ProgrammabilityGuardian (PG) baseline — flow-level recovery (ref. [9]).

PG inserts a FlowVisor-style middle layer between controllers and
switches, so each offline flow at each offline switch can be mapped to
*any* active controller independently — no single switch-controller
mapping constraint.  That makes PG the programmability ceiling among
per-unit-cost algorithms, at the price of the middle layer's processing
delay (0.48 ms per request on average, charged to the overhead metric)
and its added unreliability.

Without the switch-mapping coupling the optimization decomposes cleanly:

1. choosing *which* pairs to activate only interacts through the total
   budget ``B = sum_j A_j`` (any pair can be served by any controller
   with room — a feasible per-controller split always exists by
   water-filling);
2. the paper's objective order is applied exactly: first maximize the
   number of recovered flows, then the least programmability ``r``
   (binary search over the cheapest pair-sets reaching each level), then
   total programmability with the leftover budget;
3. finally each activated pair is assigned to the nearest controller
   with remaining capacity, greedily in decreasing delay-sensitivity, to
   keep propagation overhead low (PG also optimizes overhead).
"""

from __future__ import annotations

import time

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.types import FLOWVISOR_PROCESSING_MS, ControllerId, FlowId, NodeId

__all__ = ["solve_pg"]


def _cheapest_pairs_reaching(
    instance: FMSSMInstance, flow_id: FlowId, level: int
) -> list[tuple[NodeId, FlowId]] | None:
    """Fewest pairs lifting ``flow_id`` to programmability >= level.

    Greedy largest-``p̄``-first is optimal for minimizing the pair count
    needed to reach a threshold.  Returns ``None`` when unreachable.
    """
    switches = sorted(
        instance.pairs_of[flow_id],
        key=lambda s: (-instance.pbar[(s, flow_id)], s),
    )
    chosen: list[tuple[NodeId, FlowId]] = []
    total = 0
    for switch in switches:
        if total >= level:
            break
        chosen.append((switch, flow_id))
        total += instance.pbar[(switch, flow_id)]
    if total >= level:
        return chosen
    return None


def _pairs_for_level(
    instance: FMSSMInstance, flows: list[FlowId], level: int
) -> dict[FlowId, list[tuple[NodeId, FlowId]]] | None:
    """Cheapest per-flow pair sets reaching ``level``, or None if any fails."""
    plan: dict[FlowId, list[tuple[NodeId, FlowId]]] = {}
    for flow_id in flows:
        pairs = _cheapest_pairs_reaching(instance, flow_id, level)
        if pairs is None:
            return None
        plan[flow_id] = pairs
    return plan


def solve_pg(instance: FMSSMInstance) -> RecoverySolution:
    """Run the PG flow-level recovery (see module docstring).

    Runs the array kernel :func:`repro.perf.kernels.solve_pg_array`,
    bit-identical to :func:`_solve_pg_reference`
    (``tests/test_perf_kernels.py``).
    """
    from repro.perf.kernels import solve_pg_array

    return solve_pg_array(instance)


def _solve_pg_reference(instance: FMSSMInstance) -> RecoverySolution:
    """PG over the instance's dicts: the array kernel's reference."""
    start = time.perf_counter()
    budget = instance.total_spare
    recoverable = list(instance.recoverable_flows)

    chosen: set[tuple[NodeId, FlowId]] = set()
    if budget >= len(recoverable) and recoverable:
        # Full recovery is possible; maximize the least programmability r
        # by binary search over the water level.
        max_level = min(instance.max_programmability(f) for f in recoverable)
        lo, hi = 0, max_level
        best_plan = _pairs_for_level(instance, recoverable, 0) or {}
        while lo < hi:
            mid = (lo + hi + 1) // 2
            plan = _pairs_for_level(instance, recoverable, mid)
            if plan is not None and sum(len(p) for p in plan.values()) <= budget:
                lo = mid
                best_plan = plan
            else:
                hi = mid - 1
        for pairs in best_plan.values():
            chosen.update(pairs)
    elif recoverable:
        # Budget below one unit per flow: maximize the number of
        # recovered flows, preferring those whose single best pair buys
        # the most programmability.
        ranked = sorted(
            recoverable,
            key=lambda f: (
                -max(instance.pbar[(s, f)] for s in instance.pairs_of[f]),
                f,
            ),
        )
        for flow_id in ranked[:budget]:
            best_switch = max(
                instance.pairs_of[flow_id],
                key=lambda s: (instance.pbar[(s, flow_id)], -s),
            )
            chosen.add((best_switch, flow_id))

    # Saturate leftover budget with the highest-p̄ remaining pairs.
    leftover = budget - len(chosen)
    if leftover > 0:
        remaining = sorted(
            (pair for pair in instance.pairs if pair not in chosen),
            key=lambda pair: (-instance.pbar[pair], pair),
        )
        chosen.update(remaining[:leftover])

    # Assign each pair to the nearest controller with remaining capacity.
    # Pairs with the largest spread between their best and worst option
    # are placed first (regret order) to keep total delay low.  The
    # per-switch regret (delay spread) and delay order are computed once
    # per switch, not per pair per sort-key call.
    available: dict[ControllerId, int] = dict(instance.spare)

    regret: dict[NodeId, float] = {}
    by_delay: dict[NodeId, list[ControllerId]] = {}
    for switch in {pair[0] for pair in chosen}:
        delays = [instance.delay[(switch, c)] for c in instance.controllers]
        regret[switch] = max(delays) - min(delays)
        by_delay[switch] = sorted(
            instance.controllers,
            key=lambda c: (instance.delay[(switch, c)], c),
        )

    pair_controller: dict[tuple[NodeId, FlowId], ControllerId] = {}
    for pair in sorted(chosen, key=lambda p: (-regret[p[0]], p)):
        for controller in by_delay[pair[0]]:
            if available[controller] > 0:
                available[controller] -= 1
                pair_controller[pair] = controller
                break
        else:  # pragma: no cover - chosen is capped at the total budget
            raise AssertionError("PG budget accounting violated")

    return RecoverySolution(
        algorithm="pg",
        mapping={},
        sdn_pairs=set(pair_controller),
        pair_controller=pair_controller,
        extra_overhead_ms=FLOWVISOR_PROCESSING_MS,
        solve_time_s=time.perf_counter() - start,
        feasible=True,
        meta={"budget": budget, "middle_layer": "flowvisor"},
    )
