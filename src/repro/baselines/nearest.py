"""Naive switch-level baseline: nearest-controller whole-switch remapping.

This is the "default path programmability recovery solution originated
from OpenFlow" the paper describes (Section II-B1): each offline switch
simply asks its nearest active controller to become master.  The
controller accepts while it has spare capacity for the whole switch;
otherwise the switch stays offline.  Unlike RetroFlow it never looks past
the nearest controller, so it strands even more capacity — a useful lower
bound in ablations.
"""

from __future__ import annotations

import time

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.types import ControllerId, NodeId

__all__ = ["solve_nearest"]


def solve_nearest(instance: FMSSMInstance) -> RecoverySolution:
    """Map each offline switch to its nearest controller if it fits whole.

    Runs the array kernel :func:`repro.perf.kernels.solve_nearest_array`,
    bit-identical to :func:`_solve_nearest_reference`.
    """
    from repro.perf.kernels import solve_nearest_array

    return solve_nearest_array(instance)


def _solve_nearest_reference(instance: FMSSMInstance) -> RecoverySolution:
    """Nearest remapping over the instance's dicts: the array kernel's
    reference."""
    start = time.perf_counter()
    available: dict[ControllerId, int] = dict(instance.spare)
    mapping: dict[NodeId, ControllerId] = {}
    load: dict[ControllerId, int] = {c: 0 for c in instance.controllers}

    for switch in instance.switches:
        controller = instance.nearest[switch]
        gamma = instance.gamma[switch]
        if available[controller] >= gamma:
            available[controller] -= gamma
            load[controller] += gamma
            mapping[switch] = controller

    sdn_pairs = {
        (switch, flow_id)
        for switch in mapping
        for flow_id in instance.pairs_at[switch]
    }
    return RecoverySolution(
        algorithm="nearest",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        load_override=load,
        solve_time_s=time.perf_counter() - start,
        feasible=True,
    )
