"""RetroFlow baseline — switch-level hybrid recovery (reference [6]).

RetroFlow (Guo et al., IWQoS'19) recovers offline flows by putting a
*subset* of offline switches in legacy mode (free, unprogrammable) and
remapping the remaining switches — whole, in SDN mode — to active
controllers.  The defining property this paper compares against is the
coarse granularity: a remapped switch costs its full ``gamma_i`` (every
flow in the switch), so a hub switch whose gamma exceeds every
controller's spare capacity simply cannot be recovered (the paper's
case (13, 20) story).

Two variants are provided:

``solve_retroflow``
    Greedy: switches in decreasing recovery value, each to the nearest
    controller that can absorb its whole gamma.  This mirrors heuristic
    switch-level mapping and is the default baseline in the benchmarks.
``solve_retroflow_ip``
    Exact: a small switch-level IP (generalized assignment) written as
    a :class:`~repro.lp.standard_form.StandardForm` and solved with
    HiGHS, giving the best any whole-switch mapper could do.  Used by
    the ablation benchmarks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.lp.highs import grid_rel_gap, solve_form_with_highs
from repro.lp.solution import SolveStatus
from repro.lp.standard_form import StandardForm
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["solve_retroflow", "solve_retroflow_ip"]


def _switch_value(instance: FMSSMInstance, switch: NodeId) -> int:
    """Total programmability recovered by remapping ``switch`` whole.

    Dict walk of the greedy reference; the array routes read the same
    quantity from one weighted bincount (:func:`_switch_values_array`).
    """
    return sum(instance.pbar[(switch, f)] for f in instance.pairs_at[switch])


def _sdn_pairs_for(
    instance: FMSSMInstance, switches: set[NodeId]
) -> set[tuple[NodeId, FlowId]]:
    return {
        (switch, flow_id)
        for switch in switches
        for flow_id in instance.pairs_at[switch]
    }


def _switch_values_array(instance: FMSSMInstance) -> dict[NodeId, int]:
    """Every switch's recovery value via the cached array view.

    One weighted bincount over the pair columns replaces N dict-walks;
    ``p̄`` is integral, so the float weights convert back exactly.
    """
    from repro.perf.kernels import instance_arrays

    arrays = instance_arrays(instance)
    n = len(arrays.switches)
    if arrays.n_pairs:
        values = np.bincount(
            arrays.pair_switch, weights=arrays.pair_pbar, minlength=n
        ).astype(np.int64)
    else:
        values = np.zeros(n, dtype=np.int64)
    return dict(zip(arrays.switches, values.tolist()))


def _sdn_pairs_array(
    instance: FMSSMInstance, switches: set[NodeId]
) -> set[tuple[NodeId, FlowId]]:
    """The programmable pairs of ``switches``, sliced from the pair CSR."""
    from repro.perf.kernels import instance_arrays

    arrays = instance_arrays(instance)
    pairs = instance.pairs
    indptr = arrays.switch_indptr
    switch_pos = arrays.switch_pos
    return {
        pairs[k]
        for switch in switches
        for k in range(indptr[switch_pos[switch]], indptr[switch_pos[switch] + 1])
    }


def solve_retroflow(instance: FMSSMInstance) -> RecoverySolution:
    """Greedy switch-level recovery.

    Switches are processed in decreasing recovery value (total ``p̄`` of
    their programmable pairs, ties to lower id) and mapped whole to the
    nearest active controller with at least ``gamma_i`` spare resource.
    A switch no controller can absorb stays in legacy mode and all of its
    flows remain unprogrammable there.

    Runs the array kernel :func:`repro.perf.kernels.solve_retroflow_array`,
    bit-identical to :func:`_solve_retroflow_reference`.
    """
    from repro.perf.kernels import solve_retroflow_array

    return solve_retroflow_array(instance)


def _solve_retroflow_reference(instance: FMSSMInstance) -> RecoverySolution:
    """Greedy RetroFlow over the instance's dicts: the array kernel's
    reference."""
    start = time.perf_counter()
    available: dict[ControllerId, int] = dict(instance.spare)
    mapping: dict[NodeId, ControllerId] = {}
    load: dict[ControllerId, int] = {c: 0 for c in instance.controllers}

    order = sorted(
        instance.switches,
        key=lambda s: (-_switch_value(instance, s), s),
    )
    for switch in order:
        gamma = instance.gamma[switch]
        ordered = sorted(
            instance.controllers, key=lambda c: (instance.delay[(switch, c)], c)
        )
        for controller in ordered:
            if available[controller] >= gamma:
                available[controller] -= gamma
                load[controller] += gamma
                mapping[switch] = controller
                break

    sdn_pairs = _sdn_pairs_for(instance, set(mapping))
    return RecoverySolution(
        algorithm="retroflow",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        load_override=load,
        solve_time_s=time.perf_counter() - start,
        feasible=True,
        meta={"variant": "greedy"},
    )


def _assignment_form(
    instance: FMSSMInstance, values: dict[NodeId, int]
) -> StandardForm:
    """The assignment IP of :func:`solve_retroflow_ip` as a standard form.

    Column ``s * M + c`` is ``z[s,c]`` (switch-major); the rows are the
    N mapping rows ``Σ_c z[s,c] <= 1``, then the M capacity rows
    ``Σ_s γ_s z[s,c] <= A_c`` (zero ``γ`` entries left out).
    """
    from scipy import sparse

    n, m = len(instance.switches), len(instance.controllers)
    cols = np.arange(n * m)
    gamma = np.array([instance.gamma[s] for s in instance.switches], dtype=np.float64)
    weight = gamma[cols // m]
    kept = weight != 0.0
    a_ub = sparse.csr_matrix(
        (
            np.concatenate([np.ones(n * m), weight[kept]]),
            (np.concatenate([cols // m, n + cols[kept] % m]),
             np.concatenate([cols, cols[kept]])),
        ),
        shape=(n + m, n * m),
    )
    b_ub = np.concatenate([
        np.ones(n),
        np.array([float(instance.spare[c]) for c in instance.controllers]),
    ])
    value = np.array([values[s] for s in instance.switches], dtype=np.float64)
    return StandardForm(
        c=-np.repeat(value, m),
        a_ub=a_ub,
        b_ub=b_ub,
        lb=np.zeros(n * m),
        ub=np.ones(n * m),
        integrality=np.ones(n * m),
    )


def solve_retroflow_ip(
    instance: FMSSMInstance,
    time_limit_s: float | None = 120.0,
) -> RecoverySolution:
    """Exact switch-level recovery (generalized assignment IP).

    maximize    sum_i value_i * z_i  (z_i = switch i recovered)
    subject to  sum_i gamma_i * z_ij <= A_j  for every controller j
                sum_j z_ij = z_i <= 1

    This is the ceiling of *any* whole-switch mapper; the gap between it
    and PM isolates what hybrid per-flow routing buys beyond clever
    switch packing.  The objective values and the output's SDN pairs are
    read off the cached :class:`~repro.perf.kernels.InstanceArrays`
    view; the IP is solved with HiGHS.
    """
    start = time.perf_counter()
    values = _switch_values_array(instance)
    form = _assignment_form(instance, values)
    # Integer values: within half a unit of their sum's bound is optimal.
    result = solve_form_with_highs(
        form, time_limit_s=time_limit_s,
        mip_rel_gap=grid_rel_gap(0.5, sum(values.values())),
    )

    if not result.is_feasible:  # pragma: no cover - always feasible (z = 0)
        return RecoverySolution(
            algorithm="retroflow-ip",
            feasible=False,
            solve_time_s=time.perf_counter() - start,
            meta={"status": result.status.value},
        )

    mapping: dict[NodeId, ControllerId] = {}
    load: dict[ControllerId, int] = {c: 0 for c in instance.controllers}
    m = len(instance.controllers)
    for col in np.flatnonzero(result.x > 0.5).tolist():
        switch, controller = instance.switches[col // m], instance.controllers[col % m]
        mapping[switch] = controller
        load[controller] += instance.gamma[switch]
    sdn_pairs = _sdn_pairs_array(instance, set(mapping))
    return RecoverySolution(
        algorithm="retroflow-ip",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        load_override=load,
        solve_time_s=time.perf_counter() - start,
        feasible=True,
        meta={"variant": "ip", "status": result.status.value,
              "optimal": result.status is SolveStatus.OPTIMAL},
    )
