"""A switch-level solution as positions of its instance, checked against P′.

The exact solver tests its seeds (PM's answer, the full fill) for the
optimality certificate before anything else.  :func:`feasible_point`
maps such a :class:`~repro.fmssm.solution.RecoverySolution` onto the
positions of the instance's :class:`~repro.fmssm.arrays.InstanceArrays`
and applies exactly the constraints the compiled standard form
(:mod:`repro.perf.compile`) imposes on the embedded point:

* every switch, controller and served pair is one of the instance's;
* Eqs. (9)-(11): a served pair uses its switch's mapped controller;
* Eq. (12): each controller serves at most its spare in pairs;
* Eq. (13): ``r = min(r_ub, min_l pro^l) ≥ 1`` under full recovery;
* Eq. (14): Σ delay over served pairs ``≤ G`` when the delay is enforced.

A seed that certifies is answered from its :class:`Point` alone, so it
never builds the sparse form; on a certificate miss
:meth:`CompiledFMSSM.embed_solution
<repro.perf.compile.CompiledFMSSM.embed_solution>` scatters the same
point into a solver vector.  Seed feasibility has this one definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmssm.arrays import InstanceArrays
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["FEASIBILITY_TOL", "Point", "feasible_point"]

#: Slack of every row check, as the compiled form's ``is_feasible_point``.
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Point:
    """A feasible point of P′ by position (see module docstring)."""

    arrays: InstanceArrays
    #: Controller position of each switch position; ``-1`` where unmapped.
    switch_ctrl: np.ndarray
    #: Positions of the served pairs, ascending.
    pairs: np.ndarray
    #: Controller position serving each of :attr:`pairs`.
    pair_ctrl: np.ndarray
    #: ``r``: the least programmability over the recoverable flows.
    least: int
    #: ``obj2``: Σ p̄ over the served pairs.
    total: int
    #: ``r + λ · obj2`` — the integer arithmetic of the optimal module's
    #: canonical objective, so equal (r, obj2) give the same float.
    objective: float

    def mapping(self) -> dict[NodeId, ControllerId]:
        """Switch → controller, in switch-position order."""
        switches, controllers = self.arrays.switches, self.arrays.controllers
        return {
            switches[s]: controllers[c]
            for s, c in enumerate(self.switch_ctrl.tolist())
            if c >= 0
        }

    def sdn_pairs(self) -> set[tuple[NodeId, FlowId]]:
        """The served pairs, inserted in pair-position order."""
        pairs = self.arrays.pairs
        return {pairs[k] for k in self.pairs.tolist()}


def feasible_point(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    require_full_recovery: bool = False,
    enforce_delay: bool = True,
) -> Point | None:
    """``solution`` as a :class:`Point`, or ``None`` when P′ rejects it.

    The flags mirror :func:`~repro.perf.compile.compile_fmssm`'s: the
    answer is ``None`` exactly when the compiled form's embedded point
    fails its bounds or rows within :data:`FEASIBILITY_TOL`.  A pair in
    ``sdn_pairs`` that no controller serves (its switch unmapped, no
    per-pair controller) is not part of the point, as in the form.
    """
    if not solution.feasible:
        return None
    arrays = instance.arrays()
    controller_pos = arrays.controller_pos
    mapping = solution.mapping
    switch_at = list(map(arrays.switch_pos.get, mapping))
    ctrl_at = list(map(controller_pos.get, mapping.values()))
    if None in switch_at or None in ctrl_at:
        return None
    switch_ctrl = np.full(len(arrays.switches), -1, dtype=np.int64)
    switch_ctrl[switch_at] = ctrl_at

    pair_controller = solution.pair_controller
    served = [p for p in solution.sdn_pairs if p in pair_controller or p[0] in mapping]
    found = list(map(arrays.pair_index.get, served))
    if None in found:
        return None
    found = np.array(found, dtype=np.int64)
    order = np.argsort(found)
    pairs = found[order]
    ctrl = switch_ctrl[arrays.pair_switch[pairs]]
    if pair_controller:
        # Eqs. (9)-(11).  Without per-pair controllers every served pair
        # uses its switch's mapping, so they hold by construction.
        served_by = [
            controller_pos.get(solution.controller_for_pair(*p)) for p in served
        ]
        if None in served_by or np.any(np.array(served_by)[order] != ctrl):
            return None

    # Eq. (12): the form has capacity rows only when the instance has pairs.
    load = np.bincount(ctrl, minlength=len(arrays.controllers))
    if arrays.n_pairs and np.any(load > arrays.spare + FEASIBILITY_TOL):
        return None

    # Eq. (13): pro^l of each flow; r is bounded above by r_ub = min_l
    # max pro^l, which min_l pro^l never exceeds.
    pbar = arrays.pair_pbar[pairs]
    pro = np.zeros(len(arrays.flow_ids), dtype=np.int64)
    np.add.at(pro, arrays.pair_flow[pairs], pbar)
    recoverable = arrays.recoverable_pos
    least = int(pro[recoverable].min()) if recoverable.size else 0
    if require_full_recovery and recoverable.size and least < 1:
        return None

    # Eq. (14): summed left to right in pair order, as the form's
    # sparse row product does.
    if enforce_delay and pairs.size:
        delay = np.cumsum(arrays.delay[arrays.pair_switch[pairs], ctrl])[-1]
        if delay > float(instance.ideal_delay_ms) + FEASIBILITY_TOL:
            return None

    total = int(pbar.sum())
    return Point(
        arrays=arrays,
        switch_ctrl=switch_ctrl,
        pairs=pairs,
        pair_ctrl=ctrl,
        least=least,
        total=total,
        objective=least + instance.lam * total,
    )
