"""A solution as positions of its instance, and the checks made on them.

:func:`resolve` is the one place a :class:`~repro.fmssm.solution.
RecoverySolution` meets its instance: a positional solution over the
instance's frame is taken as it is, after range and uniqueness checks
(Eqs. 1 and 2 by position); a dict-built one, or one whose dicts were
read, is walked once (:func:`resolve_ids`, which the solve store uses
over the network's frame too) and every entry that does not resolve is
named.
Everything downstream reads int arrays: :func:`tally` (programmability
per flow, load per controller, the delay total, ``r`` and ``obj2``),
the Eq. 12 and Eq. 14 checks the verifier and the validator share, and
:func:`feasible_point`, the exact solver's seed check.

:func:`feasible_point` applies exactly the constraints the compiled
standard form (:mod:`repro.perf.compile`) imposes on the embedded point:

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
from typing import NamedTuple

import numpy as np

from repro.fmssm.arrays import Frame, InstanceArrays
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import Placement, RecoverySolution

__all__ = [
    "FEASIBILITY_TOL",
    "Point",
    "Resolved",
    "Tally",
    "empty_placement",
    "feasible_point",
    "resolve",
    "resolve_ids",
    "tally",
]

#: Slack of every row check, as the compiled form's ``is_feasible_point``.
FEASIBILITY_TOL = 1e-6
#: Relative + absolute tolerance of the verifier's and validator's delay bound.
DELAY_TOL = 1e-6


class Resolved(NamedTuple):
    """The served programmable pairs (a controller the instance lacks is
    position ``-2``) and ``(constraint, message)`` per entry that does
    not resolve: mapping and per-pair controllers (Eq. 2), pairs (Eq. 1)."""

    placement: Placement
    problems: list[tuple[str, str]]


def resolve(instance: FMSSMInstance, solution: RecoverySolution) -> Resolved:
    """``solution`` as positions of ``instance`` (see the module docstring).

    A pair is served when it is an SDN pair with a per-pair controller
    or a mapped switch; per-pair controllers win.  An infeasible
    solution resolves to the empty placement.
    """
    arrays = instance.arrays()
    frame = arrays.frame
    if not solution.feasible:
        return Resolved(empty_placement(frame), [])
    own = solution.positions()
    if own is not None and own.frame is frame:
        return _checked_positions(arrays, own)
    # Dicts, or positions over another frame: by their ids.
    return resolve_ids(frame, solution)


def empty_placement(frame: Frame) -> Placement:
    """Nothing mapped, nothing served."""
    empty = np.empty(0, dtype=np.int64)
    return Placement(frame, np.full(len(frame.switches), -1, dtype=np.int64), empty, empty)


def resolve_ids(frame: Frame, solution: RecoverySolution) -> Resolved:
    """The served pairs of a feasible ``solution``'s dicts, by their ids
    in ``frame``; every entry the frame lacks is named."""
    mapping, sdn_pairs = solution.mapping, solution.sdn_pairs
    overrides = solution.pair_controller
    problems = []
    switch_pos, controller_pos = frame.switch_pos, frame.controller_pos
    switch_ctrl = np.full(len(frame.switches), -1, dtype=np.int64)
    for switch, controller in mapping.items():
        s, c = switch_pos.get(switch), controller_pos.get(controller, -2)
        if s is None:
            problems.append(("eq2-mapping", f"mapped switch {switch!r} is not offline"))
        if c < 0:
            problems.append((
                "eq2-mapping",
                f"switch {switch!r} mapped to non-active controller {controller!r}",
            ))
        if s is not None:
            switch_ctrl[s] = c
    for pair, controller in overrides.items():
        if controller not in controller_pos:
            problems.append((
                "eq2-mapping", f"pair {pair!r} served by non-active controller {controller!r}"
            ))
    pair_index = frame.pair_index
    served = []
    for pair in sdn_pairs:
        k = pair_index.get(pair)
        if k is None:
            problems.append(("eq1-pairs", f"SDN pair {pair!r} is not a programmable pair"))
        elif pair in overrides or pair[0] in mapping:
            served.append(k)
    pairs = np.sort(np.array(served, dtype=np.int64))
    pair_ctrl = switch_ctrl[frame.pair_switch[pairs]]
    if overrides:
        keys = frame.pairs
        for i, k in enumerate(pairs.tolist()):
            if keys[k] in overrides:
                pair_ctrl[i] = controller_pos.get(overrides[keys[k]], -2)
    return Resolved(Placement(frame, switch_ctrl, pairs, pair_ctrl), problems)


def _checked_positions(arrays: InstanceArrays, placement: Placement) -> Resolved:
    """Eq. 2: every controller position is one of the instance's (or
    ``-1`` for an unmapped switch); Eq. 1: the served pair positions are
    pair positions, strictly ascending.  A failing pair is left out, a
    failing controller marked ``-2``."""
    m, n_pairs = len(arrays.controllers), arrays.n_pairs
    switch_ctrl, pairs, pair_ctrl = placement.switch_ctrl, placement.pairs, placement.pair_ctrl
    bad_switch = (switch_ctrl < -1) | (switch_ctrl >= m)
    ahead = np.maximum.accumulate(np.concatenate(([-1], pairs[:-1])))
    bad_pair = (pairs < 0) | (pairs >= n_pairs) | (pairs <= ahead)
    bad_ctrl = (pair_ctrl < 0) | (pair_ctrl >= m)
    if not (bad_switch.any() or bad_pair.any() or bad_ctrl.any()):
        return Resolved(placement, [])

    def name(k: int) -> str:
        return repr(arrays.pairs[k]) if 0 <= k < n_pairs else f"position {k}"

    problems = [
        ("eq2-mapping", f"switch {arrays.switches[s]!r} mapped to non-active "
                        f"controller position {switch_ctrl[s]}")
        for s in np.flatnonzero(bad_switch).tolist()
    ] + [
        ("eq1-pairs", f"SDN pair {name(k)} is not a programmable pair, or repeated")
        for k in pairs[bad_pair].tolist()
    ] + [
        ("eq2-mapping", f"pair {name(k)} served by non-active controller position {c}")
        for k, c in zip(pairs[bad_ctrl].tolist(), pair_ctrl[bad_ctrl].tolist())
    ]
    keep, switch_ctrl = ~bad_pair, np.where(bad_switch, -2, switch_ctrl)
    pair_ctrl = np.where(bad_ctrl, -2, pair_ctrl)
    return Resolved(Placement(arrays.frame, switch_ctrl, pairs[keep], pair_ctrl[keep]), problems)


class Tally(NamedTuple):
    """The aggregates of a placement's served pairs with a known
    controller: ``pro^l`` per flow (int64[L]), served pairs per
    controller (int64[M]), Σ delay summed left to right in pair order
    (``cumsum``: bit-identical to a sequential Python sum), ``r`` over
    the recoverable flows and ``obj2``."""

    pro: np.ndarray
    load: np.ndarray
    delay: float
    least: int
    total: int


def tally(arrays: InstanceArrays, placement: Placement) -> Tally:
    """:class:`Tally` of ``placement``; pairs marked ``-2`` count nowhere."""
    pairs, ctrl = placement.pairs, placement.pair_ctrl
    if ctrl.size and ctrl.min() < 0:
        known = ctrl >= 0
        pairs, ctrl = pairs[known], ctrl[known]
    pro = np.bincount(
        arrays.pair_flow[pairs],
        weights=arrays.pair_pbar[pairs],
        minlength=arrays.n_flows,
    ).astype(np.int64)
    recoverable = arrays.recoverable_pos
    return Tally(
        pro=pro,
        load=np.bincount(ctrl, minlength=len(arrays.controllers)),
        delay=(
            float(arrays.delay[arrays.pair_switch[pairs], ctrl].cumsum()[-1])
            if pairs.size
            else 0.0
        ),
        least=int(pro[recoverable].min()) if recoverable.size else 0,
        total=int(pro.sum()),
    )


def capacity_violations(
    instance: FMSSMInstance, solution: RecoverySolution, counts: Tally
) -> list[tuple[str, str]]:
    """Eqs. 3/12: each controller's served pairs, or ``load_override``
    (which must name only the instance's controllers), within its spare."""
    arrays = instance.arrays()
    controllers, override = arrays.controllers, solution.load_override
    problems = []
    if override is None:
        load = counts.load
    else:
        problems = [
            ("eq3-capacity", f"load override names non-active controller {c!r}")
            for c in override
            if c not in arrays.controller_pos
        ]
        load = np.array([override.get(c, 0) for c in controllers], dtype=np.int64)
    for j in np.flatnonzero(load > arrays.spare).tolist():
        problems.append((
            "eq3-capacity",
            f"controller {controllers[j]!r} load {int(load[j])} exceeds spare "
            f"{int(arrays.spare[j])}",
        ))
    return problems


def delay_violations(instance: FMSSMInstance, counts: Tally) -> list[tuple[str, str]]:
    """Eq. 14: the delay total within G, up to :data:`DELAY_TOL`."""
    ideal = instance.ideal_delay_ms
    if counts.delay > ideal * (1 + DELAY_TOL) + DELAY_TOL:
        return [(
            "eq5-delay",
            f"total delay {counts.delay:.6f}ms exceeds G={ideal:.6f}ms",
        )]
    return []


@dataclass(frozen=True, eq=False)
class Point(Placement):
    """A feasible point of P′ by position (see module docstring)."""

    #: ``r``: the least programmability over the recoverable flows.
    least: int
    #: ``obj2``: Σ p̄ over the served pairs.
    total: int
    #: ``r + λ · obj2`` — the integer arithmetic of the optimal module's
    #: canonical objective, so equal (r, obj2) give the same float.
    objective: float


def feasible_point(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    require_full_recovery: bool = False,
    enforce_delay: bool = True,
) -> Point | None:
    """``solution`` as a :class:`Point`, or ``None`` when P′ rejects it.

    The flags mirror :func:`~repro.perf.compile.compile_fmssm`'s: the
    answer is ``None`` when the solution names an entry the instance
    lacks (any :func:`resolve` problem) and otherwise exactly when the
    compiled form's embedded point fails its bounds or rows within
    :data:`FEASIBILITY_TOL`.  A pair in ``sdn_pairs`` that no controller
    serves (its switch unmapped, no per-pair controller) is not part of
    the point, as in the form.
    """
    if not solution.feasible:
        return None
    arrays = instance.arrays()
    placement, problems = resolve(instance, solution)
    if problems:
        return None
    # Eqs. (9)-(11): every served pair uses its switch's mapping.
    if placement.moved().any():
        return None
    counts = tally(arrays, placement)
    # Eq. (12): the form has capacity rows only when the instance has pairs.
    if arrays.n_pairs and np.any(counts.load > arrays.spare + FEASIBILITY_TOL):
        return None
    # Eq. (13): r is bounded above by r_ub = min_l max pro^l, which
    # min_l pro^l never exceeds.
    if require_full_recovery and arrays.recoverable_pos.size and counts.least < 1:
        return None
    # Eq. (14), as the form's sparse row product sums it.
    if enforce_delay and counts.delay > float(instance.ideal_delay_ms) + FEASIBILITY_TOL:
        return None
    return Point(
        placement.frame,
        placement.switch_ctrl,
        placement.pairs,
        placement.pair_ctrl,
        least=counts.least,
        total=counts.total,
        objective=counts.least + instance.lam * counts.total,
    )
