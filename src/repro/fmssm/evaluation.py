"""Feasibility verification and metric evaluation of recovery solutions.

Every algorithm's output is pushed through the same evaluator so the
reported metrics (least/total programmability, recovery percentages,
per-flow communication overhead) are computed identically — exactly the
quantities plotted in Figs. 4–6 of the paper.

Both the verifier and the evaluator read positions only: the solution
is resolved onto the instance's arrays once (:func:`repro.fmssm.point.
resolve` — a kernel's solution arrives as positions and is taken as it
is), and every aggregate — per-flow programmability, per-controller
load, total delay — is one ``bincount``/gather of its :func:`~repro.
fmssm.point.tally`.  The evaluation keeps the per-flow array
(:class:`FlowValues`); its ``programmability`` dict and recoverable-flow
set are views built on first read.  :func:`evaluate_batch` evaluates
many solutions of one scenario (the sweep's shape: four algorithms per
instance).

A result that outlives its request is kept as positions of the
network's frame (:func:`rebase`): the form the solve store decodes to,
so fresh solves and store hits are kept alike, and neither holds its
instance's frame.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from repro.exceptions import SolutionError
from repro.fmssm.arrays import Frame, narrowest
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.point import (
    Tally,
    capacity_violations,
    delay_violations,
    resolve,
    tally,
)
from repro.fmssm.solution import Placement, PositionalViews, RecoverySolution
from repro.types import ControllerId, FlowId, Milliseconds

__all__ = [
    "FlowValues",
    "RecoveryEvaluation",
    "evaluate_solution",
    "evaluate_batch",
    "rebase",
    "verify_solution",
]


class FlowValues(NamedTuple):
    """An evaluation's per-flow values as flow positions of ``frame``."""

    frame: Frame
    #: ``pro^l`` of each listed flow.
    pro: np.ndarray
    #: The listed flows, ascending; ``None`` lists every flow of the
    #: frame (an instance's frame holds just its offline flows, the
    #: network's frame the whole population).
    flows: np.ndarray | None
    #: The recoverable flows.
    recoverable: np.ndarray


@dataclass
class RecoveryEvaluation(PositionalViews):
    """All metrics of one solution on one instance.

    ``per_flow_overhead_ms`` is the paper's Fig. 4(d)/5(f)/6(f) metric:
    total switch-controller propagation delay of served SDN pairs divided
    by the number of recovered flows, plus any per-request middle-layer
    processing charge (PG's FlowVisor).
    """

    algorithm: str
    feasible: bool
    #: pro^l per offline flow (0 for unrecovered flows).
    programmability: dict[FlowId, int] = field(default_factory=dict)
    #: r — least programmability over *recoverable* offline flows.
    least_programmability: int = 0
    #: obj2 — total programmability over all offline flows.
    total_programmability: int = 0
    #: Flows with pro > 0.
    recovered_flows: int = 0
    #: Offline flows that some algorithm could recover.
    recoverable_flows: int = 0
    #: All offline flows.
    offline_flows: int = 0
    #: Switches hosting at least one served SDN pair.
    recovered_switches: int = 0
    offline_switches: int = 0
    #: Control resource consumed per controller.
    controller_load: dict[ControllerId, int] = field(default_factory=dict)
    #: Total propagation delay of served SDN pairs (ms).
    total_delay_ms: Milliseconds = 0.0
    #: Ideal recovery delay G of the instance (ms).
    ideal_delay_ms: Milliseconds = 0.0
    #: Mean communication overhead per recovered flow (ms).
    per_flow_overhead_ms: Milliseconds = 0.0
    #: Combined objective r + lambda * obj2.
    objective: float = 0.0
    solve_time_s: float = 0.0

    @property
    def recovery_fraction(self) -> float:
        """Recovered / recoverable flows (the paper's Fig. 5(c), 6(c))."""
        if self.recoverable_flows == 0:
            return 1.0
        return self.recovered_flows / self.recoverable_flows

    @property
    def switch_recovery_fraction(self) -> float:
        """Recovered / offline switches (the paper's Fig. 5(d), 6(d))."""
        if self.offline_switches == 0:
            return 1.0
        return self.recovered_switches / self.offline_switches

    def programmability_values(self) -> list[int]:
        """pro^l of every *recoverable* offline flow (for distributions).

        Unrecoverable flows are excluded — no algorithm can lift them off
        zero, so including them would flatten every distribution equally.
        """
        return [
            self.programmability[f]
            for f in sorted(self.programmability)
            if f in self._recoverable_set
        ]

    _recoverable_set: frozenset[FlowId] = field(default_factory=frozenset)

    _VIEWS: ClassVar[tuple[str, ...]] = ("programmability", "_recoverable_set")

    @classmethod
    def positional(cls, flow_values: FlowValues, **values) -> RecoveryEvaluation:
        """An evaluation held as ``flow_values``; ``values`` are its other
        fields.

        ``programmability`` (the listed flows, in order) and the
        recoverable-flow set are views of ``flow_values``, built on first
        read.
        """
        return cls._from_positions(flow_values, **values)

    def _views(self, values: FlowValues) -> dict[str, object]:
        flow_ids, flows = values.frame.flow_ids, values.flows
        listed = flow_ids if flows is None else map(flow_ids.__getitem__, flows.tolist())
        return {
            "programmability": dict(zip(listed, values.pro.tolist())),
            "_recoverable_set": frozenset(
                map(flow_ids.__getitem__, values.recoverable.tolist())
            ),
        }


def verify_solution(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    enforce_delay: bool = True,
) -> None:
    """Raise :class:`SolutionError` if ``solution`` violates P′ constraints.

    Checks: mapping targets are active controllers (Eq. 2 is structural —
    the dict maps each switch at most once); SDN pairs are programmable
    pairs of the instance (Eq. 1); per-controller load within spare
    capacity, a ``load_override`` naming only active controllers
    (Eq. 12); total delay within G (Eq. 14, optional since flow-level
    baselines are allowed to trade it off).  The message is the first
    violation :func:`~repro.resilience.validate.validate_solution`
    reports for the same checks.
    """
    _resolved(instance, solution, True, enforce_delay)


def _resolved(
    instance: FMSSMInstance, solution: RecoverySolution, verify: bool, enforce_delay: bool
) -> tuple[Placement, Tally]:
    """``solution``'s placement and tally; with ``verify``, raise the
    first violation :func:`verify_solution` checks for."""
    if verify and not solution.feasible and (solution.mapping or solution.sdn_pairs):
        raise SolutionError("infeasible solutions must be empty")
    placement, problems = resolve(instance, solution)
    counts = tally(instance.arrays(), placement)
    if verify and solution.feasible:
        problems = problems + capacity_violations(instance, solution, counts)
        if enforce_delay:
            problems += delay_violations(instance, counts)
        if problems:
            raise SolutionError(problems[0][1])
    return placement, counts


def evaluate_solution(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    verify: bool = True,
    enforce_delay: bool = False,
) -> RecoveryEvaluation:
    """Compute all paper metrics for ``solution`` on ``instance``.

    ``verify=False`` skips the checks and measures the part of the
    solution that resolves on the instance.
    """
    return evaluate_batch(instance, (solution,), verify, enforce_delay)[0]


def evaluate_batch(
    instance: FMSSMInstance,
    solutions: "list[RecoverySolution] | tuple[RecoverySolution, ...]",
    verify: bool = True,
    enforce_delay: bool = False,
) -> list[RecoveryEvaluation]:
    """Evaluate many solutions of the *same* instance.

    ``[evaluate_solution(instance, s, ...) for s in solutions]``: the
    sweep's shape, where every scenario evaluates all algorithms against
    one instance.
    """
    return [
        _evaluate(instance, solution, *_resolved(instance, solution, verify, enforce_delay))
        for solution in solutions
    ]


def _evaluate(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    placement: Placement,
    counts: Tally,
) -> RecoveryEvaluation:
    """The metrics of a resolved solution, from its tally."""
    arrays = instance.arrays()
    feasible = solution.feasible
    pro = counts.pro
    recovered = int((pro > 0).sum())
    switches = arrays.pair_switch[placement.pairs[placement.pair_ctrl >= 0]]
    if solution.load_override is not None:
        load = {c: solution.load_override.get(c, 0) for c in arrays.controllers}
    else:
        load = dict(zip(arrays.controllers, counts.load.tolist()))
    per_flow = 0.0
    if recovered:
        per_flow = counts.delay / recovered + solution.extra_overhead_ms
    return RecoveryEvaluation.positional(
        FlowValues(arrays.frame, pro, None, arrays.recoverable_pos),
        algorithm=solution.algorithm,
        feasible=feasible,
        least_programmability=counts.least if feasible else 0,
        total_programmability=counts.total,
        recovered_flows=recovered,
        recoverable_flows=int(arrays.recoverable_pos.size),
        offline_flows=arrays.n_flows,
        # Pairs ascend, so their switches do: count the distinct runs.
        recovered_switches=(
            int((switches[1:] != switches[:-1]).sum()) + 1 if switches.size else 0
        ),
        offline_switches=len(arrays.switches),
        controller_load=load,
        total_delay_ms=counts.delay,
        ideal_delay_ms=instance.ideal_delay_ms,
        per_flow_overhead_ms=per_flow,
        objective=counts.least + instance.lam * counts.total if feasible else 0.0,
        solve_time_s=solution.solve_time_s,
    )


def rebase(
    instance: FMSSMInstance,
    solutions: Iterable[RecoverySolution],
    evaluations: Iterable[RecoveryEvaluation],
    network: Frame | None = None,
) -> None:
    """Move ``instance``'s positional results onto ``network``, its
    index's frame (:meth:`GroundingIndex.network_frame
    <repro.fmssm.build.GroundingIndex.network_frame>`), in place.
    Without ``network``, onto the network frame the index had already
    built when it grounded ``instance``; results of an instance grounded
    before that (a one-off request) stay as they are, so rebasing never
    builds the network frame.

    This is the kept form, the one :func:`repro.perf.store.decode_result`
    returns: a plan's served pairs as int32 entry positions and its
    controllers in the network's narrowest controller width
    (:class:`~repro.fmssm.arrays.NetworkMap`); an evaluation's offline
    flows and recoverable flows as int32 population positions (shared by
    the instance's results) and ``pro`` in the narrowest width that holds
    it.  The views are unchanged but for their order, which becomes the
    network frame's.  A result whose dicts were read, or built as dicts,
    stays as it is; so does every result of an instance not grounded from
    ``network``'s index.  The solutions must be ones :func:`evaluate_batch`
    verified.
    """
    arrays = instance.arrays()
    mapped = arrays.network_map(network)
    if mapped is None:
        return
    network = mapped.network
    frame, controllers = arrays.frame, mapped.controllers
    for solution in solutions:
        own = solution.positions()
        if own is not None and own.frame is frame:
            switch_ctrl = np.full(len(network.switches), -1, dtype=controllers.dtype)
            switch_ctrl[mapped.codes] = controllers.take(own.switch_ctrl)
            solution._rebase(Placement(
                network,
                switch_ctrl,
                mapped.entries.take(own.pairs),
                controllers.take(own.pair_ctrl),
            ))
    for evaluation in evaluations:
        own = evaluation.positions()
        if own is not None and own.frame is frame and own.flows is None:
            pro = own.pro.astype(narrowest(0, int(own.pro.max(initial=0))))
            evaluation._rebase(FlowValues(network, pro, mapped.flows, mapped.recoverable))
