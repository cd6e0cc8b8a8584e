"""Independent validation of recovery solutions against P′'s constraints.

:func:`repro.fmssm.evaluation.verify_solution` raises on the first
violation and is wired into the evaluator; this module is the
*resilience-layer* validator: it re-derives every constraint of the
instance from scratch, collects **all** violations into a structured
:class:`ValidationReport`, and is invoked on every solver route's output
(see :func:`repro.fmssm.optimal.solve_optimal`) so a subtly infeasible
vector — whether from solver numerics or from the fault-injection
harness — can never masquerade as a verified solution.

Checked constraints (paper numbering):

Eq. 2
    Every offline switch maps to at most one *active* controller, and
    every served SDN pair is served by an active controller.
Eq. 1 (structural)
    Served SDN pairs are programmable pairs of the instance
    (``beta == 1``).
Eq. 3 / 12
    Per-controller control-resource load stays within spare capacity
    (honouring ``load_override`` for whole-switch-granularity baselines).
Eq. 4 / 13
    The least programmability over recoverable flows is consistent: when
    full recovery is required, every recoverable flow reaches ``r >= 1``;
    a solver-reported canonical objective must match the value recomputed
    from the activated pairs.
Eq. 5 / 6 / 14
    Total switch-controller propagation delay of served pairs stays
    within the ideal recovery delay ``G``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution
from repro.types import ControllerId, FlowId

__all__ = ["Violation", "ValidationReport", "validate_solution", "check_solution"]

#: Relative + absolute tolerance on the delay bound (solver numerics).
_DELAY_TOL = 1e-6
#: Tolerance when cross-checking a solver-reported canonical objective.
_OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One violated constraint, named by its paper equation."""

    constraint: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.constraint}] {self.message}"


@dataclass
class ValidationReport:
    """Outcome of validating one solution against one instance."""

    algorithm: str
    checked: tuple[str, ...] = ()
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no constraint was violated."""
        return not self.violations

    def add(self, constraint: str, message: str) -> None:
        """Record one :class:`Violation`."""
        self.violations.append(Violation(constraint, message))

    def summary(self) -> str:
        """One-line account: ok, or every violation in order."""
        if self.ok:
            return f"{self.algorithm}: ok ({len(self.checked)} constraint groups)"
        lines = "; ".join(str(v) for v in self.violations)
        return f"{self.algorithm}: {len(self.violations)} violation(s): {lines}"


def validate_solution(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    enforce_delay: bool = True,
    require_full_recovery: bool = False,
) -> ValidationReport:
    """Re-derive every constraint and return a full :class:`ValidationReport`.

    Unlike ``verify_solution`` this never raises and never stops at the
    first violation — chaos tests and degradation ladders want the
    complete picture.  An infeasible solution validates trivially when
    empty (the paper's "Optimal has no result" outcome) and is flagged
    otherwise.
    """
    report = ValidationReport(
        algorithm=solution.algorithm,
        checked=("eq2-mapping", "eq1-pairs", "eq3-capacity", "eq4-least", "eq5-delay"),
    )
    if not solution.feasible:
        if solution.mapping or solution.sdn_pairs:
            report.add(
                "structural",
                "solution declared infeasible but carries a mapping or SDN pairs",
            )
        return report

    # The instance's positional arrays, not its dict views, so a
    # validated solve builds no per-pair dict.
    arrays = instance.arrays()
    pair_index = arrays.pair_index
    switch_set = set(instance.switches)
    controller_set = set(instance.controllers)

    # Eq. 2 — one active controller per mapped switch.  The dict is
    # structurally "at most one"; what can go wrong is the *target*.
    for switch, controller in solution.mapping.items():
        if switch not in switch_set:
            report.add("eq2-mapping", f"mapped switch {switch!r} is not offline")
        if controller not in controller_set:
            report.add(
                "eq2-mapping",
                f"switch {switch!r} mapped to inactive controller {controller!r}",
            )
    for pair, controller in solution.pair_controller.items():
        if controller not in controller_set:
            report.add(
                "eq2-mapping",
                f"pair {pair!r} served by inactive controller {controller!r}",
            )

    # Eq. 1 — served pairs must be programmable pairs of this instance.
    for pair in solution.sdn_pairs:
        if pair not in pair_index:
            report.add("eq1-pairs", f"SDN pair {pair!r} is not a programmable pair")

    # Active pairs drive capacity, delay and programmability; a pair whose
    # serving controller cannot be resolved is itself a violation.
    served: list[tuple[object, FlowId, ControllerId]] = []
    for switch, flow_id in solution.active_pairs():
        if (switch, flow_id) not in pair_index:
            continue  # already reported under eq1-pairs
        try:
            controller = solution.controller_for_pair(switch, flow_id)
        except Exception as exc:  # SolutionError: unmapped served pair
            report.add("eq2-mapping", str(exc))
            continue
        served.append((switch, flow_id, controller))

    # Eq. 3 / 12 — control-resource capacity.
    load: dict[ControllerId, int] = {c: 0 for c in instance.controllers}
    for _, _, controller in served:
        if controller in load:
            load[controller] += 1
    if solution.load_override is not None:
        for controller, used in solution.load_override.items():
            if controller not in controller_set:
                report.add(
                    "eq3-capacity",
                    f"load override names inactive controller {controller!r}",
                )
        load = {c: solution.load_override.get(c, 0) for c in instance.controllers}
    for controller, used in load.items():
        if used > instance.spare[controller]:
            report.add(
                "eq3-capacity",
                f"controller {controller!r} load {used} exceeds spare "
                f"{instance.spare[controller]}",
            )

    # Eq. 4 / 13 — least programmability over recoverable flows.
    # Per flow position; every served pair is a programmable pair.
    pair_flow, pair_pbar = arrays.pair_flow.tolist(), arrays.pair_pbar.tolist()
    programmability = [0] * len(arrays.flow_ids)
    for switch, flow_id, controller in served:
        if controller in controller_set:
            k = pair_index[(switch, flow_id)]
            programmability[pair_flow[k]] += pair_pbar[k]
    recoverable = arrays.recoverable_pos.tolist()
    least = min((programmability[i] for i in recoverable), default=0)
    if require_full_recovery and recoverable and least < 1:
        worst = [arrays.flow_ids[i] for i in recoverable if programmability[i] < 1]
        report.add(
            "eq4-least",
            f"full recovery requires r >= 1 but {len(worst)} recoverable "
            f"flow(s) have zero programmability (e.g. {worst[0]!r})",
        )
    claimed = solution.meta.get("objective")
    if isinstance(claimed, (int, float)):
        canonical = least + instance.lam * sum(programmability)
        if abs(float(claimed) - canonical) > _OBJECTIVE_TOL:
            report.add(
                "eq4-least",
                f"reported objective {claimed!r} != recomputed canonical "
                f"objective {canonical!r}",
            )

    # Eq. 5 / 6 / 14 — total propagation delay within G.
    if enforce_delay:
        total = 0.0
        delay = arrays.delay.tolist()
        for switch, flow_id, controller in served:
            column = arrays.controller_pos.get(controller)
            if column is None:
                report.add(
                    "eq5-delay",
                    f"no delay entry for served pair {(switch, controller)!r}",
                )
                continue
            total += delay[arrays.switch_pos[switch]][column]
        bound = instance.ideal_delay_ms * (1 + _DELAY_TOL) + _DELAY_TOL
        if total > bound:
            report.add(
                "eq5-delay",
                f"total delay {total:.6f}ms exceeds G={instance.ideal_delay_ms:.6f}ms",
            )

    return report


def check_solution(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    enforce_delay: bool = True,
    require_full_recovery: bool = False,
) -> ValidationReport:
    """:func:`validate_solution`, raising :class:`ValidationError` on failure."""
    report = validate_solution(
        instance,
        solution,
        enforce_delay=enforce_delay,
        require_full_recovery=require_full_recovery,
    )
    if not report.ok:
        raise ValidationError(report.summary(), report=report)
    return report
