"""Independent validation of recovery solutions against P′'s constraints.

:func:`repro.fmssm.evaluation.verify_solution` raises on the first
violation and is wired into the evaluator; this module is the
*resilience-layer* validator: it re-derives every constraint from the
solution's positions on the instance (:func:`repro.fmssm.point.resolve`;
Eqs. 1, 2, 12 and 14 are the verifier's own checks), collects **all**
violations into a structured
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
from repro.fmssm.point import capacity_violations, delay_violations, resolve, tally
from repro.fmssm.solution import RecoverySolution

__all__ = ["Violation", "ValidationReport", "validate_solution", "check_solution"]

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
    first violation — chaos tests and fallback reasons want the
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

    # The solution's positions on the instance (the one resolver); the
    # entries that do not resolve are the Eq. 2 and Eq. 1 violations.
    arrays = instance.arrays()
    placement, problems = resolve(instance, solution)
    counts = tally(arrays, placement)
    problems = problems + capacity_violations(instance, solution, counts)

    # Eq. 4 / 13 — least programmability over recoverable flows.
    recoverable = arrays.recoverable_pos
    if require_full_recovery and recoverable.size and counts.least < 1:
        worst = recoverable[counts.pro[recoverable] < 1]
        problems.append((
            "eq4-least",
            f"full recovery requires r >= 1 but {worst.size} recoverable "
            f"flow(s) have zero programmability (e.g. {arrays.flow_ids[worst[0]]!r})",
        ))
    claimed = solution.meta.get("objective")
    if isinstance(claimed, (int, float)):
        canonical = counts.least + instance.lam * counts.total
        if abs(float(claimed) - canonical) > _OBJECTIVE_TOL:
            problems.append((
                "eq4-least",
                f"reported objective {claimed!r} != recomputed canonical "
                f"objective {canonical!r}",
            ))

    # Eq. 5 / 6 / 14 — total propagation delay within G; a served pair
    # whose controller is not active has no delay entry.
    if enforce_delay:
        strays = placement.pairs[placement.pair_ctrl < 0].tolist()
        for switch, flow_id in map(arrays.pairs.__getitem__, strays):
            served_by = (switch, solution.controller_for_pair(switch, flow_id))
            problems.append(("eq5-delay", f"no delay entry for served pair {served_by!r}"))
        problems += delay_violations(instance, counts)

    for constraint, message in problems:
        report.add(constraint, message)
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
