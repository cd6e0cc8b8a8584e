"""Run recovery algorithms over failure scenarios and collect metrics."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baselines import run_algorithm
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import ExperimentContext
from repro.fmssm.evaluation import RecoveryEvaluation, evaluate_batch, rebase
from repro.fmssm.solution import RecoverySolution
from repro.perf.kernels import prepare_instance

__all__ = [
    "DEGRADATION_CAUSES",
    "DegradationEvent",
    "DegradationReport",
    "ScenarioResult",
    "run_scenario",
    "run_failure_sweep",
    "PAPER_ALGORITHMS",
]

#: The four algorithms the paper compares (Section VI-B).
PAPER_ALGORITHMS: tuple[str, ...] = ("optimal", "retroflow", "pg", "pm")


#: Why a task left its primary path, as :attr:`DegradationEvent.action`.
#: The pool causes send a task to run again in the parent
#: (:mod:`repro.perf.sweep`); the solve causes are
#: :func:`~repro.fmssm.optimal.solve_optimal`'s ``meta["fallback"]``.
DEGRADATION_CAUSES: dict[str, str] = {
    "deadline": "a pool task ran past its wall deadline and the pool was recycled",
    "pool-crash": "the process pool broke, e.g. a worker was killed mid-task",
    "serial-fallback": "the sweep plan, a payload or a result refused to (un)pickle",
    "timeout": "the MILP timed out with no incumbent; the seed answered",
    "solver-error": "the exact solve raised a SolverError; PM answered",
    "validation": "the validator rejected the exact answer; PM answered",
}


@dataclass(frozen=True)
class DegradationEvent:
    """One entry of a result's audit trail.

    ``source`` is ``"sweep"`` or the algorithm whose task degraded.
    ``action`` is ``"mode"`` (the route a sweep took, not a degradation)
    or a cause of :data:`DEGRADATION_CAUSES`.
    """

    source: str
    action: str
    reason: str

    def __post_init__(self) -> None:
        if self.action != "mode" and self.action not in DEGRADATION_CAUSES:
            raise ValueError(f"unknown degradation cause {self.action!r}")


@dataclass
class DegradationReport:
    """How a sweep produced one scenario's answers: its route, and every
    task that left its primary path, with the cause."""

    events: list[DegradationEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any task left its primary path."""
        return any(e.action != "mode" for e in self.events)

    def record(self, source: str, action: str, reason: str) -> None:
        """Append one :class:`DegradationEvent`."""
        self.events.append(DegradationEvent(source, action, reason))


@dataclass
class ScenarioResult:
    """Evaluations of every algorithm on one failure scenario."""

    scenario: FailureScenario
    evaluations: dict[str, RecoveryEvaluation] = field(default_factory=dict)
    solutions: dict[str, RecoverySolution] = field(default_factory=dict)
    #: Execution audit trail: the sweep's route and each task's fallback.
    #: ``None`` for results from the plain serial runner, which records
    #: none (a fallback answer still carries ``meta["degraded"]``).
    degradation: "DegradationReport | None" = None
    #: Free-form execution diagnostics that are not part of the answer —
    #: e.g. the parallel sweep's fan-out stats (payload bytes, worker
    #: init time).  Never consulted when comparing results.
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The scenario's canonical name, e.g. ``"(13, 20)"``."""
        return self.scenario.name

    def relative_total_programmability(self, reference: str = "retroflow") -> dict[str, float]:
        """Each algorithm's total programmability relative to ``reference``.

        This is the normalization of Figs. 4(b), 5(b) and 6(b).  A zero
        reference yields ``inf`` for non-zero algorithms.
        """
        base = self.evaluations[reference].total_programmability
        out = {}
        for name, evaluation in self.evaluations.items():
            if base > 0:
                out[name] = evaluation.total_programmability / base
            else:
                out[name] = float("inf") if evaluation.total_programmability else 1.0
        return out


def run_scenario(
    context: ExperimentContext,
    scenario: FailureScenario,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
) -> ScenarioResult:
    """Run ``algorithms`` on one failure scenario.

    Every exact algorithm runs under ``optimal_time_limit_s``
    (:func:`~repro.baselines.run_algorithm`, the dispatch the sweep uses
    too); an infeasible/timeout outcome is kept as an infeasible
    evaluation, mirroring the paper's missing Optimal bars.
    Once the context's network frame is built (by
    :meth:`~repro.experiments.scenarios.ExperimentContext.materialize_table`,
    as sweeps and services do before their requests), solutions and
    evaluations are kept as its positions
    (:func:`~repro.fmssm.evaluation.rebase`), so the result does not hold
    the scenario's instance; a one-off request does not build it.
    """
    instance = context.instance(scenario)
    prepare_instance(instance)
    result = ScenarioResult(scenario=scenario)
    for name in algorithms:
        result.solutions[name] = run_algorithm(instance, name, optimal_time_limit_s)
    # One batched evaluation over the scenario's solutions — the array
    # view is already warm, so each evaluation is a few reductions.
    evaluations = evaluate_batch(instance, result.solutions.values())
    rebase(instance, result.solutions.values(), evaluations)
    result.evaluations = dict(zip(result.solutions, evaluations))
    return result


def run_failure_sweep(
    context: ExperimentContext,
    n_failures: int,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
) -> list[ScenarioResult]:
    """Run all C(M, n_failures) failure combinations (Figs. 4-6), one
    :func:`run_scenario` each: the serial reference of
    :func:`~repro.perf.sweep.parallel_sweep`, which runs scenario lists."""
    return [
        run_scenario(context, scenario, algorithms, optimal_time_limit_s)
        for scenario in enumerate_failure_scenarios(context.plane, n_failures)
    ]
