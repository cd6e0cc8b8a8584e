"""Successive-failure experiments.

The paper notes controllers "may fail simultaneously or fail
successively"; the evaluation only shows simultaneous combinations.
This runner formalizes the successive case: after each additional
failure, recovery is recomputed from scratch on the new failure set, and
per-stage metrics are collected — the degradation trajectory of the
control plane.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baselines import get_algorithm
from repro.control.failures import successive_scenarios
from repro.experiments.scenarios import ExperimentContext
from repro.fmssm.evaluation import RecoveryEvaluation, evaluate_solution
from repro.metrics.fairness import jain_fairness_index
from repro.types import ControllerId

__all__ = ["SuccessiveStage", "run_successive"]


@dataclass
class SuccessiveStage:
    """Metrics after one more controller failed."""

    failed: tuple[ControllerId, ...]
    evaluation: RecoveryEvaluation
    #: Spare control resource remaining before this stage's recovery.
    total_spare: int
    #: Recoverable offline flows at this stage.
    recoverable_flows: int
    #: Jain's fairness of the recovered programmability distribution.
    fairness: float = field(default=1.0)


def run_successive(
    context: ExperimentContext,
    order: Sequence[ControllerId],
    algorithm: str = "pm",
    parallel: bool = True,
    max_workers: int | None = None,
    executor: object = None,
) -> list[SuccessiveStage]:
    """Fail controllers in ``order`` and re-solve after each failure.

    Each stage is an independent re-solve on its cumulative failure
    set, so the stages route through the process-pool sweep like any
    other scenario list (results come back in stage order, bit-identical
    to the serial loop; only an exact ``algorithm`` fans out, a
    heuristic chain runs in-process).  ``parallel=False``
    forces the serial loop; ``executor`` submits to a warm
    :class:`~repro.perf.executor.SweepExecutor` shared across runs.
    """
    scenarios = list(successive_scenarios(tuple(order)))
    if parallel:
        from repro.perf.sweep import parallel_sweep

        results = parallel_sweep(
            context,
            scenarios,
            (algorithm,),
            max_workers=max_workers,
            executor=executor,
        )
        evaluations = [result.evaluations[algorithm] for result in results]
    else:
        solver = get_algorithm(algorithm)
        evaluations = []
        for scenario in scenarios:
            instance = context.instance(scenario)
            evaluations.append(evaluate_solution(instance, solver(instance)))
    # The stage metrics come from the evaluation and the plane, so no
    # stage grounds its scenario a second time.
    spare = context.plane.spare_capacity(context.flows)
    stages: list[SuccessiveStage] = []
    for scenario, evaluation in zip(scenarios, evaluations):
        stages.append(
            SuccessiveStage(
                failed=tuple(sorted(scenario.failed)),
                evaluation=evaluation,
                total_spare=sum(
                    spare[c] for c in scenario.active_controllers(context.plane)
                ),
                recoverable_flows=evaluation.recoverable_flows,
                fairness=jain_fairness_index(evaluation.programmability_values()),
            )
        )
    return stages
