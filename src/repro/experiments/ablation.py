"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each function isolates one design
decision and quantifies its effect, using the same runner/metrics stack
as the main experiments.
"""

from __future__ import annotations

from typing import Any

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario
from repro.experiments.scenarios import ExperimentContext, default_att_context
from repro.fmssm.build import build_instance
from repro.fmssm.evaluation import evaluate_batch, evaluate_solution
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import solve_optimal
from repro.pm.algorithm import solve_pm

__all__ = [
    "lambda_sweep",
    "counter_strategy_comparison",
    "phase2_ablation",
    "delay_constraint_ablation",
    "capacity_sweep",
]

#: The paper's flagship tight case: controllers 13 and 20 fail together.
DEFAULT_CASE: tuple[int, ...] = (13, 20)


def _with_lambda(instance: FMSSMInstance, lam: float) -> FMSSMInstance:
    """Copy an instance with a different objective weight."""
    return FMSSMInstance(
        switches=instance.switches,
        controllers=instance.controllers,
        spare=dict(instance.spare),
        delay=dict(instance.delay),
        flows=dict(instance.flows),
        pbar=dict(instance.pbar),
        gamma=dict(instance.gamma),
        ideal_delay_ms=instance.ideal_delay_ms,
        lam=lam,
        nearest=dict(instance.nearest),
    )


def lambda_sweep(
    context: ExperimentContext,
    failed: tuple[int, ...] = DEFAULT_CASE,
    multipliers: tuple[float, ...] = (0.0, 0.5, 1.0, 10.0, 1000.0),
    time_limit_s: float = 120.0,
) -> list[dict[str, Any]]:
    """How the objective weight lambda trades obj1 (r) against obj2.

    ``multipliers`` scale the library's safe default weight.  Below 1x
    the optimum of r is provably preserved; far above it, the solver may
    sacrifice the least programmability for raw total — demonstrating
    why the paper selects the weight "following [17]".
    """
    base = context.instance(FailureScenario(frozenset(failed)))
    rows = []
    for multiplier in multipliers:
        instance = _with_lambda(base, base.lam * multiplier)
        solution = solve_optimal(instance, time_limit_s=time_limit_s)
        evaluation = evaluate_solution(instance, solution)
        rows.append(
            {
                "multiplier": multiplier,
                "lambda": instance.lam,
                "least": evaluation.least_programmability,
                "total": evaluation.total_programmability,
                "feasible": evaluation.feasible,
            }
        )
    return rows


def counter_strategy_comparison(
    failed: tuple[int, ...] = DEFAULT_CASE,
    strategies: tuple[str, ...] = ("lfa", "bounded", "dag"),
    algorithms: tuple[str, ...] = ("pm", "pg", "retroflow"),
) -> list[dict[str, Any]]:
    """Effect of the path-programmability counting strategy.

    Absolute programmability shifts with the strategy; the algorithm
    ordering (PM ≈ PG > RetroFlow) should not.
    """
    rows = []
    for strategy in strategies:
        context = default_att_context(counter_strategy=strategy)
        instance = context.instance(FailureScenario(frozenset(failed)))
        solutions = [get_algorithm(name)(instance) for name in algorithms]
        for name, evaluation in zip(algorithms, evaluate_batch(instance, solutions)):
            rows.append(
                {
                    "strategy": strategy,
                    "algorithm": name,
                    "least": evaluation.least_programmability,
                    "total": evaluation.total_programmability,
                    "recovered_pct": 100.0 * evaluation.recovery_fraction,
                }
            )
    return rows


def phase2_ablation(
    context: ExperimentContext,
    failed: tuple[int, ...] = DEFAULT_CASE,
) -> list[dict[str, Any]]:
    """PM with/without phase 2, and with the greedy phase-2 order.

    Dropping phase 2 (resource saturation) should leave the least
    programmability unchanged while total programmability drops — the
    paper's design consideration 3.
    """
    instance = context.instance(FailureScenario(frozenset(failed)))
    variants: list[tuple[str, Any]] = [
        ("pm (paper order)", lambda: solve_pm(instance, phase2_order="paper")),
        ("pm (greedy order)", lambda: solve_pm(instance, phase2_order="greedy")),
        ("pm (no phase 2)", lambda: _pm_without_phase2(instance)),
    ]
    labels = [label for label, _ in variants]
    solutions = [run() for _, run in variants]
    rows = []
    for label, evaluation in zip(labels, evaluate_batch(instance, solutions)):
        rows.append(
            {
                "variant": label,
                "least": evaluation.least_programmability,
                "total": evaluation.total_programmability,
                "resource_used": sum(evaluation.controller_load.values()),
            }
        )
    return rows


def _pm_without_phase2(instance: FMSSMInstance):
    """Run PM with phase 2 disabled (the ``phase2=False`` variant)."""
    solution = solve_pm(instance, phase2=False)
    solution.algorithm = "pm-no-phase2"
    return solution


def delay_constraint_ablation(
    context: ExperimentContext,
    failed: tuple[int, ...] = DEFAULT_CASE,
) -> list[dict[str, Any]]:
    """PM vs PM-strict (honoring Eq. 14) on programmability and overhead."""
    instance = context.instance(FailureScenario(frozenset(failed)))
    cases = (("pm", False), ("pm-strict", True))
    solutions = [solve_pm(instance, enforce_delay=enforce) for _, enforce in cases]
    rows = []
    for (label, _), evaluation in zip(cases, evaluate_batch(instance, solutions)):
        rows.append(
            {
                "variant": label,
                "total": evaluation.total_programmability,
                "total_delay_ms": evaluation.total_delay_ms,
                "ideal_delay_ms": evaluation.ideal_delay_ms,
                "per_flow_overhead_ms": evaluation.per_flow_overhead_ms,
            }
        )
    return rows


def capacity_sweep(
    failed: tuple[int, ...] = (5, 13, 20),
    capacities: tuple[int, ...] = (420, 450, 500, 550, 600),
    algorithms: tuple[str, ...] = ("pm", "pg", "retroflow"),
) -> list[dict[str, Any]]:
    """Recovery fraction as controller capacity varies.

    Around the paper's capacity of 500 the three-failure cases sit at
    the edge of full recovery; sweeping capacity shows the crossover.
    """
    rows = []
    for capacity in capacities:
        context = default_att_context(capacity=capacity)
        instance = context.instance(FailureScenario(frozenset(failed)))
        solutions = [get_algorithm(name)(instance) for name in algorithms]
        for name, evaluation in zip(algorithms, evaluate_batch(instance, solutions)):
            rows.append(
                {
                    "capacity": capacity,
                    "algorithm": name,
                    "recovered_pct": 100.0 * evaluation.recovery_fraction,
                    "total": evaluation.total_programmability,
                }
            )
    return rows
