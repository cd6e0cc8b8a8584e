"""Data generation for every figure of the paper's evaluation.

Each ``figN_data`` function returns plain dict/list structures holding
the exact series the corresponding figure plots; ``repro.experiments.
report`` renders them as text tables and the benchmarks under
``benchmarks/`` regenerate them end to end.

====== ================================================================
Fig. 4 one controller failure: (a) programmability distribution,
       (b) total programmability relative to RetroFlow, (c) % recovered
       flows, (d) per-flow communication overhead
Fig. 5 two failures: (a)-(c) as above, (d) recovered switches,
       (e) controller resource used, (f) per-flow overhead
Fig. 6 three failures: same as Fig. 5 (Optimal may have no result)
Fig. 7 PM computation time as a percentage of Optimal's
====== ================================================================
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.experiments.runner import (
    PAPER_ALGORITHMS,
    ScenarioResult,
    run_failure_sweep,
    run_failure_sweep_parallel,
)
from repro.experiments.scenarios import ExperimentContext
from repro.fmssm.optimal import solve_optimal
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.summary import FiveNumberSummary, summarize

__all__ = [
    "failure_figure_data",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "headline_ratios",
]


def _case_record(result: ScenarioResult, algorithms: Sequence[str]) -> dict[str, Any]:
    if "retroflow" in result.evaluations:
        relative = result.relative_total_programmability("retroflow")
    else:
        relative = {}
    record: dict[str, Any] = {"case": result.name, "algorithms": {}}
    for name in algorithms:
        evaluation = result.evaluations[name]
        values = evaluation.programmability_values()
        summary: FiveNumberSummary = summarize(values)
        record["algorithms"][name] = {
            "feasible": evaluation.feasible,
            "programmability_summary": summary,
            "fairness": jain_fairness_index(values) if evaluation.feasible else None,
            "least_programmability": evaluation.least_programmability,
            "total_programmability": evaluation.total_programmability,
            "total_vs_retroflow": relative.get(name),
            "recovered_flows_pct": 100.0 * evaluation.recovery_fraction,
            "recovered_switches": evaluation.recovered_switches,
            "offline_switches": evaluation.offline_switches,
            "controller_load": dict(evaluation.controller_load),
            "resource_used": sum(evaluation.controller_load.values()),
            "per_flow_overhead_ms": evaluation.per_flow_overhead_ms,
            "solve_time_s": evaluation.solve_time_s,
        }
    return record


def failure_figure_data(
    context: ExperimentContext,
    n_failures: int,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    optimal_time_limit_s: float = 300.0,
    results: Sequence[ScenarioResult] | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
    executor: object = None,
    store: object = None,
) -> dict[str, Any]:
    """All per-case series for an ``n_failures``-failure figure.

    Pass precomputed ``results`` (e.g. shared across figures by the
    benchmark harness) to skip re-running the sweep.  Fresh sweeps that
    hold an exact solve fan out over a process pool by default (results
    are bit-identical to the serial runner; heuristic-only sweeps run
    serially) — set ``parallel=False``
    to force the in-process serial sweep, or pass a warm ``executor``
    (:class:`~repro.perf.executor.SweepExecutor`) when generating
    several figures over one context.  ``store`` memoizes solves in a
    :class:`~repro.perf.store.SolveStore`, so regenerating a figure
    replays earlier runs' solves bit-identically.
    """
    if results is None:
        if parallel:
            results = run_failure_sweep_parallel(
                context,
                n_failures,
                algorithms,
                optimal_time_limit_s,
                max_workers=max_workers,
                executor=executor,
                store=store,
            )
        else:
            results = run_failure_sweep(
                context, n_failures, algorithms, optimal_time_limit_s
            )
    # What grounding puts in ``instance.spare``, summed without
    # grounding each scenario a second time after its sweep.
    spare = context.plane.spare_capacity(context.flows)
    return {
        "n_failures": n_failures,
        "algorithms": list(algorithms),
        "cases": [_case_record(r, algorithms) for r in results],
        "total_spare": {
            r.name: sum(spare[c] for c in r.scenario.active_controllers(context.plane))
            for r in results
        },
    }


def fig4_data(context: ExperimentContext, **kwargs: Any) -> dict[str, Any]:
    """Fig. 4 — one controller failure (6 cases)."""
    return failure_figure_data(context, 1, **kwargs)


def fig5_data(context: ExperimentContext, **kwargs: Any) -> dict[str, Any]:
    """Fig. 5 — two controller failures (15 cases)."""
    return failure_figure_data(context, 2, **kwargs)


def fig6_data(context: ExperimentContext, **kwargs: Any) -> dict[str, Any]:
    """Fig. 6 — three controller failures (20 cases)."""
    return failure_figure_data(context, 3, **kwargs)


def fig7_data(
    context: ExperimentContext,
    optimal_time_limit_s: float = 300.0,
    results_by_n: dict[int, Sequence[ScenarioResult]] | None = None,
    parallel: bool = True,
    max_workers: int | None = None,
    executor: object = None,
    store: object = None,
) -> dict[str, Any]:
    """Fig. 7 — PM computation time as a percentage of Optimal's.

    Runs PM and Optimal on every 1-, 2- and 3-failure combination and
    reports per-scenario and mean percentages (cases where Optimal has
    no result are excluded from the mean, as in the paper).  Pass
    ``results_by_n`` (from sweeps that already include both algorithms)
    to reuse existing solves.  Fresh sweeps use the process pool unless
    ``parallel=False`` (identical results either way).

    The denominator is the exact solve the paper times: a cold MILP
    (``warm_start=None``) of every case the sweep's Optimal solved.  The
    sweep's own Optimal time is not used, since a seed certificate can
    answer a case without running the MILP at all.
    """
    out: dict[str, Any] = {"scenarios": {}, "mean_pct": {}}
    for n_failures in (1, 2, 3):
        if results_by_n is not None and n_failures in results_by_n:
            results = results_by_n[n_failures]
        elif parallel:
            results = run_failure_sweep_parallel(
                context,
                n_failures,
                ("optimal", "pm"),
                optimal_time_limit_s,
                max_workers=max_workers,
                executor=executor,
                store=store,
            )
        else:
            results = run_failure_sweep(
                context, n_failures, ("optimal", "pm"), optimal_time_limit_s
            )
        rows = []
        for result in results:
            pm = result.evaluations["pm"]
            optimal_s = None
            if result.evaluations["optimal"].feasible:
                cold = solve_optimal(
                    context.instance(result.scenario),
                    time_limit_s=optimal_time_limit_s,
                    warm_start=None,
                )
                optimal_s = cold.solve_time_s if cold.feasible else None
            pct = None
            if optimal_s:
                pct = 100.0 * pm.solve_time_s / optimal_s
            rows.append(
                {
                    "case": result.name,
                    "pm_time_s": pm.solve_time_s,
                    "optimal_time_s": optimal_s,
                    "pct": pct,
                }
            )
        valid = [r["pct"] for r in rows if r["pct"] is not None]
        out["scenarios"][n_failures] = rows
        out["mean_pct"][n_failures] = sum(valid) / len(valid) if valid else None
    return out


def headline_ratios(figure_data: dict[str, Any]) -> dict[str, Any]:
    """The paper's headline claim: PM's total programmability vs RetroFlow.

    Returns the min/max/mean of PM's relative total programmability and
    the case attaining the maximum (the paper reports up to 315 % under
    two failures — case (13, 20) — and 340 % under three).
    """
    ratios = []
    for case in figure_data["cases"]:
        ratio = case["algorithms"]["pm"]["total_vs_retroflow"]
        if ratio is not None and ratio != float("inf"):
            ratios.append((ratio, case["case"]))
    if not ratios:
        return {"min_pct": None, "max_pct": None, "mean_pct": None, "argmax_case": None}
    ratios.sort()
    values = [r for r, _ in ratios]
    return {
        "min_pct": 100.0 * values[0],
        "max_pct": 100.0 * values[-1],
        "mean_pct": 100.0 * sum(values) / len(values),
        "argmax_case": ratios[-1][1],
    }
