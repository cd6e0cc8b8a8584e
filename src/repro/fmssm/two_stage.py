"""The two-stage formulation of FMSSM (the paper's first option).

Section IV-D offers two ways to combine the objectives: a two-stage
solve — maximize the least programmability ``r`` first, then maximize
total programmability subject to the optimal ``r`` — or the single
weighted objective ``r + lambda * total`` the paper adopts, citing [17]
for the claim that a properly chosen weight makes both equivalent.

This module implements the two-stage option, both as a user-facing
alternative (it needs no weight at all) and as the executable check of
that equivalence claim (see ``tests/test_fmssm_two_stage.py`` and the
lambda ablation).
"""

from __future__ import annotations

import time

from repro.fmssm.formulation import build_fmssm_model
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import _canonical_objective, _r_upper_bound, extract_solution
from repro.fmssm.solution import RecoverySolution
from repro.lp import LinExpr, solve
from repro.lp.highs import grid_rel_gap

__all__ = ["solve_two_stage"]


def solve_two_stage(
    instance: FMSSMInstance,
    solver: str = "highs",
    time_limit_s: float | None = 600.0,
    require_full_recovery: bool = True,
    enforce_delay: bool = True,
) -> RecoverySolution:
    """Solve FMSSM lexicographically: max ``r`` first, then max total.

    Returns an infeasible :class:`RecoverySolution` when stage 1 already
    has no solution (same condition as the weighted Optimal).  Both
    stages' objectives are integers (``r`` and ``Σ p̄``), so HiGHS may
    stop once its gap is under half a unit (:func:`grid_rel_gap`).
    """
    start = time.perf_counter()

    def gap(bound: float) -> dict[str, float]:
        return {"mip_rel_gap": grid_rel_gap(0.5, bound)} if solver == "highs" else {}

    # ----- stage 1: maximize the least programmability ----------------
    model, handles = build_fmssm_model(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    )
    assert handles.r is not None
    model.set_objective(LinExpr.from_term(handles.r), sense="max")
    stage1 = solve(
        model, solver=solver, time_limit_s=time_limit_s,
        **gap(_r_upper_bound(instance)),
    )
    if not stage1.is_feasible:
        return RecoverySolution(
            algorithm="two-stage",
            feasible=False,
            solve_time_s=time.perf_counter() - start,
            meta={"stage": 1, "status": stage1.status.value},
        )
    best_r = stage1.value("r")

    # ----- stage 2: maximize total programmability at r >= r* ----------
    model2, handles2 = build_fmssm_model(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    )
    assert handles2.r is not None
    # Integer programmabilities make r* integral up to solver tolerance;
    # round to avoid excluding the optimum by an epsilon.
    model2.add_constraint(
        LinExpr.from_term(handles2.r) >= round(best_r), name="stage1-r"
    )
    total = LinExpr.total(
        (float(instance.pbar[(switch, flow_id)]), w_var)
        for (switch, _controller, flow_id), w_var in handles2.w.items()
    )
    model2.set_objective(total, sense="max")
    stage2 = solve(
        model2, solver=solver, time_limit_s=time_limit_s,
        **gap(instance.total_max_programmability()),
    )
    if not stage2.is_feasible:  # pragma: no cover - stage 1 point remains feasible
        return RecoverySolution(
            algorithm="two-stage",
            feasible=False,
            solve_time_s=time.perf_counter() - start,
            meta={"stage": 2, "status": stage2.status.value},
        )
    solution = extract_solution(instance, handles2, stage2, algorithm="two-stage")
    solution.solve_time_s = time.perf_counter() - start
    solution.meta["stage1_r"] = round(best_r)
    # The stage-2 objective is Σ p̄ alone; report the canonical r + λ·obj2
    # (as the weighted route does) and keep the solver's value beside it.
    solution.meta["solver_objective"] = stage2.objective
    solution.meta["objective"] = _canonical_objective(instance, solution)
    return solution
