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

import dataclasses
import time

import numpy as np

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import _canonical_objective, _r_upper_bound
from repro.fmssm.solution import RecoverySolution
from repro.lp.highs import grid_rel_gap, solve_form_with_highs

__all__ = ["solve_two_stage"]


def solve_two_stage(
    instance: FMSSMInstance,
    time_limit_s: float | None = 600.0,
    require_full_recovery: bool = True,
    enforce_delay: bool = True,
) -> RecoverySolution:
    """Solve FMSSM lexicographically: max ``r`` first, then max total.

    Both stages solve P′ as :func:`~repro.perf.compile.compile_fmssm`
    writes it, with only the objective and ``r``'s lower bound changed:
    stage 1 maximizes ``r`` alone; stage 2 raises ``r``'s lower bound to
    the stage-1 optimum and maximizes ``Σ p̄`` over the ``w`` columns.
    Returns an infeasible :class:`RecoverySolution` when stage 1 already
    has no solution (same condition as the weighted Optimal).  Both
    stages' objectives are integers (``r`` and ``Σ p̄``), so HiGHS may
    stop once its gap is under half a unit (:func:`grid_rel_gap`).
    """
    # Imported lazily: keeps the compiler off the request path of PM
    # and of every solve that certifies from its seed, which
    # tests/test_import_guard.py guards.
    from repro.perf.compile import compile_fmssm

    start = time.perf_counter()
    compiled = compile_fmssm(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    )
    form, r_col = compiled.form, compiled.r_col

    def infeasible(stage: int, status: str) -> RecoverySolution:
        return RecoverySolution(
            algorithm="two-stage",
            feasible=False,
            solve_time_s=time.perf_counter() - start,
            meta={"stage": stage, "status": status},
        )

    # ----- stage 1: maximize the least programmability ----------------
    c1 = np.zeros(form.n_vars)
    c1[r_col] = -1.0
    stage1 = solve_form_with_highs(
        dataclasses.replace(form, c=c1),
        time_limit_s=time_limit_s,
        mip_rel_gap=grid_rel_gap(0.5, _r_upper_bound(instance)),
    )
    if not stage1.is_feasible:
        return infeasible(1, stage1.status.value)
    # Integer programmabilities make r* integral up to solver tolerance;
    # round to avoid excluding the optimum by an epsilon.
    best_r = round(float(stage1.x[r_col]))

    # ----- stage 2: maximize total programmability at r >= r* ----------
    m = len(compiled.controllers)
    pbar = instance.arrays().pair_pbar
    w_cols = compiled.n_x + np.arange(len(pbar))[:, None] * (m + 1) + 1 + np.arange(m)
    c2 = np.zeros(form.n_vars)
    c2[w_cols] = -pbar[:, None].astype(np.float64)
    lb2 = form.lb.copy()
    lb2[r_col] = best_r
    stage2 = solve_form_with_highs(
        dataclasses.replace(form, c=c2, lb=lb2),
        time_limit_s=time_limit_s,
        mip_rel_gap=grid_rel_gap(0.5, instance.total_max_programmability()),
    )
    if not stage2.is_feasible:  # pragma: no cover - stage 1 point remains feasible
        return infeasible(2, stage2.status.value)
    placement = compiled.extract(stage2.x)
    # The stage-2 objective is Σ p̄ alone; report the canonical r + λ·obj2
    # (as the weighted route does) and keep the solver's value beside it.
    return RecoverySolution.positional(
        placement,
        algorithm="two-stage",
        solve_time_s=time.perf_counter() - start,
        meta={
            "status": stage2.status.value,
            "solver": stage2.solver,
            "gap": stage2.gap,
            "stage1_r": best_r,
            "solver_objective": stage2.objective,
            "objective": _canonical_objective(instance, placement),
        },
    )
