"""MILP solving through SciPy's HiGHS backend.

The paper solves problem P′ with Gurobi; offline we use
:func:`scipy.optimize.milp` (the HiGHS solver), which solves the identical
integer program to proven optimality.  See DESIGN.md for the substitution
rationale.

:func:`solve_form_with_highs` solves a
:class:`~repro.lp.standard_form.StandardForm` as written — P′ from
:mod:`repro.perf.compile`, the RetroFlow assignment IP from
:mod:`repro.baselines.retroflow`.  :func:`solve_form_relaxation` solves
the LP relaxation of a form — the reference dual bound that the
combinatorial bound of :mod:`repro.fmssm.optimal` is tested to dominate.
Both import SciPy when they run, so importing this module loads neither
``scipy.optimize`` nor ``scipy.sparse``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lp.solution import SolveResult, SolveStatus
from repro.lp.standard_form import StandardForm
from repro.resilience import chaos

__all__ = [
    "grid_rel_gap",
    "solve_form_with_highs",
    "solve_form_relaxation",
]

# scipy.optimize.milp status codes (documented in scipy):
_MILP_OPTIMAL = 0
_MILP_ITER_OR_TIME = 1
_MILP_INFEASIBLE = 2
_MILP_UNBOUNDED = 3
_MILP_NUMERICAL = 4


def grid_rel_gap(tol: float | None, bound: float) -> float:
    """The ``mip_rel_gap`` at which a stopped MILP is still exact.

    When every feasible objective lies on a grid whose points are more
    than ``2·tol`` apart, an incumbent within ``tol`` of the dual bound
    is the optimum.  HiGHS measures its gap relative to the incumbent's
    magnitude, which ``|bound|`` caps, so ``tol / max(1, |bound|)``
    never admits an absolute gap above ``tol``.  ``tol=None`` (no safe
    grid) asks for a proof of optimality: gap 0.
    """
    return 0.0 if tol is None else tol / max(1.0, abs(bound))


def solve_form_with_highs(
    form: StandardForm,
    time_limit_s: float | None = None,
    mip_rel_gap: float = 0.0,
) -> SolveResult:
    """Solve a compiled :class:`StandardForm` with HiGHS.

    ``mip_rel_gap`` is always passed, 0 included: HiGHS's own default
    (1e-4) may stop a grid step short of the optimum and still report
    it optimal (see :func:`grid_rel_gap`).  The incumbent is
    ``result.x``, in the form's column order.
    """
    from scipy import optimize, sparse

    chaos.check("highs.solve")
    if form.a_ub.shape[0]:
        constraints = optimize.LinearConstraint(form.a_ub, -np.inf, form.b_ub)
    else:
        # milp requires a constraints argument shape it can handle; give a
        # vacuous one covering all variables.
        constraints = optimize.LinearConstraint(
            sparse.csr_matrix((1, form.n_vars)), -np.inf, np.inf
        )
    options = {"mip_rel_gap": float(mip_rel_gap)}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)

    start = time.perf_counter()
    raw = optimize.milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality,
        bounds=optimize.Bounds(form.lb, form.ub),
        options=options,
    )
    elapsed = time.perf_counter() - start

    if raw.status == _MILP_INFEASIBLE:
        status = SolveStatus.INFEASIBLE
    elif raw.status == _MILP_UNBOUNDED:
        status = SolveStatus.UNBOUNDED
    elif raw.status == _MILP_OPTIMAL and raw.x is not None:
        status = SolveStatus.OPTIMAL
    elif raw.x is not None:
        status = SolveStatus.FEASIBLE
    elif raw.status == _MILP_ITER_OR_TIME:
        status = SolveStatus.TIMEOUT
    else:
        status = SolveStatus.ERROR

    x: np.ndarray | None = None
    objective = None
    gap = None
    if raw.x is not None:
        x = chaos.transform("highs.solve.x", np.asarray(raw.x))
        objective = form.objective_value(float(raw.fun))
        gap = getattr(raw, "mip_gap", None)

    return SolveResult(
        status=status,
        objective=objective,
        x=x,
        solver="highs",
        wall_time_s=elapsed,
        gap=gap,
        nodes=getattr(raw, "mip_node_count", None),
        message=str(getattr(raw, "message", "")),
    )


def solve_form_relaxation(form: StandardForm) -> SolveResult:
    """Solve the LP relaxation of ``form`` (integrality dropped).

    The relaxation's objective is a *dual bound* on the MILP: no integer
    solution can beat it.  An infeasible relaxation proves the MILP
    infeasible.  No solve route calls this; tests use it as the
    reference bound.
    """
    from scipy import optimize

    chaos.check("highs.relax")
    start = time.perf_counter()
    raw = optimize.linprog(
        c=form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.a_ub.shape[0] else None,
        bounds=np.column_stack([form.lb, form.ub]),
        method="highs",
    )
    elapsed = time.perf_counter() - start
    if raw.status == 2:
        return SolveResult(
            status=SolveStatus.INFEASIBLE, solver="highs-lp", wall_time_s=elapsed
        )
    if raw.status == 3:
        return SolveResult(
            status=SolveStatus.UNBOUNDED, solver="highs-lp", wall_time_s=elapsed
        )
    if not raw.success:
        return SolveResult(
            status=SolveStatus.ERROR,
            solver="highs-lp",
            wall_time_s=elapsed,
            message=str(getattr(raw, "message", "")),
        )
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        objective=form.objective_value(float(raw.fun)),
        x=np.asarray(raw.x),
        solver="highs-lp",
        wall_time_s=elapsed,
    )
