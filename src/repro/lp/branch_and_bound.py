"""A pure-Python branch-and-bound MILP solver.

This is the library-owned fallback to HiGHS: LP relaxations are solved
with :func:`scipy.optimize.linprog` and integrality is enforced by
branching.  Best-bound node selection keeps the tree small; a time limit
turns the best incumbent into a ``FEASIBLE`` result.

Branching uses pseudo-cost scoring: per-variable estimates of how much
the LP bound degrades when branching up or down, initialised from the
objective coefficients and refined from observed child-node bounds (the
classic product rule).  At the root, reduced costs from the LP dual are
used to fix integer variables whose reduced cost alone exceeds the
primal/dual gap — with a warm-start incumbent (e.g. the PM heuristic
solution) this can fix most of the binaries before any branching.

It remains correct and tested rather than fast, and is used in the test
suite to cross-validate the HiGHS results on small FMSSM instances.

Two entry points mirror :mod:`repro.lp.highs`: :func:`solve_with_bnb`
takes a DSL model, :func:`solve_form_with_bnb` an already-compiled
:class:`StandardForm` plus an optional warm-start vector.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.lp.model import Model
from repro.lp.solution import SolveResult, SolveStatus
from repro.lp.standard_form import StandardForm, to_standard_form
from repro.resilience import chaos

__all__ = ["solve_with_bnb", "solve_form_with_bnb"]

_INT_TOL = 1e-6
_BOUND_TOL = 1e-9
_FEAS_TOL = 1e-6
_PSEUDO_EPS = 1e-4


@dataclass(order=True)
class _Node:
    bound: float  # parent LP relaxation value (minimization) — priority key
    order: int
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)
    branch_var: int = field(default=-1, compare=False)
    branch_up: bool = field(default=False, compare=False)
    frac: float = field(default=0.0, compare=False)


def _solve_relaxation(
    form: StandardForm, lb: np.ndarray, ub: np.ndarray
) -> tuple[float, np.ndarray, object] | None:
    """LP relaxation under the node bounds; ``None`` when infeasible."""
    from scipy import optimize

    result = optimize.linprog(
        c=form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.a_ub.shape[0] else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.a_eq.shape[0] else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if result.status == 2:  # infeasible
        return None
    if result.status == 3:  # unbounded
        return (-math.inf, np.full(form.n_vars, math.nan), result)
    if not result.success:  # pragma: no cover - numerical trouble
        return None
    return float(result.fun), np.asarray(result.x), result


def validate_start(
    form: StandardForm, x: np.ndarray, tol: float = _FEAS_TOL
) -> np.ndarray | None:
    """Return ``x`` with integers snapped if it is feasible, else ``None``.

    Checks bounds, integrality, and both constraint blocks within ``tol``
    (absolute, plus relative in the row activities).  A vector that fails
    any check is rejected rather than repaired — a warm start must be a
    genuine feasible point to be used as an incumbent.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (form.n_vars,):
        return None
    if np.any(x < form.lb - tol) or np.any(x > form.ub + tol):
        return None
    ints = np.asarray(form.integrality, dtype=bool)
    snapped = x.copy()
    snapped[ints] = np.round(snapped[ints])
    if np.any(np.abs(x[ints] - snapped[ints]) > tol):
        return None
    np.clip(snapped, form.lb, form.ub, out=snapped)
    if form.a_ub.shape[0]:
        act = form.a_ub @ snapped
        if np.any(act > form.b_ub + tol * (1.0 + np.abs(form.b_ub))):
            return None
    if form.a_eq.shape[0]:
        act = form.a_eq @ snapped
        if np.any(np.abs(act - form.b_eq) > tol * (1.0 + np.abs(form.b_eq))):
            return None
    return snapped


def _reduced_cost_fixing(
    form: StandardForm,
    root_result: object,
    root_bound: float,
    incumbent_value: float,
    lb: np.ndarray,
    ub: np.ndarray,
) -> int:
    """Fix integer variables at the root via reduced costs.

    For a variable nonbasic at its lower bound with reduced cost
    ``d > 0``, every solution with the variable raised by ≥ 1 costs at
    least ``root_bound + d``; if that exceeds the incumbent the variable
    can be fixed at its bound (symmetrically at the upper bound).  Valid
    for the whole tree because every node tightens the root bounds.
    Returns the number of variables fixed.
    """
    gap = incumbent_value - root_bound
    if not math.isfinite(gap) or gap < 0:
        return 0
    lower = getattr(root_result, "lower", None)
    upper = getattr(root_result, "upper", None)
    if lower is None or upper is None:  # pragma: no cover - old scipy
        return 0
    ints = np.asarray(form.integrality, dtype=bool)
    free = ub - lb > 0.5  # only unfixed integer vars are candidates
    threshold = gap + _FEAS_TOL
    fixed = 0
    at_lb = ints & free & (np.asarray(lower.marginals) > threshold)
    at_ub = ints & free & (-np.asarray(upper.marginals) > threshold)
    if np.any(at_lb):
        ub[at_lb] = lb[at_lb]
        fixed += int(np.count_nonzero(at_lb))
    if np.any(at_ub & ~at_lb):
        sel = at_ub & ~at_lb
        lb[sel] = ub[sel]
        fixed += int(np.count_nonzero(sel))
    return fixed


class _PseudoCosts:
    """Per-variable up/down bound-degradation estimates (product rule)."""

    def __init__(self, form: StandardForm) -> None:
        # Seed from |c_j|: absent history, a variable's objective weight
        # is the best available proxy for its bound impact.
        seed = np.abs(form.c) + _PSEUDO_EPS
        self.up = seed.copy()
        self.down = seed.copy()
        self.n_up = np.zeros(form.n_vars)
        self.n_down = np.zeros(form.n_vars)

    def update(self, node: _Node, child_value: float) -> None:
        j = node.branch_var
        if j < 0 or not math.isfinite(child_value):
            return
        degradation = max(child_value - node.bound, 0.0)
        if node.branch_up:
            dist = max(1.0 - node.frac, _INT_TOL)
            n = self.n_up[j]
            self.up[j] = (self.up[j] * n + degradation / dist) / (n + 1.0)
            self.n_up[j] = n + 1.0
        else:
            dist = max(node.frac, _INT_TOL)
            n = self.n_down[j]
            self.down[j] = (self.down[j] * n + degradation / dist) / (n + 1.0)
            self.n_down[j] = n + 1.0

    def select(self, x: np.ndarray, integrality: np.ndarray) -> int | None:
        ints = np.asarray(integrality, dtype=bool)
        frac = x - np.floor(x)
        fractional = ints & (np.minimum(frac, 1.0 - frac) > _INT_TOL)
        if not np.any(fractional):
            return None
        idx = np.flatnonzero(fractional)
        f = frac[idx]
        score = np.maximum(self.down[idx] * f, _PSEUDO_EPS) * np.maximum(
            self.up[idx] * (1.0 - f), _PSEUDO_EPS
        )
        return int(idx[np.argmax(score)])


def solve_form_with_bnb(
    form: StandardForm,
    time_limit_s: float | None = None,
    max_nodes: int = 200_000,
    warm_start: np.ndarray | None = None,
) -> SolveResult:
    """Branch-and-bound over LP relaxations of a compiled form.

    Parameters
    ----------
    form:
        Standard form to solve.
    time_limit_s:
        Wall-clock budget; the best incumbent (if any) is returned as
        ``FEASIBLE`` when exceeded.
    max_nodes:
        Hard cap on explored nodes, a second safety valve.
    warm_start:
        Optional feasible point (column order of ``form``) installed as
        the initial incumbent after validation.  An infeasible vector is
        silently ignored — seeding only ever helps, never changes the
        answer.  The returned incumbent is never worse than the seed.
    """
    chaos.check("bnb.solve")
    start = time.perf_counter()

    incumbent_value = math.inf  # minimized objective
    incumbent_x: np.ndarray | None = None
    if warm_start is not None:
        seeded = validate_start(form, warm_start)
        if seeded is not None:
            incumbent_value = float(form.c @ seeded)
            incumbent_x = seeded

    root = _solve_relaxation(form, form.lb.copy(), form.ub.copy())
    if root is None:
        # The LP relaxation being infeasible proves the MILP infeasible;
        # a validated warm start and an infeasible relaxation cannot
        # coexist except through numerical tolerance — trust the LP.
        return SolveResult(
            status=SolveStatus.INFEASIBLE, solver="bnb",
            wall_time_s=time.perf_counter() - start,
        )
    root_bound, root_x, root_result = root
    if math.isinf(root_bound) and root_bound < 0:
        return SolveResult(
            status=SolveStatus.UNBOUNDED, solver="bnb",
            wall_time_s=time.perf_counter() - start,
        )

    root_lb = form.lb.copy()
    root_ub = form.ub.copy()
    if incumbent_x is not None:
        _reduced_cost_fixing(
            form, root_result, root_bound, incumbent_value, root_lb, root_ub
        )

    pseudo = _PseudoCosts(form)
    tie = count()
    heap: list[_Node] = [_Node(root_bound, next(tie), root_lb, root_ub)]
    nodes = 0
    timed_out = False

    while heap:
        if time_limit_s is not None and time.perf_counter() - start > time_limit_s:
            timed_out = True
            break
        if nodes >= max_nodes:
            timed_out = True
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_value - _BOUND_TOL:
            continue  # pruned by bound
        relaxed = _solve_relaxation(form, node.lb, node.ub)
        nodes += 1
        if relaxed is None:
            continue
        value, x, _ = relaxed
        pseudo.update(node, value)
        if value >= incumbent_value - _BOUND_TOL:
            continue
        branch_var = pseudo.select(x, form.integrality)
        if branch_var is None:
            # Integral solution — new incumbent.
            incumbent_value = value
            incumbent_x = x.copy()
            continue
        frac = x[branch_var] - math.floor(x[branch_var])
        floor_val = math.floor(x[branch_var] + _INT_TOL)
        # Down branch: ub[branch_var] = floor
        if node.lb[branch_var] <= floor_val:
            down_ub = node.ub.copy()
            down_ub[branch_var] = floor_val
            heapq.heappush(
                heap,
                _Node(value, next(tie), node.lb.copy(), down_ub,
                      branch_var, False, frac),
            )
        # Up branch: lb[branch_var] = floor + 1
        if floor_val + 1 <= node.ub[branch_var]:
            up_lb = node.lb.copy()
            up_lb[branch_var] = floor_val + 1
            heapq.heappush(
                heap,
                _Node(value, next(tie), up_lb, node.ub.copy(),
                      branch_var, True, frac),
            )

    elapsed = time.perf_counter() - start
    if incumbent_x is None:
        status = SolveStatus.TIMEOUT if timed_out else SolveStatus.INFEASIBLE
        return SolveResult(status=status, solver="bnb", wall_time_s=elapsed, nodes=nodes)

    # Snap near-integral values exactly.
    snapped = incumbent_x.copy()
    ints = np.asarray(form.integrality, dtype=bool)
    snapped[ints] = np.round(snapped[ints])
    values = (
        {name: float(v) for name, v in zip(form.var_names, snapped)}
        if form.var_names
        else {}
    )
    status = SolveStatus.FEASIBLE if timed_out and heap else SolveStatus.OPTIMAL
    return SolveResult(
        status=status,
        objective=form.objective_value(incumbent_value),
        values=values,
        x=snapped,
        solver="bnb",
        wall_time_s=elapsed,
        nodes=nodes,
    )


def solve_with_bnb(
    model: Model,
    time_limit_s: float | None = None,
    max_nodes: int = 200_000,
    warm_start: dict[str, float] | None = None,
) -> SolveResult:
    """Solve ``model`` by branch-and-bound over LP relaxations.

    Parameters
    ----------
    model:
        LP or MILP to solve.
    time_limit_s:
        Wall-clock budget; the best incumbent (if any) is returned as
        ``FEASIBLE`` when exceeded.
    max_nodes:
        Hard cap on explored nodes, a second safety valve.
    warm_start:
        Optional name → value mapping describing a feasible point;
        variables not mentioned default to their lower bound.  Passed to
        :func:`solve_form_with_bnb` after conversion to column order.
    """
    form = to_standard_form(model)
    start_vec: np.ndarray | None = None
    if warm_start is not None:
        start_vec = form.lb.copy()
        index = {name: j for j, name in enumerate(form.var_names)}
        for name, value in warm_start.items():
            j = index.get(name)
            if j is not None:
                start_vec[j] = float(value)
    return solve_form_with_bnb(
        form, time_limit_s=time_limit_s, max_nodes=max_nodes, warm_start=start_vec
    )
