"""The Optimal baseline: solve problem P′ exactly.

The paper solves P′ with Gurobi; we use HiGHS through
:func:`scipy.optimize.milp`, on the one formulation of P′ that
:mod:`repro.perf.compile` writes.  With ``require_full_recovery=True`` —
our reading of the paper's "constraint of not interrupting active
controllers' normal operations" under which "optimization solver may not
always generate a feasible solution" — tight three-failure instances
become genuinely infeasible and Optimal reports no result, matching
Fig. 6.

With ``warm_start="pm"`` (the default) the solve is seeded with the PM
heuristic's solution — or, when PM misses the combinatorial bound, with
a capacity-feasible "full fill" (every programmable pair in SDN mode at
locally minimal delay) if that scores higher.  The seed doubles as an
*optimality certificate*: if its objective reaches the combinatorial
dual bound (a knapsack over the total spare, never below the LP
relaxation) to within less than the objective's granularity (objectives
live on the grid ``integer + λ · integer``), the seed is provably
optimal and no solver runs.  The seed is checked by position
(:mod:`repro.fmssm.point`) before anything is compiled, so a certified
seed is the answer and the form is never built.  A seed that misses goes
straight to the HiGHS MILP, which keeps the seed as its timeout
fallback; no LP relaxation is ever solved.  ``warm_start=None`` solves
cold: always the MILP.

Degradation is decided here and only here.  A MILP that times out
with no incumbent answers with the seed (``meta["fallback"] ==
"timeout"``).  A solve that raises a
:class:`~repro.exceptions.SolverError`, or whose answer the independent
validator rejects, answers with PM (``"solver-error"`` or
``"validation"``).  Both answers carry ``meta["degraded"] = True`` and
``meta["solver"] == "pm-fallback"``, and raise a
:class:`~repro.exceptions.DegradedResultWarning`.

Every route reports the *canonical* objective ``r + λ · obj2``
recomputed from the answer's positions (the same expression
:func:`repro.fmssm.evaluation.evaluate_solution` uses), so equal optima
compare bit-identical across routes; the solver's own value is kept in
``meta["solver_objective"]``.
"""

from __future__ import annotations

import time
import warnings
from typing import NamedTuple

import numpy as np

from repro.exceptions import DegradedResultWarning, SolverError, ValidationError
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.point import Point, feasible_point, tally
from repro.fmssm.solution import Placement, RecoverySolution
from repro.lp.highs import grid_rel_gap, solve_form_with_highs
from repro.lp.solution import SolveResult, SolveStatus
from repro.pm.algorithm import solve_pm
from repro.resilience import chaos

__all__ = ["solve_optimal"]

#: Objective gaps below this are indistinguishable from float noise, so
#: certificates tighter than it are not trusted.
_LP_NOISE_FLOOR = 1e-7
#: A swap in the fill seed's local search must save more delay × pairs
#: than this, so float rounding cannot make two swaps undo each other.
_SWAP_GAIN_FLOOR = 1e-9

#: Accepted values of :func:`solve_optimal`'s ``warm_start`` parameter.
_WARM_STARTS = ("pm", None)


def _canonical_objective(instance: FMSSMInstance, placement: Placement) -> float:
    """``r + λ · obj2`` of ``placement``, exactly as the evaluator computes it.

    Both integer terms are recomputed from the positions, so two answers
    with the same (least, total) programmability produce the *same
    float* whichever route found them.
    """
    counts = tally(instance.arrays(), placement)
    return counts.least + instance.lam * counts.total


def _certificate_tolerance(instance: FMSSMInstance) -> float | None:
    """Half the objective grid spacing, or ``None`` when no safe gap exists.

    Feasible objectives are ``a + λ·b`` with integers ``a ∈ [0, r_ub]``
    and ``b ∈ [0, B]`` (``B`` = total max programmability).  When
    ``λ·B < 1`` two distinct values differ by at least
    ``min(λ, 1 − λ·B)`` (either ``a`` agrees and ``λ|Δb| ≥ λ``, or
    ``|Δa| ≥ 1`` dominates ``λ|Δb| ≤ λ·B``).  A seed within half that
    spacing of any dual bound — here :func:`_combinatorial_bound` — is
    therefore *exactly* optimal.  Returns ``None`` when the spacing is
    not positive or sits below the noise floor — the certificate is
    skipped then and every solve runs the MILP.
    """
    lam = float(instance.lam)
    if lam == 0.0:
        return 0.5  # objective is the integer r alone
    spacing = min(lam, 1.0 - lam * instance.total_max_programmability())
    if spacing <= 2.0 * _LP_NOISE_FLOOR:
        return None
    return 0.5 * spacing


def _r_upper_bound(instance: FMSSMInstance) -> int:
    """``r``'s upper bound: the least max programmability of a
    recoverable flow (0 when no flow is recoverable)."""
    arrays = instance.arrays()
    recoverable = arrays.flow_max_pro[arrays.recoverable_pos]
    return int(recoverable.min()) if recoverable.size else 0


def _mip_rel_gap(instance: FMSSMInstance) -> float:
    """HiGHS's stopping gap on P′, exact on its objective grid: within
    :func:`_certificate_tolerance` of :func:`_combinatorial_bound`."""
    tol = _certificate_tolerance(instance)
    return grid_rel_gap(tol, 0.0 if tol is None else _combinatorial_bound(instance))


def _combinatorial_bound(instance: FMSSMInstance) -> float:
    """A dual bound on P′ from pure combinatorics — no LP solve.

    Relax the LP relaxation further: keep only ``r ≤ r_ub`` and, with
    ``z_k := Σ_c w_kc``, the implications ``z_k ≤ 1`` (Eq. 2 mapping
    rows through the Eq. 9 McCormick ``w ≤ x``) and ``Σ_k z_k ≤ total
    spare`` (Eq. 12 capacity rows summed over controllers).  Maximizing
    ``r + λ Σ p̄_k z_k`` under those alone is a fractional knapsack with
    unit weights: fill the total spare capacity with the largest ``p̄``
    values.  Every LP-feasible point satisfies the relaxed system, so
    this bound is never below the LP-relaxation objective, and hence
    never below the MILP optimum.
    """
    arrays = instance.arrays()
    r_ub = float(_r_upper_bound(instance))
    capacity = instance.total_spare
    if capacity <= 0 or not arrays.n_pairs:
        return r_ub
    values = np.sort(arrays.pair_pbar)[::-1]
    bonus = float(values[: min(len(values), capacity)].sum())
    return r_ub + instance.lam * bonus


def _full_fill_seed(instance: FMSSMInstance) -> RecoverySolution | None:
    """Every programmable pair in SDN mode, placed at low total delay.

    The certificate's second candidate point: all pairs active give
    ``r = r_ub`` and the whole ``λ Σ p̄`` bonus, which is exactly
    :func:`_combinatorial_bound` whenever the spare can hold every pair.
    Switches are placed in decreasing regret order — (second-nearest
    minus nearest delay) × pair count — each on the nearest controller
    whose remaining spare holds its pairs.  Single-switch moves and
    pairwise swaps that lower Σ delay × pairs then run until none helps.
    Returns ``None`` when capacity cannot hold every pair (in total, or
    in the greedy placement); delay ≤ G is left to the caller's
    feasibility check.
    """
    # Switches and controllers by position; ``delay_order`` lists each
    # switch's controllers by (delay, id), as a stable sort would.
    arrays = instance.arrays()
    load = {s: n for s, n in enumerate(np.diff(arrays.switch_indptr).tolist()) if n}
    if not load or sum(load.values()) > instance.total_spare:
        return None
    delay = arrays.delay.tolist()
    delay_order = arrays.delay_order.tolist()
    by_delay = {s: delay_order[s] for s in load}

    def regret(s) -> float:
        order = by_delay[s]
        if len(order) < 2:
            return 0.0
        return (delay[s][order[1]] - delay[s][order[0]]) * load[s]

    spare = arrays.spare.tolist()
    mapping = {}
    for s in sorted(load, key=regret, reverse=True):
        home = next((c for c in by_delay[s] if spare[c] >= load[s]), None)
        if home is None:
            return None
        mapping[s] = home
        spare[home] -= load[s]

    def cost(s, c) -> float:
        return delay[s][c] * load[s]

    switches = list(load)
    improved = True
    while improved:
        improved = False
        for s in switches:
            a = mapping[s]
            for c in by_delay[s]:
                if cost(s, c) >= cost(s, a):
                    break
                if spare[c] >= load[s]:
                    spare[a] += load[s]
                    spare[c] -= load[s]
                    mapping[s] = a = c
                    improved = True
                    break
        for i, s in enumerate(switches):
            for t in switches[i + 1:]:
                a, b = mapping[s], mapping[t]
                gain = cost(s, a) + cost(t, b) - cost(s, b) - cost(t, a)
                if (
                    a != b
                    and gain > _SWAP_GAIN_FLOOR
                    and spare[a] + load[s] >= load[t]
                    and spare[b] + load[t] >= load[s]
                ):
                    spare[a] += load[s] - load[t]
                    spare[b] += load[t] - load[s]
                    mapping[s], mapping[t] = b, a
                    improved = True
    switch_ctrl = np.full(len(arrays.switches), -1, dtype=np.int64)
    switch_ctrl[list(mapping)] = list(mapping.values())
    placement = Placement.switch_level(arrays.frame, switch_ctrl, np.arange(arrays.n_pairs))
    return RecoverySolution.positional(placement, algorithm="optimal")


class _Seed(NamedTuple):
    """The point the optimality certificate tests, and where it came from."""

    #: The seed's feasible point, or ``None`` when no seed is feasible.
    point: Point | None
    #: ``"pm"`` or ``"fill"``; ``None`` when ``point`` is.
    origin: str | None
    #: :func:`_certificate_tolerance` of the instance.
    tol: float | None
    #: Whether the point reaches :func:`_combinatorial_bound` within ``tol``.
    precert: bool


def _seed(
    instance: FMSSMInstance, require_full_recovery: bool, enforce_delay: bool
) -> _Seed:
    """PM-strict's point, or the full fill's when that is better.

    The fill runs only when PM misses the combinatorial bound, and
    replaces PM only when it is feasible (capacity, delay ≤ G, ``r ≥ 1``
    under full recovery — :func:`~repro.fmssm.point.feasible_point`'s
    check) with a strictly higher objective.  ``precert`` is the whole
    certificate: a seed that misses the bound is HiGHS's timeout
    fallback, never tested against an LP bound.
    """
    pm = solve_pm(instance, enforce_delay=enforce_delay)
    point = feasible_point(instance, pm, require_full_recovery, enforce_delay)
    origin = None if point is None else "pm"
    tol = _certificate_tolerance(instance)
    if tol is None:
        return _Seed(point, origin, None, False)
    bound = _combinatorial_bound(instance) - tol
    objective = -np.inf if point is None else point.objective
    if objective < bound:
        fill = _full_fill_seed(instance)
        fill_point = (
            None
            if fill is None
            else feasible_point(instance, fill, require_full_recovery, enforce_delay)
        )
        if fill_point is not None and fill_point.objective > objective:
            point, origin = fill_point, "fill"
    return _Seed(point, origin, tol, point is not None and point.objective >= bound)


def _infeasible(meta: dict[str, object], elapsed: float) -> RecoverySolution:
    return RecoverySolution(
        algorithm="optimal", feasible=False, solve_time_s=elapsed, meta=meta
    )


def _solve_compiled(
    instance: FMSSMInstance,
    compiled,
    time_limit_s: float | None,
    seed_x: np.ndarray | None,
) -> SolveResult:
    """The HiGHS MILP on the compiled form, with the seed as its timeout
    fallback."""
    result = solve_form_with_highs(
        compiled.form, time_limit_s=time_limit_s,
        mip_rel_gap=_mip_rel_gap(instance),
    )
    if not result.is_feasible and seed_x is not None and (
        result.status is SolveStatus.TIMEOUT
    ):
        # Feasibility fallback: HiGHS ran out of time with no
        # incumbent, but the PM seed is a proven feasible point.
        warnings.warn(
            DegradedResultWarning(
                f"optimal timed out after {result.wall_time_s:.1f}s with "
                f"no incumbent; falling back to the PM point"
            ),
            stacklevel=4,
        )
        result = SolveResult(
            status=SolveStatus.FEASIBLE,
            objective=compiled.objective_value(seed_x),
            x=seed_x,
            solver="pm-fallback",
            wall_time_s=result.wall_time_s,
        )
    return result


def _solve(
    instance: FMSSMInstance,
    time_limit_s: float | None,
    require_full_recovery: bool,
    enforce_delay: bool,
    warm_start: str | None,
) -> RecoverySolution:
    start = time.perf_counter()
    seed = (
        _seed(instance, require_full_recovery, enforce_delay)
        if warm_start == "pm"
        else None
    )
    certificate = seed is not None and seed.precert
    if certificate:
        # The seed reaches the combinatorial bound, which dominates the
        # LP bound and hence the MILP optimum: provably optimal.  The
        # answer is read off the seed's positions; no form is compiled.
        placement = seed.point
        objective = placement.objective
        result = SolveResult(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            solver="precert",
            wall_time_s=0.0,
            gap=0.0,
        )
        elapsed = time.perf_counter() - start
    else:
        # Imported lazily: keeps the compiler off the request path of
        # PM and of every solve that certifies from its seed, which
        # tests/test_import_guard.py guards.
        from repro.perf.compile import compile_fmssm

        compiled = compile_fmssm(
            instance,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
        )
        seed_x = (
            None
            if seed is None or seed.point is None
            else compiled.scatter(seed.point)
        )
        result = _solve_compiled(instance, compiled, time_limit_s, seed_x)
        elapsed = time.perf_counter() - start
        if not result.is_feasible or result.x is None:
            meta = {"status": result.status.value, "solver": result.solver}
            if result.status is SolveStatus.TIMEOUT:
                # No incumbent and no seed to fall back on: no result.
                warnings.warn(
                    DegradedResultWarning(
                        f"optimal timed out after {elapsed:.1f}s with no "
                        f"incumbent; reporting an infeasible result"
                    ),
                    stacklevel=2,
                )
            return _infeasible(meta, elapsed)
        placement = compiled.extract(result.x)
        objective = _canonical_objective(instance, placement)

    solution = RecoverySolution.positional(
        placement, algorithm="optimal", solve_time_s=elapsed
    )
    solution.meta = {
        "status": result.status.value,
        "solver": result.solver,
        "gap": result.gap,
        "certificate": certificate,
        "solver_objective": result.objective,
        "seed": None if seed is None else seed.origin,
        "objective": objective,
    }
    if result.solver == "pm-fallback":
        solution.meta["degraded"] = True
        solution.meta["fallback"] = "timeout"
        solution.meta["fallback_reason"] = (
            f"timed out after {elapsed:.1f}s with no incumbent; "
            f"answered with the {seed.origin} seed"
        )
    return solution


def _validated(
    instance: FMSSMInstance,
    solution: RecoverySolution,
    enforce_delay: bool,
    require_full_recovery: bool,
) -> RecoverySolution:
    """Run the independent validator on a solver route's output.

    Every feasible answer any route returns is checked against the
    instance's constraints (Eqs. 2-6 / 12-14); a violation raises
    :class:`~repro.exceptions.ValidationError` — "the solver said so" is
    not enough.  The check is O(pairs), noise next to the MILP solve.
    """
    if solution.feasible:
        from repro.resilience.validate import check_solution

        # The PM fallback point is feasible but need not certify r >= 1.
        full = require_full_recovery and solution.meta.get("solver") != "pm-fallback"
        check_solution(
            instance,
            solution,
            enforce_delay=enforce_delay,
            require_full_recovery=full,
        )
    return solution


def _pm_fallback(
    instance: FMSSMInstance,
    exc: Exception,
    enforce_delay: bool,
    validate: bool,
) -> RecoverySolution:
    """PM's answer in place of an exact solve that raised ``exc``.

    PM cannot fail the way a solver does, and its answer is validated
    like any other (but not held to ``r >= 1``, which PM cannot
    certify).  A fault in PM itself propagates.
    """
    cause = "validation" if isinstance(exc, ValidationError) else "solver-error"
    solution = solve_pm(instance, enforce_delay=enforce_delay)
    if validate and solution.feasible:
        from repro.resilience.validate import check_solution

        check_solution(instance, solution, enforce_delay=enforce_delay)
    solution.meta.update(
        degraded=True,
        solver="pm-fallback",
        fallback=cause,
        fallback_reason=f"{type(exc).__name__}: {exc}; answered with PM",
    )
    warnings.warn(
        DegradedResultWarning(f"optimal solve failed ({cause}: {exc}); answering with PM"),
        stacklevel=3,
    )
    return solution


def solve_optimal(
    instance: FMSSMInstance,
    time_limit_s: float | None = 600.0,
    require_full_recovery: bool = True,
    enforce_delay: bool = True,
    warm_start: str | None = "pm",
    validate: bool = True,
) -> RecoverySolution:
    """Solve P′ to optimality and return the recovery solution.

    Returns an *infeasible* :class:`RecoverySolution` (empty, with
    ``feasible=False``) when the problem admits no solution under the
    full-recovery requirement or the solver times out without an
    incumbent or a seed — the cases the paper reports as "Optimal has
    no result".  A solver fault answers with PM instead (see the module
    docstring).

    Parameters
    ----------
    warm_start:
        ``"pm"`` seeds the solve with the PM heuristic, or the full
        fill when that certifies (certificate, and HiGHS's timeout
        fallback; ``meta["seed"]`` names the point used); ``None``
        solves cold.
    validate:
        Run the independent validator
        (:mod:`repro.resilience.validate`) on every feasible answer; an
        exact answer it rejects is replaced by PM's.

    Raises
    ------
    ValueError
        ``warm_start`` is not one of the values above — checked before
        anything runs.
    """
    if warm_start not in _WARM_STARTS:
        raise ValueError(
            f"unknown warm_start {warm_start!r}; expected one of {_WARM_STARTS}"
        )
    try:
        chaos.check("optimal.solve")
        solution = _solve(
            instance,
            time_limit_s=time_limit_s,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
            warm_start=warm_start,
        )
        if validate:
            _validated(instance, solution, enforce_delay, require_full_recovery)
    except (SolverError, ValidationError) as exc:
        return _pm_fallback(instance, exc, enforce_delay, validate)
    return solution
