"""Block-diagonal batched LP solving: one HiGHS call per scenario batch.

After PR 9 the dominant per-scenario cost of an exact sweep is no longer
pivoting but fixed ``linprog`` call overhead (~1.7 ms per invocation on
this machine, against ~0.3 ms of actual simplex work for a reduced
40-node block).  This module amortizes that overhead by stacking the LP
relaxations of K compiled scenarios into one sparse block-diagonal form
and solving them with a *single* :func:`~repro.lp.highs.solve_form_relaxation`
call.

The batched route must stay **bit-identical** to the scenario-at-a-time
route, so only the part of the pipeline that cannot change the answer is
batched: the seeded LP-bound *certificate* (see
:func:`repro.fmssm.optimal._solve_optimal_sparse`).  Per member:

1. compile the scenario — dropping spare-zero controllers, whose
   ``x``/``w`` columns provably cannot change the LP optimum (DESIGN
   §14) — and take the seed from :func:`repro.fmssm.optimal._seed`,
   the same helper the individual route uses (PM, or the full fill
   when PM misses the bound);
2. try the closed-form combinatorial pre-certificate (identical to the
   individual route, no LP needed);
3. otherwise stack the member's reduced block into the batch.

The stacked form is ``scipy.sparse.block_diag`` of the member CSR
blocks with concatenated bounds and a per-block *scaled* objective
(``c_k / max|c_k|``): scaling keeps the blocks on comparable magnitudes
for the simplex pricing, and because the objective is separable and the
constraints are block-diagonal, any optimal point of the stack restricts
to an optimal point of every block — scaling by a positive constant per
block cannot create cross-talk.  Each member's slice is then checked
with its **own unscaled** objective against the member's certificate
tolerance.

A member whose certificate fires returns its seed — the *same* point
the individual route returns, with the same ``meta`` — so accepted
members are bit-identical by construction.  Every other member (no
feasible seed, no safe tolerance, slice fails the feasibility guard,
certificate miss, batch-level solver error or injected fault) **falls
back to** :func:`repro.fmssm.optimal.solve_optimal` individually, which
*is* the scenario-at-a-time route.  Batched results therefore cannot diverge
from unbatched ones; the only thing batching changes is how many
``linprog`` calls a sweep pays for.

Fault injection: the stacked solve is guarded by the ``batch.solve``
chaos site — a ``raise-*`` fault degrades **only the batch's member
scenarios** (each falls back individually, with the fault recorded in
``meta["batch"]``), and a ``corrupt-solution`` fault on the stacked
vector is caught per slice by the feasibility guard, again degrading
only the corrupted members.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import (
    _canonical_objective,
    _Seed,
    _seed,
    _validated,
    solve_optimal,
)
from repro.fmssm.solution import RecoverySolution
from repro.lp.highs import solve_form_relaxation
from repro.lp.solution import SolveStatus
from repro.lp.standard_form import StandardForm
from repro.resilience import chaos

__all__ = ["solve_optimal_batch", "BATCH_LP_OPTIONS"]

#: ``linprog`` settings for the stacked solve.  Presolve off + dual
#: simplex with Dantzig pricing wins on the small spare-zero-reduced
#: blocks the batch route stacks (measured ~2.5x vs the default on a
#: 70-block batch); the default method stays in place for full-size
#: single-scenario relaxations, where presolve pays for itself.
BATCH_LP_OPTIONS = {
    "presolve": False,
    "simplex_dual_edge_weight_strategy": "dantzig",
}
_BATCH_LP_METHOD = "highs-ds"

#: Mean per-block nonzeros above which the tuned settings stop winning
#: (measured: ~2x faster below on spare-zero-reduced blocks, ~2x slower
#: on full 17k-nnz ATT blocks) and the stacked solve uses the default
#: ``linprog`` configuration instead.
_TUNED_BLOCK_NNZ = 1500


def _stack_lp_settings(form: StandardForm, blocks: int) -> tuple[str, dict | None]:
    """``(method, options)`` for the stacked solve, sized to the blocks."""
    if form.a_ub.nnz <= _TUNED_BLOCK_NNZ * blocks:
        return _BATCH_LP_METHOD, BATCH_LP_OPTIONS
    return "highs", None


@dataclass
class _Member:
    """Per-scenario state while a batch is in flight."""

    index: int
    instance: FMSSMInstance
    compiled: object = None
    seed: _Seed | None = None
    reduced: bool = False
    prep_s: float = 0.0
    #: "precert" | "stack" | "fallback" once decided.
    route: str = ""
    fallback_reason: str | None = None
    scale: float = 1.0
    offset: int = 0
    solution: RecoverySolution | None = None
    batch_meta: dict = field(default_factory=dict)


def _spare_positive_subset(instance: FMSSMInstance):
    """Controllers worth keeping in the reduced block, or ``None``.

    Dropping spare-zero controllers preserves the LP optimum exactly
    (their capacity rows force the dropped ``w`` to zero and unmapping
    the dropped ``x`` only loosens Eq. 2 — DESIGN §14 gives both
    directions).  Returns ``None`` when the reduction is vacuous (no
    controller or every controller has spare), so the full form is
    compiled and the template cache is not fragmented for nothing.
    """
    kept = tuple(c for c in instance.controllers if instance.spare[c] > 0)
    if not kept or len(kept) == len(instance.controllers):
        return None
    return kept


def _stack_forms(members: Sequence[_Member]) -> StandardForm:
    """One block-diagonal form from the members' compiled blocks.

    The objective concatenates each block's ``c_k`` scaled by
    ``1 / max|c_k|`` (``c[r] = -1`` always, so the scale is well
    defined).  Blocks share no variables and no rows, so the stacked
    optimum restricts to a per-block optimum regardless of the positive
    scales — each member's slice is evaluated with its own unscaled
    objective afterwards.
    """
    c_parts, lb_parts, ub_parts, b_parts, blocks = [], [], [], [], []
    offset = 0
    for member in members:
        form = member.compiled.form
        member.offset = offset
        offset += form.n_vars
        member.scale = 1.0 / float(np.max(np.abs(form.c)))
        c_parts.append(form.c * member.scale)
        lb_parts.append(form.lb)
        ub_parts.append(form.ub)
        b_parts.append(form.b_ub)
        blocks.append(form.a_ub)
    n_vars = offset
    return StandardForm(
        c=np.concatenate(c_parts),
        a_ub=sparse.block_diag(blocks, format="csr"),
        b_ub=np.concatenate(b_parts),
        a_eq=sparse.csr_matrix((0, n_vars)),
        b_eq=np.zeros(0),
        lb=np.concatenate(lb_parts),
        ub=np.concatenate(ub_parts),
        integrality=np.ones(n_vars),
        maximize=True,
        objective_constant=-0.0,
        var_names=(),
    )


def _accept(
    member: _Member,
    solver: str,
    elapsed: float,
) -> RecoverySolution:
    """Finalize a certificate-accepted member with its seed point.

    Mirrors the accept path of ``_solve_optimal_sparse`` field for
    field: same mapping/pairs (extracted from the seed), same ``meta``
    keys and values — plus the batch provenance under ``meta["batch"]``.
    """
    mapping, sdn_pairs = member.compiled.extract(member.seed.x)
    solution = RecoverySolution(
        algorithm="optimal",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        solve_time_s=elapsed,
        feasible=True,
        meta={
            "status": "optimal",
            "solver": solver,
            "gap": 0.0,
            "compile": "sparse",
            "certificate": True,
            "solver_objective": member.seed.objective,
            "seed": member.seed.origin,
        },
    )
    solution.meta["objective"] = _canonical_objective(member.instance, solution)
    solution.meta["batch"] = dict(member.batch_meta)
    return solution


def solve_optimal_batch(
    instances: Sequence[FMSSMInstance],
    solver: str = "highs",
    time_limit_s: float | None = 600.0,
    require_full_recovery: bool = True,
    enforce_delay: bool = True,
    compiler: object = None,
    raise_on_timeout: bool = False,
    validate: bool = True,
) -> list[RecoverySolution]:
    """Solve the ``optimal`` route for every instance, batching the LPs.

    Returns one :class:`RecoverySolution` per instance, in order, each
    bit-identical to what :func:`repro.fmssm.optimal.solve_optimal`
    (sparse route, PM warm start) returns for that instance — see the
    module docstring for why the equivalence is by construction.  Every
    solution carries ``meta["batch"]`` provenance::

        {"size": <stacked members>, "index": <slice position>,
         "route": "stack" | "precert" | "fallback",
         "certificate": bool, ...}

    Parameters mirror :func:`solve_optimal`.
    """
    members = [_Member(index=i, instance=inst) for i, inst in enumerate(instances)]
    stacked: list[_Member] = []

    for member in members:
        start = time.perf_counter()
        instance = member.instance
        subset = _spare_positive_subset(instance)
        member.reduced = subset is not None
        # Imported lazily to match optimal.py's cycle-avoidance pattern.
        from repro.perf.compile import compile_fmssm

        member.compiled = compile_fmssm(
            instance,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
            compiler=compiler,
            controller_subset=subset,
        )
        seed = member.seed = _seed(instance, member.compiled, enforce_delay)
        if seed.x is None:
            member.route = "fallback"
            member.fallback_reason = "no-seed"
        elif seed.tol is None:
            member.route = "fallback"
            member.fallback_reason = "no-certificate-tolerance"
        elif seed.precert:
            member.route = "precert"
        else:
            member.route = "stack"
            stacked.append(member)
        member.prep_s = time.perf_counter() - start

    # ------------------------------------------------------------------
    # One LP call for every stacked member.
    # ------------------------------------------------------------------
    solve_share = 0.0
    batch_solver = "highs-lp"
    if stacked:
        stack_start = time.perf_counter()
        fault: str | None = None
        x = None
        try:
            chaos.check("batch.solve")
            stacked_form = _stack_forms(stacked)
            method, options = _stack_lp_settings(stacked_form, len(stacked))
            relaxation = solve_form_relaxation(
                stacked_form, method=method, options=options
            )
            batch_solver = relaxation.solver
            if relaxation.status is SolveStatus.OPTIMAL and relaxation.x is not None:
                x = chaos.transform("batch.solve", np.asarray(relaxation.x))
            else:
                fault = f"batch-status:{relaxation.status.value}"
        except Exception as exc:  # noqa: BLE001 — a batch failure must
            # degrade only its members, never the whole sweep.
            fault = f"batch-error:{type(exc).__name__}"
        solve_share = (time.perf_counter() - stack_start) / len(stacked)

        for position, member in enumerate(stacked):
            member.batch_meta = {
                "size": len(stacked),
                "index": position,
            }
            if member.reduced:
                member.batch_meta["reduced"] = [
                    int(member.compiled.form.a_ub.shape[0]),
                    int(member.compiled.form.n_vars),
                ]
            if fault is not None:
                member.route = "fallback"
                member.fallback_reason = fault
                continue
            sl = x[member.offset : member.offset + member.compiled.form.n_vars]
            if not member.compiled.is_feasible_point(sl):
                member.route = "fallback"
                member.fallback_reason = "slice-infeasible"
                continue
            # The member's own unscaled objective of its slice: with a
            # block-diagonal form and a separable objective, this *is*
            # the member's LP-relaxation bound (DESIGN §14).
            block_obj = member.compiled.form.objective_value(
                float(member.compiled.form.c @ sl)
            )
            member.batch_meta["block_objective"] = block_obj
            member.batch_meta["scale"] = member.scale
            if member.seed.objective >= block_obj - member.seed.tol:
                member.batch_meta["certificate"] = True
                member.batch_meta["route"] = "stack"
            else:
                member.route = "fallback"
                member.fallback_reason = "certificate-miss"

    # ------------------------------------------------------------------
    # Finalize in member order.
    # ------------------------------------------------------------------
    for member in members:
        if member.route == "precert":
            member.batch_meta = {
                "size": len(stacked),
                "route": "precert",
                "certificate": True,
            }
            solution = _accept(member, "precert", member.prep_s)
        elif member.route == "stack":
            solution = _accept(member, batch_solver, member.prep_s + solve_share)
        else:
            solution = solve_optimal(
                member.instance,
                solver=solver,
                time_limit_s=time_limit_s,
                require_full_recovery=require_full_recovery,
                enforce_delay=enforce_delay,
                compile="sparse",
                warm_start="pm",
                compiler=compiler,
                raise_on_timeout=raise_on_timeout,
                validate=validate,
            )
            solution.meta["batch"] = {
                **member.batch_meta,
                "route": "fallback",
                "certificate": bool(solution.meta.get("certificate")),
                "reason": member.fallback_reason,
            }
            member.solution = solution
            continue
        if validate:
            _validated(member.instance, solution, enforce_delay, require_full_recovery)
        member.solution = solution

    return [member.solution for member in members]
