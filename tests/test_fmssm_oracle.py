"""The exact solver, its bounds and the heuristics against the
exhaustive FMSSM oracle (:mod:`fmssm_oracle`).

On every instance small enough to enumerate — the hand-built tiny
instances and the random ones of :func:`test_property_fmssm.tiny_instances`
(≤ 3 switches, ≤ 2 controllers, ≤ 12 pairs) — and for both values of
``require_full_recovery`` and ``enforce_delay``:

* :func:`solve_optimal`, cold and seeded, reaches the enumerated
  optimum and reports infeasible exactly when the oracle finds no
  feasible point; every precertified answer equals the optimum;
* :func:`_combinatorial_bound` and the LP relaxation of the compiled
  form are never below it;
* :func:`solve_two_stage` reaches the lexicographic optimum;
* PM and PM-strict are never better than it;
* the independent validator accepts exactly the points the oracle
  finds feasible.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import make_tiny_instance
from fmssm_oracle import lexicographic_optimum, optimum, score_point
from repro.fmssm.evaluation import evaluate_solution
from repro.fmssm.optimal import _combinatorial_bound, solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.fmssm.two_stage import solve_two_stage
from repro.lp.highs import solve_form_relaxation
from repro.perf.compile import compile_fmssm
from repro.pm.algorithm import solve_pm
from repro.resilience.validate import validate_solution
from test_fmssm_optimal import INFEASIBLE_INSTANCE, fill_instance
from test_property_fmssm import tiny_instances

FLAGS = list(itertools.product((True, False), repeat=2))
#: Objectives are recomputed as ``r + λ · Σ p̄`` from integers on both
#: sides, so equal (r, Σ p̄) give equal floats; the slack only absorbs
#: ties between different (r, Σ p̄) when λ · Σ p̄ reaches 1.
TOL = 1e-9

FIXED = {
    "tiny": make_tiny_instance(),
    "infeasible": INFEASIBLE_INSTANCE,
    "one-unit": make_tiny_instance(spare={100: 1, 200: 0}),
    "scarce": make_tiny_instance(spare={100: 1, 200: 1}),
    "tight-delay": make_tiny_instance(ideal_delay_ms=3.0),
    "heavy-lambda": make_tiny_instance(lam=0.25),
    "fill": fill_instance(),
}

PROPERTY = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def check_exact(instance):
    bound = _combinatorial_bound(instance)
    for full, delay in FLAGS:
        best = optimum(instance, full, delay)
        for warm_start in ("pm", None):
            solution = solve_optimal(
                instance,
                require_full_recovery=full,
                enforce_delay=delay,
                warm_start=warm_start,
            )
            assert solution.feasible == (best is not None), (full, delay, warm_start)
            if best is None:
                continue
            assert solution.meta["objective"] == pytest.approx(best.objective, abs=TOL)
            if solution.meta["certificate"]:
                assert solution.meta["seed"] in ("pm", "fill")
                assert solution.meta["objective"] == pytest.approx(best.objective, abs=TOL)
        relaxation = solve_form_relaxation(
            compile_fmssm(instance, require_full_recovery=full, enforce_delay=delay).form
        )
        if best is not None:
            assert bound >= best.objective - TOL
            assert relaxation.is_feasible
            assert relaxation.objective >= best.objective - 1e-7


def check_two_stage(instance):
    for full, delay in FLAGS:
        best = lexicographic_optimum(instance, full, delay)
        solution = solve_two_stage(
            instance, require_full_recovery=full, enforce_delay=delay
        )
        assert solution.feasible == (best is not None), (full, delay)
        if best is not None:
            evaluation = evaluate_solution(instance, solution, enforce_delay=delay)
            assert (
                evaluation.least_programmability,
                evaluation.total_programmability,
            ) == best


def check_pm(instance):
    for enforce_delay in (False, True):
        best = optimum(instance, require_full_recovery=False, enforce_delay=enforce_delay)
        pm = solve_pm(instance, enforce_delay=enforce_delay)
        objective = evaluate_solution(instance, pm, enforce_delay=enforce_delay).objective
        assert objective <= best.objective + TOL


def sample_points(instance, count, rng):
    """``count`` random switch-level points: a mapping, then a random
    subset of the mapped switches' pairs."""
    controllers = list(instance.controllers)
    for _ in range(count):
        mapping = {}
        for s in instance.switches:
            choice = rng.choice([None, *controllers])
            if choice is not None:
                mapping[s] = choice
        yield mapping, {
            pair for pair in instance.pbar if pair[0] in mapping and rng.random() < 0.5
        }


def check_validator(instance, count=12, seed=0):
    rng = random.Random(seed)
    for mapping, sdn_pairs in sample_points(instance, count, rng):
        solution = RecoverySolution(algorithm="sample", mapping=mapping, sdn_pairs=sdn_pairs)
        for full, delay in FLAGS:
            feasible, _ = score_point(instance, mapping, sdn_pairs, full, delay)
            report = validate_solution(
                instance, solution, enforce_delay=delay, require_full_recovery=full
            )
            assert report.ok == feasible, (mapping, sdn_pairs, full, delay, report.summary())


@pytest.mark.parametrize("name", sorted(FIXED))
class TestFixedInstances:
    def test_exact_solver_reaches_the_optimum(self, name):
        check_exact(FIXED[name])

    def test_two_stage_reaches_the_lexicographic_optimum(self, name):
        check_two_stage(FIXED[name])

    def test_pm_never_beats_the_optimum(self, name):
        check_pm(FIXED[name])

    def test_validator_agrees_on_sampled_points(self, name):
        check_validator(FIXED[name], count=40)


class TestTinyInstanceOptimum:
    def test_oracle_optimum(self):
        """All four pairs fit: pro(a)=2, pro(b)=5, pro(c)=4, so r=2 and Σ p̄=11."""
        best = optimum(make_tiny_instance())
        assert (best.least, best.total) == (2, 11)
        assert best.sdn_pairs == frozenset(make_tiny_instance().pbar)

    def test_oracle_infeasible_without_spare(self):
        assert optimum(INFEASIBLE_INSTANCE, require_full_recovery=True) is None
        assert optimum(INFEASIBLE_INSTANCE, require_full_recovery=False).objective == 0.0


class TestRandomInstances:
    @PROPERTY
    @given(tiny_instances())
    def test_exact_solver_reaches_the_optimum(self, instance):
        check_exact(instance)

    @PROPERTY
    @given(tiny_instances())
    def test_two_stage_and_pm_against_the_oracle(self, instance):
        check_two_stage(instance)
        check_pm(instance)

    @PROPERTY
    @given(tiny_instances())
    def test_validator_agrees_on_sampled_points(self, instance):
        check_validator(instance)
