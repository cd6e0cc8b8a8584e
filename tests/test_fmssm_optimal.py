"""Tests for the Optimal solver (exact P′)."""

from __future__ import annotations

import pytest

from repro.control.failures import enumerate_failure_scenarios
from repro.experiments.scenarios import custom_context
from repro.fmssm.evaluation import evaluate_solution, verify_solution
from repro.fmssm.optimal import _combinatorial_bound, solve_optimal
from repro.lp.highs import solve_form_relaxation
from repro.perf.compile import compile_fmssm
from repro.topology.generators import ring_topology
from conftest import make_tiny_instance


class TestTinyOptimal:
    def test_optimum_matches_formulation(self, tiny_instance):
        solution = solve_optimal(tiny_instance)
        assert solution.feasible
        verify_solution(tiny_instance, solution, enforce_delay=True)
        evaluation = evaluate_solution(tiny_instance, solution)
        assert evaluation.least_programmability == 2
        assert evaluation.total_programmability == 11

    def test_bnb_backend_agrees(self, tiny_instance):
        highs = evaluate_solution(tiny_instance, solve_optimal(tiny_instance, solver="highs"))
        bnb = evaluate_solution(tiny_instance, solve_optimal(tiny_instance, solver="bnb"))
        assert highs.least_programmability == bnb.least_programmability
        assert highs.total_programmability == bnb.total_programmability

    def test_infeasible_full_recovery(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        solution = solve_optimal(instance, require_full_recovery=True)
        assert not solution.feasible
        assert solution.mapping == {}
        assert solution.meta["status"] == "infeasible"

    def test_relaxed_recovery_always_feasible(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        solution = solve_optimal(instance, require_full_recovery=False)
        assert solution.feasible
        evaluation = evaluate_solution(instance, solution)
        # One unit of budget buys the most valuable pair: switch 2 maps to
        # controller 100 and flow c gains p̄ = 4 there.
        assert evaluation.total_programmability == 4

    def test_capacity_binding(self):
        instance = make_tiny_instance(spare={100: 1, 200: 1})
        solution = solve_optimal(instance, require_full_recovery=False)
        evaluation = evaluate_solution(instance, solution)
        assert sum(evaluation.controller_load.values()) <= 2

    def test_delay_constraint_binds(self):
        """With a tight G the optimum activates fewer pairs."""
        loose = make_tiny_instance(ideal_delay_ms=100.0)
        tight = make_tiny_instance(ideal_delay_ms=3.0)
        loose_total = evaluate_solution(
            loose, solve_optimal(loose, require_full_recovery=False)
        ).total_programmability
        tight_total = evaluate_solution(
            tight, solve_optimal(tight, require_full_recovery=False)
        ).total_programmability
        assert tight_total < loose_total

    def test_solution_respects_delay_budget(self, tiny_instance):
        solution = solve_optimal(tiny_instance)
        evaluation = evaluate_solution(tiny_instance, solution)
        assert evaluation.total_delay_ms <= tiny_instance.ideal_delay_ms + 1e-6


class TestSmallNetworkOptimal:
    def test_small_context_solves(self, small_context, small_instance):
        solution = solve_optimal(small_instance, time_limit_s=60)
        assert solution.feasible
        verify_solution(small_instance, solution, enforce_delay=True)
        evaluation = evaluate_solution(small_instance, solution)
        assert evaluation.recovery_fraction == 1.0

    def test_optimal_dominates_pm_objective(self, small_instance):
        """On instances where Optimal exists, its combined objective is
        at least PM's restricted to the same (delay-feasible) space."""
        from repro.pm import solve_pm

        optimal = evaluate_solution(small_instance, solve_optimal(small_instance, time_limit_s=60))
        pm_strict = evaluate_solution(
            small_instance, solve_pm(small_instance, enforce_delay=True)
        )
        assert optimal.objective >= pm_strict.objective - 1e-9


@pytest.fixture(scope="module")
def chain_context():
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=160,
    )


class TestPrecertificate:
    def test_bound_dominates_lp_relaxation(self, chain_context):
        for scenario in enumerate_failure_scenarios(chain_context.plane, 1):
            instance = chain_context.instance(scenario)
            compiled = compile_fmssm(instance, require_full_recovery=True)
            relaxation = solve_form_relaxation(compiled.form)
            if relaxation.objective is None:
                continue
            assert _combinatorial_bound(instance) >= relaxation.objective - 1e-9

    def test_precert_agrees_with_model_route(self, chain_context):
        fired = 0
        for scenario in enumerate_failure_scenarios(chain_context.plane, 2):
            instance = chain_context.instance(scenario)
            sparse = solve_optimal(instance)
            if sparse.meta.get("solver") != "precert":
                continue
            fired += 1
            model = solve_optimal(instance, compile="model")
            assert model.feasible
            assert sparse.meta["objective"] == model.meta["objective"]
        if fired == 0:
            pytest.skip("no scenario triggered the pre-certificate")
