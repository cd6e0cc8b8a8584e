"""Tests for the Optimal solver (exact P′)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import custom_context
from repro.fmssm.evaluation import evaluate_solution, verify_solution
from repro.fmssm.optimal import _combinatorial_bound, _full_fill_seed, solve_optimal
from repro.lp.highs import grid_rel_gap, solve_form_relaxation
from repro.perf.compile import compile_fmssm
from repro.resilience import chaos
from repro.resilience.validate import check_solution
from repro.topology.generators import ring_topology, waxman_topology
from conftest import make_tiny_instance
from test_property_fmssm import tiny_instances


class TestTinyOptimal:
    def test_optimum_matches_formulation(self, tiny_instance):
        solution = solve_optimal(tiny_instance)
        assert solution.feasible
        verify_solution(tiny_instance, solution, enforce_delay=True)
        evaluation = evaluate_solution(tiny_instance, solution)
        assert evaluation.least_programmability == 2
        assert evaluation.total_programmability == 11

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

    @pytest.mark.parametrize("kwargs", [{"warm_start": "PM"}], ids=["warm-start"])
    def test_bad_arguments_rejected_on_every_route(self, tiny_instance, kwargs):
        """An unknown warm start raises before anything runs, instead of
        silently solving some other way."""
        (name, value), *_ = kwargs.items()
        with pytest.raises(ValueError, match=f"unknown {name}.*{value!r}"):
            solve_optimal(tiny_instance, **kwargs)


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


def ring_context(capacity: int):
    """A 10-node chorded ring with controllers at 0, 3 and 7."""
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=capacity,
    )


@pytest.fixture(scope="module")
def chain_context():
    return ring_context(160)


class TestPrecertificate:
    def test_bound_dominates_lp_relaxation(self, chain_context):
        for scenario in enumerate_failure_scenarios(chain_context.plane, 1):
            instance = chain_context.instance(scenario)
            compiled = compile_fmssm(instance, require_full_recovery=True)
            relaxation = solve_form_relaxation(compiled.form)
            if relaxation.objective is None:
                continue
            assert _combinatorial_bound(instance) >= relaxation.objective - 1e-9

    def test_precert_agrees_with_cold_route(self, chain_context):
        fired = 0
        for scenario in enumerate_failure_scenarios(chain_context.plane, 2):
            instance = chain_context.instance(scenario)
            seeded = solve_optimal(instance)
            if seeded.meta.get("solver") != "precert":
                continue
            fired += 1
            cold = solve_optimal(instance, warm_start=None)
            assert cold.feasible
            assert seeded.meta["objective"] == cold.meta["objective"]
        if fired == 0:
            pytest.skip("no scenario triggered the pre-certificate")


def fill_instance(ideal_delay_ms: float = 14.0):
    """A tiny instance whose PM seed misses the bound but whose full fill fits.

    PM sizes switch 1 by γ = 3 flows, not its 2 pairs, so it skips the
    nearby controller 100 (spare 2) for controller 200 (delay 5); the
    delay budget then blocks switch 2's second pair.  All four pairs fit
    with 1 → 100 and 2 → 200 at 6 ms of delay.
    """
    return dataclasses.replace(
        make_tiny_instance(spare={100: 2, 200: 3}, ideal_delay_ms=ideal_delay_ms),
        gamma={1: 3, 2: 2},
    )


def assert_matches_cold(instance, time_limit_s=None):
    """The seeded route's verdict and objective equal the cold MILP's."""
    seeded = solve_optimal(instance, time_limit_s=time_limit_s)
    cold = solve_optimal(instance, time_limit_s=time_limit_s, warm_start=None)
    assert seeded.feasible == cold.feasible
    if seeded.feasible:
        assert seeded.meta["objective"] == cold.meta["objective"]
    return seeded


@st.composite
def fill_prone_instances(draw):
    """Tiny instances with spare between the pair count and the flow count,
    where PM's γ-based fit check and the pair-based fill disagree most."""
    instance = draw(tiny_instances())
    floor = len(instance.pairs) // len(instance.controllers)
    ceiling = max(floor, sum(instance.gamma.values()))
    spare = {c: draw(st.integers(floor, ceiling)) for c in instance.controllers}
    return dataclasses.replace(instance, spare=spare)


class TestFullFillSeed:
    def test_none_when_spare_below_pairs(self):
        instance = make_tiny_instance(spare={100: 2, 200: 1})  # 4 pairs, 3 spare
        assert _full_fill_seed(instance) is None

    def test_every_pair_on_its_nearest_controller(self):
        instance = fill_instance()
        fill = _full_fill_seed(instance)
        assert fill.sdn_pairs == set(instance.pairs)
        assert fill.mapping == {1: 100, 2: 200}

    @pytest.mark.parametrize("ideal_delay_ms", [10.0, 14.0])
    def test_fill_certifies_the_cold_optimum(self, ideal_delay_ms):
        """At G = 10 PM fails r >= 1 outright; at G = 14 it is feasible but
        short of the bound.  The fill certifies either way."""
        solution = assert_matches_cold(fill_instance(ideal_delay_ms))
        assert solution.meta["solver"] == "precert"
        assert solution.meta["seed"] == "fill"

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fill_prone_instances())
    @example(fill_instance())
    def test_seeded_matches_cold_on_tiny_instances(self, instance):
        assert_matches_cold(instance)


class TestAttFillCertificate:
    def test_single_failure_6_precertifies_with_fill(self, att_context):
        """(6) is the one ATT single failure PM misses: the fill reaches
        the bound, and the answer is the cold MILP's."""
        instance = att_context.instance(FailureScenario(frozenset({6})))
        solution = assert_matches_cold(instance, time_limit_s=60.0)
        assert solution.meta["solver"] == "precert"
        assert solution.meta["seed"] == "fill"
        check_solution(instance, solution, enforce_delay=True, require_full_recovery=True)
        assert len(solution.sdn_pairs) == len(instance.pairs)

    @pytest.mark.parametrize("failed", [(5, 22), (6, 22)])
    def test_two_failure_fill_matches_cold(self, att_context, failed):
        instance = att_context.instance(FailureScenario(frozenset(failed)))
        solution = assert_matches_cold(instance, time_limit_s=60.0)
        assert solution.meta["seed"] == "fill"
        assert solution.meta["certificate"] is True

    def test_two_failure_universe_precertifies_or_runs_the_milp(self, att_context):
        """At least 11 of the 15 ATT two-failure solves certify from a
        seed; every other one goes straight to the HiGHS MILP."""
        solutions = [
            solve_optimal(att_context.instance(s), time_limit_s=120.0)
            for s in enumerate_failure_scenarios(att_context.plane, 2)
        ]
        solvers = [s.meta["solver"] for s in solutions]
        assert solvers.count("precert") >= 11, solvers
        assert set(solvers) == {"precert", "highs"}, solvers


class TestMilpGap:
    def test_grid_rel_gap(self):
        assert grid_rel_gap(None, 2.5) == 0.0
        assert grid_rel_gap(0.5, 0.25) == 0.5
        assert grid_rel_gap(1e-4, 2.5) == pytest.approx(4e-5)

    def test_three_failure_milp_reaches_the_lp_bound(self, att_context):
        """On ATT (6, 13, 22) one grid step (λ ≈ 2.3e-4) is below HiGHS's
        default relative gap of 1e-4 × 2.4: at that gap the MILP stopped
        at 2.396028 and reported it optimal.  At the grid-derived gap it
        reaches the LP relaxation's bound, 2.396262."""
        instance = att_context.instance(FailureScenario(frozenset({6, 13, 22})))
        solution = solve_optimal(instance, time_limit_s=120.0)
        assert solution.meta["solver"] == "highs"
        assert solution.meta["objective"] == pytest.approx(2.396262, abs=1e-6)
        bound = solve_form_relaxation(compile_fmssm(instance).form).objective
        assert bound - solution.meta["objective"] < instance.lam / 2


@pytest.fixture(scope="module")
def ring135():
    """A capacity-135 ring's one- and two-failure scenarios: the singles
    precertify, ``(0, 3)`` misses the bound and runs the MILP, and the
    other pairs are infeasible."""
    context = ring_context(135)
    scenarios = list(enumerate_failure_scenarios(context.plane, 1))
    scenarios += list(enumerate_failure_scenarios(context.plane, 2))
    return {
        tuple(sorted(s.failed)): context.instance(s) for s in scenarios
    }


class TestRing135Routes:
    def test_singles_precertify(self, ring135):
        for failed in [(0,), (3,), (7,)]:
            solution = solve_optimal(ring135[failed], time_limit_s=60.0)
            assert solution.meta["solver"] == "precert", failed
            assert solution.meta["certificate"] is True

    def test_certificate_miss_runs_the_milp(self, ring135):
        highs = solve_optimal(ring135[(0, 3)], time_limit_s=60.0)
        assert highs.meta["solver"] == "highs"
        assert highs.meta["certificate"] is False
        assert highs.meta["seed"] == "pm"
        cold = solve_optimal(ring135[(0, 3)], warm_start=None, time_limit_s=60.0)
        assert cold.meta["objective"] == highs.meta["objective"]

    @pytest.mark.parametrize("failed", [(0, 7), (3, 7)])
    def test_infeasible_pairs(self, ring135, failed):
        solution = solve_optimal(ring135[failed], time_limit_s=60.0)
        assert not solution.feasible
        assert solution.meta["status"] == "infeasible"

    def test_no_route_solves_an_lp_relaxation(self, ring135):
        """With every LP-relaxation solve faulted, the certificate miss
        still returns the MILP optimum: a miss goes straight to the MILP."""
        plain = solve_optimal(ring135[(0, 3)], time_limit_s=60.0)
        with chaos.inject(chaos.Fault("highs.relax", "raise-error", count=None)):
            faulted = solve_optimal(ring135[(0, 3)], time_limit_s=60.0)
        assert faulted.meta["solver"] == "highs"
        assert faulted.meta["objective"] == plain.meta["objective"]
        assert faulted.sdn_pairs == plain.sdn_pairs


# ---------------------------------------------------------------------------
# Property: the seeded route ≡ the cold MILP on random Waxman instances,
# salted with one infeasible instance and one certificate miss.
# ---------------------------------------------------------------------------

#: No spare anywhere: infeasible, and no seed can embed.
INFEASIBLE_INSTANCE = make_tiny_instance(spare={100: 0, 200: 0})


#: Feasible, but its seed misses the certificate, so the seeded route
#: runs the MILP (``solver="highs"``, no certificate).
MISS_INSTANCE = ring_context(135).instance(FailureScenario(frozenset({0, 3})))


@st.composite
def waxman_instances(draw):
    n = draw(st.integers(min_value=10, max_value=13))
    seed = draw(st.integers(min_value=0, max_value=20))
    capacity = draw(st.sampled_from((200, 300, 400)))
    topology = waxman_topology(n, alpha=0.7, beta=0.4, seed=seed)
    try:
        context = custom_context(
            topology, controller_sites=topology.nodes[:3], capacity=capacity
        )
        context.plane.spare_capacity(context.flows)
    except Exception:
        assume(False)
    return [
        context.instance(s) for s in enumerate_failure_scenarios(context.plane, 1)
    ]


class TestSeededEqualsColdProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(waxman_instances())
    def test_seeded_matches_cold_on_waxman(self, instances):
        for instance in instances:
            assert_matches_cold(instance, time_limit_s=60.0)
        assert not assert_matches_cold(INFEASIBLE_INSTANCE).feasible
        miss = assert_matches_cold(MISS_INSTANCE, time_limit_s=60.0)
        assert miss.feasible and miss.meta["solver"] == "highs"
        assert miss.meta["certificate"] is False
