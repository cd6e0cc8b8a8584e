"""Tests for the independent solution validator (repro.resilience.validate).

Two layers: unit tests that hand-craft one violation per constraint
group, and a hypothesis property test asserting that *every solver
route* produces solutions the validator accepts on random small Waxman
instances — the validator must never reject honest output.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario
from repro.exceptions import ValidationError
from repro.experiments.scenarios import custom_context
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.pm.algorithm import solve_pm
from repro.resilience.validate import check_solution, validate_solution
from repro.topology.generators import waxman_topology

SETTINGS = settings(max_examples=10, deadline=None)


def _replace_instance(instance, **changes):
    """dataclasses.replace for FMSSMInstance (derived fields rebuilt)."""
    fields = {
        f.name: getattr(instance, f.name)
        for f in dataclasses.fields(instance)
        if f.init
    }
    fields.update(changes)
    return type(instance)(**fields)


class TestViolations:
    """Each constraint group flags exactly the defect it owns."""

    def test_honest_solution_passes(self, small_instance):
        solution = solve_pm(small_instance, enforce_delay=True)
        report = validate_solution(small_instance, solution)
        assert report.ok, report.summary()
        assert "eq3-capacity" in report.checked

    def test_inactive_controller_mapping(self, small_instance):
        solution = RecoverySolution(
            algorithm="forged",
            mapping={small_instance.switches[0]: 999},
        )
        report = validate_solution(small_instance, solution)
        assert any(v.constraint == "eq2-mapping" for v in report.violations)

    def test_non_offline_switch_mapping(self, small_instance):
        solution = RecoverySolution(
            algorithm="forged",
            mapping={-1: small_instance.controllers[0]},
        )
        report = validate_solution(small_instance, solution)
        assert any(v.constraint == "eq2-mapping" for v in report.violations)

    def test_non_programmable_pair(self, small_instance):
        switch = small_instance.switches[0]
        controller = small_instance.controllers[0]
        solution = RecoverySolution(
            algorithm="forged",
            mapping={switch: controller},
            sdn_pairs={(switch, (123456, 654321))},
        )
        report = validate_solution(small_instance, solution)
        assert any(v.constraint == "eq1-pairs" for v in report.violations)

    def test_capacity_violation(self, small_instance):
        solution = solve_pm(small_instance, enforce_delay=True)
        starved = _replace_instance(
            small_instance,
            spare={c: 0 for c in small_instance.controllers},
        )
        if not solution.active_pairs():
            pytest.skip("PM recovered nothing on this instance")
        report = validate_solution(starved, solution)
        assert any(v.constraint == "eq3-capacity" for v in report.violations)

    def test_load_override_checked_against_capacity(self, small_instance):
        controller = small_instance.controllers[0]
        solution = RecoverySolution(
            algorithm="forged",
            mapping={},
            load_override={controller: small_instance.spare[controller] + 1},
        )
        report = validate_solution(small_instance, solution)
        assert any(v.constraint == "eq3-capacity" for v in report.violations)

    def test_full_recovery_shortfall(self, small_instance):
        empty = RecoverySolution(algorithm="forged", mapping={}, sdn_pairs=set())
        report = validate_solution(
            small_instance, empty, require_full_recovery=True
        )
        if small_instance.recoverable_flows:
            assert any(v.constraint == "eq4-least" for v in report.violations)

    def test_objective_cross_check(self, small_instance):
        solution = solve_pm(small_instance, enforce_delay=True)
        solution.meta["objective"] = 1e9
        report = validate_solution(small_instance, solution)
        assert any(v.constraint == "eq4-least" for v in report.violations)

    def test_delay_violation(self, small_instance):
        solution = solve_pm(small_instance, enforce_delay=True)
        if not solution.active_pairs():
            pytest.skip("PM recovered nothing on this instance")
        squeezed = _replace_instance(small_instance, ideal_delay_ms=0.0)
        report = validate_solution(squeezed, solution)
        assert any(v.constraint == "eq5-delay" for v in report.violations)
        report = validate_solution(squeezed, solution, enforce_delay=False)
        assert report.ok

    def test_infeasible_solution_validates_when_empty(self, small_instance):
        empty = RecoverySolution(algorithm="optimal", feasible=False)
        assert validate_solution(small_instance, empty).ok
        lying = RecoverySolution(
            algorithm="optimal",
            feasible=False,
            mapping={small_instance.switches[0]: small_instance.controllers[0]},
        )
        assert not validate_solution(small_instance, lying).ok

    def test_check_solution_raises_with_report(self, small_instance):
        solution = RecoverySolution(algorithm="forged", mapping={-1: 999})
        with pytest.raises(ValidationError) as err:
            check_solution(small_instance, solution)
        assert err.value.report is not None
        assert not err.value.report.ok


def _waxman_instance(n, seed, fail_index):
    topology = waxman_topology(n, seed=seed)
    sites = (0, n // 3, (2 * n) // 3)
    context = custom_context(topology, controller_sites=sites, capacity=10_000)
    scenario = FailureScenario(frozenset({sites[fail_index]}))
    return context.instance(scenario)


class TestEveryRoutePasses:
    """Property: honest solver output always passes the validator."""

    @SETTINGS
    @given(
        n=st.integers(min_value=9, max_value=12),
        seed=st.integers(min_value=0, max_value=40),
        fail_index=st.integers(min_value=0, max_value=2),
    )
    def test_heuristic_routes(self, n, seed, fail_index):
        instance = _waxman_instance(n, seed, fail_index)
        for name in ("pm", "retroflow", "pg"):
            solution = get_algorithm(name)(instance)
            # Flow-level baselines may trade the delay bound; capacity and
            # structure must hold for everyone.
            report = validate_solution(instance, solution, enforce_delay=False)
            assert report.ok, f"{name}: {report.summary()}"

    @SETTINGS
    @given(
        n=st.integers(min_value=9, max_value=11),
        seed=st.integers(min_value=0, max_value=40),
        fail_index=st.integers(min_value=0, max_value=2),
    )
    def test_exact_routes(self, n, seed, fail_index):
        instance = _waxman_instance(n, seed, fail_index)
        for kwargs in ({"warm_start": "pm"}, {"warm_start": None}):
            # validate=True (the default) means solve_optimal itself raises
            # ValidationError if its output were rejected; re-check here to
            # assert the report is clean under the strict delay bound.
            solution = solve_optimal(instance, time_limit_s=30.0, **kwargs)
            if solution.feasible:
                report = validate_solution(instance, solution, enforce_delay=True)
                assert report.ok, f"{kwargs}: {report.summary()}"

    def test_cold_route_passes(self, small_instance):
        solution = solve_optimal(small_instance, time_limit_s=30.0, warm_start=None)
        assert solution.meta["solver"] == "highs"
        assert validate_solution(small_instance, solution).ok

    def test_pm_respects_delay_bound(self, small_instance):
        solution = solve_pm(small_instance, enforce_delay=True)
        assert validate_solution(small_instance, solution, enforce_delay=True).ok
