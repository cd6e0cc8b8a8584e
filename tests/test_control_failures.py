"""Tests for failure scenarios."""

from __future__ import annotations

import pytest

from repro.control.failures import (
    FailureScenario,
    enumerate_failure_scenarios,
    successive_scenarios,
)
from repro.control.plane import ControlPlane
from repro.exceptions import ScenarioError
from repro.topology.att import ATT_DOMAINS
from repro.topology.generators import grid_topology


@pytest.fixture(scope="module")
def plane(att):
    return ControlPlane(att, ATT_DOMAINS, capacity=500)


class TestFailureScenario:
    def test_name_sorted(self):
        scenario = FailureScenario(frozenset({20, 13}))
        assert scenario.name == "(13, 20)"
        assert scenario.n_failures == 2

    def test_accepts_lists_and_tuples(self):
        assert FailureScenario([5]).failed == frozenset({5})
        assert FailureScenario((5, 6)).failed == frozenset({5, 6})

    def test_empty_rejected(self):
        with pytest.raises(ScenarioError):
            FailureScenario(frozenset())

    def test_offline_switches(self, plane):
        scenario = FailureScenario(frozenset({13, 20}))
        assert scenario.offline_switches(plane) == (10, 11, 12, 13, 15, 19, 20)

    def test_active_controllers(self, plane):
        scenario = FailureScenario(frozenset({13, 20}))
        assert scenario.active_controllers(plane) == (2, 5, 6, 22)

    def test_resolve_is_both(self, plane):
        scenario = FailureScenario(frozenset({13, 20}))
        assert scenario.resolve(plane) == (
            (2, 5, 6, 22),
            (10, 11, 12, 13, 15, 19, 20),
        )

    def test_unknown_controller_rejected(self, plane):
        with pytest.raises(ScenarioError, match="unknown"):
            FailureScenario(frozenset({999})).validate(plane)

    def test_all_failed_rejected(self, plane):
        scenario = FailureScenario(frozenset(plane.controller_ids))
        with pytest.raises(ScenarioError, match="remain active"):
            scenario.validate(plane)


class TestEnumeration:
    def test_paper_combination_counts(self, plane):
        assert len(enumerate_failure_scenarios(plane, 1)) == 6
        assert len(enumerate_failure_scenarios(plane, 2)) == 15
        assert len(enumerate_failure_scenarios(plane, 3)) == 20

    def test_scenarios_distinct(self, plane):
        scenarios = enumerate_failure_scenarios(plane, 2)
        assert len({s.failed for s in scenarios}) == 15

    def test_bounds_enforced(self, plane):
        with pytest.raises(ScenarioError):
            enumerate_failure_scenarios(plane, 0)
        with pytest.raises(ScenarioError):
            enumerate_failure_scenarios(plane, 6)

    def test_lexicographic_order(self, plane):
        scenarios = enumerate_failure_scenarios(plane, 2)
        assert scenarios[0].failed == frozenset({2, 5})
        assert scenarios[-1].failed == frozenset({20, 22})


class TestSuccessive:
    def test_growing_failure_sets(self):
        stages = list(successive_scenarios([5, 13, 20]))
        assert [s.failed for s in stages] == [
            frozenset({5}),
            frozenset({5, 13}),
            frozenset({5, 13, 20}),
        ]

    def test_duplicates_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            list(successive_scenarios([5, 5]))

    def test_successive_offline_sets_grow(self, plane):
        previous: set[int] = set()
        for scenario in successive_scenarios([2, 5, 6]):
            offline = set(scenario.offline_switches(plane))
            assert previous <= offline
            previous = offline


class TestSampling:
    def test_small_request_returns_distinct(self, plane):
        from repro.control.failures import sample_failure_scenarios

        scenarios = sample_failure_scenarios(plane, 2, 5, seed=1)
        assert len(scenarios) == 5
        assert len({s.failed for s in scenarios}) == 5

    def test_oversample_falls_back_to_enumeration(self, plane):
        from repro.control.failures import sample_failure_scenarios

        scenarios = sample_failure_scenarios(plane, 2, 100)
        assert len(scenarios) == 15

    def test_deterministic_for_seed(self, plane):
        from repro.control.failures import sample_failure_scenarios

        a = [s.failed for s in sample_failure_scenarios(plane, 3, 7, seed=4)]
        b = [s.failed for s in sample_failure_scenarios(plane, 3, 7, seed=4)]
        assert a == b

    def test_invalid_arguments(self, plane):
        from repro.control.failures import sample_failure_scenarios
        from repro.exceptions import ScenarioError
        import pytest as _pytest

        with _pytest.raises(ScenarioError):
            sample_failure_scenarios(plane, 0, 3)
        with _pytest.raises(ScenarioError):
            sample_failure_scenarios(plane, 2, 0)
