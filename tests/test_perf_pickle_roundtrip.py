"""Core objects must survive pickle — the parallel sweep ships them to workers.

These are regression tests for the process-pool contract: if any of these
types grows an unpicklable member (a lambda default, an open handle, a
module-level closure), the parallel sweep silently degrades to serial.
Catch that here instead.
"""

from __future__ import annotations

import pickle

import pytest

from repro.control.failures import FailureScenario
from repro.fmssm.evaluation import evaluate_solution
from repro.perf.sweep import SweepPlan
from repro.pm.algorithm import solve_pm


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture(scope="module")
def scenario():
    return FailureScenario(frozenset({13, 20}))


class TestInstanceRoundTrip:
    def test_fmssm_instance(self, att_context, scenario):
        instance = att_context.instance(scenario)
        clone = roundtrip(instance)
        assert clone.switches == instance.switches
        assert clone.controllers == instance.controllers
        assert clone.spare == instance.spare
        assert clone.pbar == instance.pbar
        assert clone.gamma == instance.gamma
        assert clone.delay == instance.delay
        assert clone.ideal_delay_ms == instance.ideal_delay_ms
        # Derived views precomputed in __post_init__ must survive too.
        assert clone.pairs == instance.pairs
        assert clone.recoverable_flows == instance.recoverable_flows
        assert clone.total_iterations == instance.total_iterations

    def test_clone_is_solvable(self, att_context, scenario):
        instance = att_context.instance(scenario)
        original = solve_pm(instance)
        from_clone = solve_pm(roundtrip(instance))
        assert from_clone.mapping == original.mapping
        assert from_clone.sdn_pairs == original.sdn_pairs


class TestSolutionRoundTrip:
    def test_recovery_solution(self, att_context, scenario):
        instance = att_context.instance(scenario)
        solution = solve_pm(instance)
        clone = roundtrip(solution)
        assert clone == solution
        assert clone.algorithm == solution.algorithm
        assert clone.mapping == solution.mapping
        assert clone.sdn_pairs == solution.sdn_pairs

    def test_evaluation(self, att_context, scenario):
        instance = att_context.instance(scenario)
        evaluation = evaluate_solution(instance, solve_pm(instance))
        clone = roundtrip(evaluation)
        assert clone.programmability == evaluation.programmability
        assert clone.controller_load == evaluation.controller_load
        assert clone.objective == evaluation.objective


class TestSweepPayloadRoundTrip:
    def test_grounding_index(self, att_context, scenario):
        """The pickled context, as a pool worker decodes it, carries no
        grounding index and rebuilds one that grounds identical
        instances."""
        att_context.materialize_table()
        clone = roundtrip(att_context)
        assert clone._grounding is None
        expected = att_context.instance(scenario)
        instance = clone.instance(scenario)
        assert instance == expected
        assert list(instance.pbar.items()) == list(expected.pbar.items())
        assert instance.delay == expected.delay

    def test_sweep_plan(self, att_context):
        from repro.control.failures import enumerate_failure_scenarios

        att_context.materialize_table()
        scenarios = tuple(enumerate_failure_scenarios(att_context.plane, 1))
        plan = roundtrip(SweepPlan(context=att_context, scenarios=scenarios))
        assert plan.scenarios == scenarios
        # The revived context must ground instances identical to the parent's.
        instance = plan.context.instance(plan.scenarios[0])
        assert instance.pbar == att_context.instance(scenarios[0]).pbar
