"""How long a grounded FMSSM instance lives, and how often one is grounded.

An :class:`~repro.experiments.scenarios.ExperimentContext` holds its
instances weakly: an instance lives as long as the request or sweep
that grounded it, and no longer.  The lifetime tests run with the
collector disabled, so they pass only if every path frees its instance
by reference count alone — an instance caught in a reference cycle
would stay alive until the next collection.  The counting tests check
that no route grounds a scenario twice now that nothing caches
instances for the context's whole life.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from collections import Counter

import pytest
from test_grounding_index import assert_same_instance, wan72_context

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.figures import failure_figure_data
from repro.experiments.runner import PAPER_ALGORITHMS, run_scenario
from repro.experiments.scenarios import default_att_context
from repro.experiments.successive import run_successive
from repro.fmssm.build import GroundingIndex
from repro.perf.store import SolveStore
from repro.perf import sweep as sweep_mod
from repro.perf.sweep import SweepPlan, _scenario_rows, parallel_sweep

HEURISTICS = ("pm", "retroflow", "pg", "nearest")


@pytest.fixture
def grounded(monkeypatch):
    """Spy on :meth:`GroundingIndex.ground`: a count per failed set and
    a weak reference to every instance grounded."""
    counts: Counter = Counter()
    refs: list[weakref.ref] = []
    ground = GroundingIndex.ground

    def spy(self, scenario, *args, **kwargs):
        instance = ground(self, scenario, *args, **kwargs)
        counts[scenario.failed] += 1
        refs.append(weakref.ref(instance))
        return instance

    monkeypatch.setattr(GroundingIndex, "ground", spy)
    return counts, refs


@pytest.fixture(scope="module")
def wan_context():
    return wan72_context()


def once_each(scenarios) -> Counter:
    return Counter({scenario.failed: 1 for scenario in scenarios})


def released_without_gc(context, refs, call):
    """Run ``call`` with the collector off; return its result once every
    instance it grounded is dead and the context holds none."""
    gc.collect()
    gc.disable()
    try:
        result = call()
        assert refs, "the call grounded nothing"
        assert [ref for ref in refs if ref() is not None] == []
        assert len(context._instances) == 0
    finally:
        gc.enable()
    return result


class TestReleasedByRefcount:
    def test_run_scenario_att_paper_algorithms(self, grounded):
        context = default_att_context()
        scenario = FailureScenario(frozenset({13}))
        result = released_without_gc(
            context,
            grounded[1],
            lambda: run_scenario(context, scenario, PAPER_ALGORITHMS, optimal_time_limit_s=60),
        )
        assert set(result.evaluations) == set(PAPER_ALGORITHMS)

    def test_run_scenario_wan_pm(self, grounded, wan_context):
        scenario = next(iter(enumerate_failure_scenarios(wan_context.plane, 2)))
        result = released_without_gc(
            wan_context, grounded[1], lambda: run_scenario(wan_context, scenario, ("pm",))
        )
        assert result.evaluations["pm"].feasible

    def test_one_scenario_store_sweep(self, grounded, wan_context, tmp_path):
        store = SolveStore(tmp_path)
        scenario = next(iter(enumerate_failure_scenarios(wan_context.plane, 1)))
        for _ in range(2):  # a miss that solves, then a hit that replays
            (result,) = released_without_gc(
                wan_context,
                grounded[1],
                lambda: parallel_sweep(wan_context, [scenario], ("pm",), store=store),
            )
            assert "pm" in result.evaluations
        assert result.meta["store"]["hits"] == ["pm"]

    def test_regrounded_equals_released(self, grounded, wan_context):
        scenario = next(iter(enumerate_failure_scenarios(wan_context.plane, 3)))
        first = wan_context.instance(scenario)
        snapshot = pickle.loads(pickle.dumps(first))
        del first
        assert grounded[1][0]() is None
        again = wan_context.instance(scenario)
        assert grounded[0][scenario.failed] == 2
        assert_same_instance(snapshot, again)

    def test_held_instance_is_shared(self, grounded):
        context = default_att_context()
        scenario = FailureScenario(frozenset({5, 13}))
        held = context.instance(scenario)
        assert context.instance(FailureScenario(frozenset({13, 5}))) is held
        assert grounded[0][scenario.failed] == 1


class TestGroundedOncePerScenario:
    @pytest.fixture(scope="class")
    def att_context(self):
        return default_att_context()

    def test_run_scenario(self, grounded, att_context):
        scenario = FailureScenario(frozenset({13, 20}))
        run_scenario(att_context, scenario, HEURISTICS)
        assert grounded[0] == once_each([scenario])

    def test_serial_four_algorithm_sweep(self, grounded, att_context):
        scenarios = list(enumerate_failure_scenarios(att_context.plane, 1))[:3]
        parallel_sweep(
            att_context, scenarios, PAPER_ALGORITHMS,
            optimal_time_limit_s=60, max_workers=1,
        )
        assert grounded[0] == once_each(scenarios)

    def test_store_probe_and_solve(self, grounded, att_context, tmp_path):
        scenarios = list(enumerate_failure_scenarios(att_context.plane, 2))[:4]
        parallel_sweep(att_context, scenarios, HEURISTICS, store=SolveStore(tmp_path))
        assert grounded[0] == once_each(scenarios)

    def test_failure_figure_data(self, grounded, att_context):
        data = failure_figure_data(att_context, 1, HEURISTICS)
        scenarios = list(enumerate_failure_scenarios(att_context.plane, 1))
        assert grounded[0] == once_each(scenarios)
        assert len(data["total_spare"]) == len(scenarios)

    @pytest.mark.parametrize("gc_enabled", [False, True])
    def test_successive(self, grounded, att_context, gc_enabled):
        def call():
            return run_successive(att_context, (13, 20, 5), "pm")

        # With the collector off, every stage's instance must also be
        # freed by reference count once the chain returns.
        stages = (
            call() if gc_enabled
            else released_without_gc(att_context, grounded[1], call)
        )
        assert grounded[0] == Counter(
            {frozenset({13}): 1, frozenset({13, 20}): 1, frozenset({5, 13, 20}): 1}
        )
        assert [stage.failed for stage in stages] == [(13,), (13, 20), (5, 13, 20)]


class TestDerivedStageData:
    """Figure and successive data read spare capacity and recoverable
    counts without grounding; they must equal the instance's."""

    @pytest.mark.parametrize("n_failures", [1, 2])
    def test_figure_total_spare(self, n_failures):
        context = default_att_context()
        data = failure_figure_data(context, n_failures, ("pm",))
        for scenario in enumerate_failure_scenarios(context.plane, n_failures):
            assert data["total_spare"][scenario.name] == context.instance(scenario).total_spare

    def test_successive_stages(self):
        context = default_att_context()
        for stage in run_successive(context, (2, 13, 20), "pm"):
            instance = context.instance(FailureScenario(frozenset(stage.failed)))
            assert stage.total_spare == instance.total_spare
            assert stage.recoverable_flows == len(instance.recoverable_flows)


class TestPlanHold:
    def test_plan_instance_is_memoized(self, grounded):
        context = default_att_context()
        scenarios = tuple(enumerate_failure_scenarios(context.plane, 1))
        plan = SweepPlan(context, scenarios)
        first = plan.instance(2)
        assert plan.instance(2) is first
        assert grounded[0] == once_each([scenarios[2]])
        del first
        assert plan.instance(2) is context.instance(scenarios[2])
        assert grounded[0] == once_each([scenarios[2]])

    def test_worker_tasks_ground_once_per_scenario(self, grounded, monkeypatch):
        # Every heuristic on each of two scenarios, as the serial path
        # runs them; a worker's plan holds the instances the same way.
        context = default_att_context()
        scenarios = tuple(enumerate_failure_scenarios(context.plane, 2))[:2]
        plan = SweepPlan(context, scenarios)
        evaluated = []
        evaluate_batch = sweep_mod.evaluate_batch

        def spy(instance, solutions, *args, **kwargs):
            evaluated.append((instance, len(solutions)))
            return evaluate_batch(instance, solutions, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "evaluate_batch", spy)
        tasks = [
            (index, algorithm)
            for index in range(len(scenarios))
            for algorithm in HEURISTICS
        ]
        rows = list(_scenario_rows(plan, tasks))
        assert [(index, algorithm) for index, algorithm, *_ in rows] == tasks
        assert grounded[0] == once_each(scenarios)
        # One evaluate_batch call per scenario, over all its solutions.
        assert len(evaluated) == len(scenarios)
        for index, (instance, count) in enumerate(evaluated):
            assert instance is plan.instance(index)
            assert count == len(HEURISTICS)


class TestPickle:
    def test_live_instances_do_not_travel(self):
        context = default_att_context()
        scenarios = list(enumerate_failure_scenarios(context.plane, 2))[:3]
        held = [context.instance(scenario) for scenario in scenarios]
        assert len(context._instances) == 3
        clone = pickle.loads(pickle.dumps(context))
        assert len(clone._instances) == 0
        assert clone._grounding is None
        for scenario, instance in zip(scenarios, held):
            assert_same_instance(instance, clone.instance(scenario))
        assert len(context._instances) == 3
