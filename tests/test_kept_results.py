"""Results kept as positions of the network frame.

A result that outlives its request (:func:`repro.experiments.runner.
run_scenario`, a sweep's rows) is moved onto the context's network
frame by :func:`repro.fmssm.evaluation.rebase`: the form a store hit
decodes to.  These tests hold that form to the instance-frame result it
came from (every view equal), check that it pins no instance, that it
is small, and that the store round-trips it column for column.  A
context's results take that form once its network frame is built
(:meth:`~repro.experiments.scenarios.ExperimentContext.materialize_table`).
"""

from __future__ import annotations

import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from test_fmssm_optimal import ring_context
from test_grounding_index import wan72_context

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.runner import run_failure_sweep, run_scenario
from repro.fmssm.build import GroundingIndex
from repro.fmssm.evaluation import evaluate_batch, rebase
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.perf.kernels import prepare_instance
from repro.perf.store import SolveStore, decode_result, encode_result
from repro.perf.sweep import parallel_sweep

HEURISTICS = ("pm", "pm-strict", "pg", "retroflow", "nearest")
#: ATT two-failure sets whose exact solve is quick: every precertified
#: one, plus (5, 20), a MILP answer.
ATT_QUICK_PAIRS = {
    frozenset(s) for s in ((2, 5), (2, 13), (5, 13), (6, 22), (13, 22), (20, 22), (5, 20))
}
#: A WAN-72 sample: one to three failures.
WAN_SAMPLE = ((0,), (3,), (1, 4), (2, 7), (0, 5, 8))
#: Retained bytes per kept WAN-72 PM result (one-failure universe).
#: Measured ~19 KB kept and ~81 KB when a result pinned its instance's
#: frame and held int64 columns.
RETAINED_BYTES_PER_RESULT = 30_000


@pytest.fixture(scope="module")
def wan_context():
    context = wan72_context()
    context.materialize_table()
    return context


def solve(instance, name: str) -> RecoverySolution:
    if name == "optimal":
        return solve_optimal(instance, time_limit_s=60.0)
    return get_algorithm(name)(instance)


def views(solution, evaluation) -> dict:
    """Every view of a result, read from copies (which leaves the
    originals' positions in place)."""
    solution, evaluation = copy.copy(solution), copy.copy(evaluation)
    return {
        "mapping": solution.mapping,
        "sdn_pairs": solution.sdn_pairs,
        "pair_controller": solution.pair_controller,
        "active_pairs": solution.active_pairs(),
        "programmability": evaluation.programmability,
        "programmability_values": evaluation.programmability_values(),
        "controller_load": evaluation.controller_load,
        "recoverable": evaluation._recoverable_set,
        "scalars": (
            evaluation.least_programmability,
            evaluation.total_programmability,
            evaluation.recovered_flows,
            evaluation.recovered_switches,
            evaluation.objective,
        ),
    }


def assert_kept(context, solution, evaluation) -> None:
    """A positional result is over the network frame, in the kept widths."""
    network = context.network_frame()
    placement, values = solution.positions(), evaluation.positions()
    if placement is not None:
        assert placement.frame is network
        assert placement.pairs.dtype == np.int32
        assert placement.switch_ctrl.dtype == placement.pair_ctrl.dtype == np.int8
        assert placement.switch_ctrl.size == len(network.switches)
    assert values is not None and values.frame is network
    assert values.flows.dtype == values.recoverable.dtype == np.int32
    assert values.pro.dtype.itemsize <= 2


def assert_rebase_keeps_views(context, scenario, names) -> None:
    instance = context.instance(scenario)
    prepare_instance(instance)
    solutions = [solve(instance, name) for name in names]
    evaluations = evaluate_batch(instance, solutions)
    before = [views(s, e) for s, e in zip(solutions, evaluations)]
    rebase(instance, solutions, evaluations, context.network_frame())
    for name, solution, evaluation, expected in zip(names, solutions, evaluations, before):
        assert_kept(context, solution, evaluation)
        assert views(solution, evaluation) == expected, (scenario.name, name)


class TestViews:
    @pytest.mark.parametrize("n_failures", [1, 2])
    def test_att(self, att_context, n_failures):
        for scenario in enumerate_failure_scenarios(att_context.plane, n_failures):
            names = HEURISTICS
            if n_failures == 1 or scenario.failed in ATT_QUICK_PAIRS:
                names += ("optimal",)
            assert_rebase_keeps_views(att_context, scenario, names)

    def test_wan72_sample(self, wan_context):
        controllers = wan_context.plane.controller_ids
        for failed in WAN_SAMPLE:
            scenario = FailureScenario(frozenset(controllers[i] for i in failed))
            assert_rebase_keeps_views(wan_context, scenario, HEURISTICS)

    def test_infeasible_optimal(self):
        context = ring_context(135)
        context.materialize_table()
        scenario = FailureScenario(frozenset({0, 7}))
        result = run_scenario(context, scenario, ("optimal", "pm"))
        assert not result.solutions["optimal"].feasible
        assert_rebase_keeps_views(context, scenario, ("optimal", "pm"))
        for name in ("optimal", "pm"):
            assert_kept(context, result.solutions[name], result.evaluations[name])

    def test_runner_results_are_kept(self, att_context):
        att_context.materialize_table()
        scenario = FailureScenario(frozenset({13, 20}))
        result = run_scenario(att_context, scenario, HEURISTICS)
        instance = att_context.instance(scenario)
        for name in HEURISTICS:
            solution, evaluation = result.solutions[name], result.evaluations[name]
            assert_kept(att_context, solution, evaluation)
            fresh = solve(instance, name)
            assert views(solution, evaluation) == views(
                fresh, evaluate_batch(instance, [fresh])[0]
            )

    def test_views_read_before_rebase_stay_dicts(self, att_context):
        instance = att_context.instance(FailureScenario(frozenset({6})))
        solution = solve(instance, "pm")
        evaluation = evaluate_batch(instance, [solution])[0]
        mapping = solution.mapping  # the dicts are authoritative now
        rebase(instance, [solution], [evaluation], att_context.network_frame())
        assert solution.positions() is None and solution.mapping is mapping
        assert evaluation.positions().frame is att_context.network_frame()


@pytest.fixture
def frames(monkeypatch):
    """A weak reference to the frame of every instance grounded."""
    refs: list[weakref.ref] = []
    ground = GroundingIndex.ground

    def spy(self, scenario, *args, **kwargs):
        instance = ground(self, scenario, *args, **kwargs)
        refs.append(weakref.ref(instance.arrays().frame))
        return instance

    monkeypatch.setattr(GroundingIndex, "ground", spy)
    return refs


class TestNoPinnedInstance:
    def test_failure_sweep(self, att_context, frames):
        results = run_failure_sweep(att_context, 1, HEURISTICS + ("optimal",))
        gc.collect()
        assert len(frames) == 6 and all(ref() is None for ref in frames)
        for result in results:
            for name, solution in result.solutions.items():
                assert_kept(att_context, solution, result.evaluations[name])
                assert views(solution, result.evaluations[name])["sdn_pairs"]

    def test_store_sweep(self, att_context, frames, tmp_path):
        store = SolveStore(tmp_path / "store")
        scenarios = list(enumerate_failure_scenarios(att_context.plane, 2))[:4]
        parallel_sweep(att_context, scenarios[:2], HEURISTICS, store=store)
        results = parallel_sweep(att_context, scenarios, HEURISTICS, store=store)
        gc.collect()
        assert frames and all(ref() is None for ref in frames)
        assert [r.meta["store"]["hits"] for r in results] == [list(HEURISTICS)] * 2 + [[]] * 2


class TestRetainedMemory:
    def test_wan72_pm_universe(self, wan_context):
        scenarios = list(enumerate_failure_scenarios(wan_context.plane, 1))
        run_scenario(wan_context, scenarios[0], ("pm",))  # per-context caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [run_scenario(wan_context, s, ("pm",)) for s in scenarios]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(kept) < RETAINED_BYTES_PER_RESULT


def columns(solution, evaluation) -> dict:
    placement, values = solution.positions(), evaluation.positions()
    named = {
        "flows": values.flows,
        "pro": values.pro,
        "recoverable": values.recoverable,
    }
    if placement is not None:
        named.update(
            switch_ctrl=placement.switch_ctrl,
            pairs=placement.pairs,
            pair_ctrl=placement.pair_ctrl,
        )
    return named


def assert_same_columns(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name


class TestStoreForm:
    def test_round_trip(self, att_context, wan_context):
        att_context.materialize_table()
        cases = [
            (att_context, FailureScenario(frozenset({13, 20})), HEURISTICS),
            (att_context, FailureScenario(frozenset({5})), ("optimal",)),
            (wan_context, FailureScenario(frozenset({0, 5})), ("pm", "pg")),
        ]
        for context, scenario, names in cases:
            result = run_scenario(context, scenario, names)
            for name in names:
                kept = result.solutions[name], result.evaluations[name]
                decoded = decode_result(context, encode_result(context, *kept))
                assert_kept(context, *decoded)
                assert_same_columns(columns(*kept), columns(*decoded))
                # Encoding read no view of the kept result.
                assert kept[0].positions() is not None and kept[1].positions() is not None

    def test_instance_positions_encode_alike(self, att_context):
        instance = att_context.instance(FailureScenario(frozenset({13, 20})))
        for name in HEURISTICS:
            solution = solve(instance, name)
            evaluation = evaluate_batch(instance, [solution])[0]
            record = encode_result(att_context, solution, evaluation)
            # Resolved by id through copies: the result stays positional.
            assert solution.positions().frame is instance.arrays().frame
            assert evaluation.positions().frame is instance.arrays().frame
            rebase(instance, [solution], [evaluation], att_context.network_frame())
            assert encode_result(att_context, solution, evaluation) == record, name

    def test_hit_and_miss_alike(self, wan_context, tmp_path):
        store = SolveStore(tmp_path / "store")
        scenario = FailureScenario(frozenset(wan_context.plane.controller_ids[:2]))
        (miss,) = parallel_sweep(wan_context, [scenario], ("pm",), store=store)
        (hit,) = parallel_sweep(wan_context, [scenario], ("pm",), store=store)
        assert miss.meta["store"]["misses"] == hit.meta["store"]["hits"] == ["pm"]
        forms = [columns(r.solutions["pm"], r.evaluations["pm"]) for r in (miss, hit)]
        assert_same_columns(*forms)
        for result in (miss, hit):
            assert_kept(wan_context, result.solutions["pm"], result.evaluations["pm"])
