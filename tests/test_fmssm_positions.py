"""Solutions held as positions of their instance.

The kernels and the certified exact solve return a
:class:`~repro.fmssm.solution.RecoverySolution` built from a
:class:`~repro.fmssm.solution.Placement`; evaluation, verification,
validation, the seed check and the store read those positions, and a
dict-built solution goes through the one resolver
(:func:`repro.fmssm.point.resolve`).  These tests hold the two forms to
the same answers, check that a read-and-mutated view is never checked
by stale positions, and that a positional solution pickles as dicts.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.exceptions import SolutionError
from repro.experiments.runner import run_scenario
from repro.fmssm.evaluation import evaluate_batch, evaluate_solution, verify_solution
from repro.fmssm.optimal import _full_fill_seed, _seed
from repro.fmssm.point import feasible_point
from repro.fmssm.solution import Placement, RecoverySolution
from repro.perf.store import encode_result
from repro.resilience.validate import validate_solution
from test_fmssm_point import waxman40_context
from test_grounding_index import wan72_context
from test_property_fmssm import tiny_instances

#: The registered algorithms that answer as positions (the exact solve
#: when it certifies; a MILP answer is dict-built on both sides).
ALGORITHMS = ("pm", "pm-strict", "pm-greedy", "pg", "retroflow", "nearest", "optimal")
#: (enforce_delay, require_full_recovery) settings the validator runs with.
FLAGS = [(True, False), (False, False), (True, True)]


def solutions_of(instance):
    """Each algorithm's solution on ``instance``, and the full-fill seed."""
    certifies = _seed(instance, True, True).precert
    out = [get_algorithm(name)(instance) for name in ALGORITHMS if certifies or name != "optimal"]
    fill = _full_fill_seed(instance)
    return out if fill is None else [*out, fill]


def dict_copy(solution: RecoverySolution) -> RecoverySolution:
    """``solution`` rebuilt from dicts, leaving ``solution`` as it was."""
    twin = copy.copy(solution)  # pickles: the views, not the positions
    return RecoverySolution(
        algorithm=twin.algorithm,
        mapping=dict(twin.mapping),
        sdn_pairs=set(twin.sdn_pairs),
        pair_controller=dict(twin.pair_controller),
        extra_overhead_ms=twin.extra_overhead_ms,
        load_override=None if twin.load_override is None else dict(twin.load_override),
        solve_time_s=twin.solve_time_s,
        feasible=twin.feasible,
        meta=dict(twin.meta),
    )


def assert_same_evaluation(a, b) -> None:
    for f in dataclasses.fields(a):
        want, got = getattr(b, f.name), getattr(a, f.name)
        if isinstance(want, float):
            assert struct.pack("<d", got) == struct.pack("<d", want), f.name
        elif isinstance(want, dict):
            assert list(got.items()) == list(want.items()), f.name
        else:
            assert got == want, f.name


def assert_same_point(a, b) -> None:
    assert (a is None) == (b is None)
    if a is not None:
        for name in ("switch_ctrl", "pairs", "pair_ctrl"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert (a.least, a.total, a.objective) == (b.least, b.total, b.objective)


def assert_forms_agree(instance) -> None:
    """Every positional solution answers as its dict-built copy does."""
    positional = solutions_of(instance)
    copies = [dict_copy(s) for s in positional]
    for solution, twin in zip(positional, copies):
        for delay, full in FLAGS:
            assert validate_solution(instance, solution, delay, full) == (
                validate_solution(instance, twin, delay, full)
            ), solution.algorithm
            assert_same_point(
                feasible_point(instance, solution, full, delay),
                feasible_point(instance, twin, full, delay),
            )
    for a, b in zip(evaluate_batch(instance, positional), evaluate_batch(instance, copies)):
        assert_same_evaluation(a, b)
    # None of the above read a view of the kernels' answers.
    assert all(s.positions() is not None for s in positional)


class TestPositionalEqualsDictBuilt:
    @pytest.mark.parametrize("n_failures", [1, 2])
    def test_att(self, att_context, n_failures):
        for scenario in enumerate_failure_scenarios(att_context.plane, n_failures):
            assert_forms_agree(att_context.instance(scenario))

    def test_waxman40(self):
        context = waxman40_context()
        for scenario in enumerate_failure_scenarios(context.plane, 1):
            assert_forms_agree(context.instance(scenario))

    def test_tiny_instance(self, tiny_instance):
        assert_forms_agree(tiny_instance)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tiny_instances())
    def test_tiny_instances(self, instance):
        assert_forms_agree(instance)


class TestStaleViews:
    """A view read and mutated is what validation checks from then on."""

    @pytest.fixture
    def setting(self, att_context):
        scenario = FailureScenario(frozenset({13, 20}))
        return att_context, scenario, att_context.instance(scenario)

    def mutated(self, instance, how, failed):
        solution = get_algorithm("pm")(instance)
        assert solution.positions() is not None
        assert validate_solution(instance, solution, enforce_delay=False).ok
        mapping, sdn_pairs = solution.mapping, solution.sdn_pairs
        assert solution.positions() is None  # the dicts are authoritative now
        switch = next(iter(mapping))
        if how == "pair":
            sdn_pairs.add((switch, (-1, -1)))
        elif how == "failed-controller":
            mapping[switch] = failed
        else:
            tightest = min(instance.controllers, key=instance.spare.__getitem__)
            for s in instance.switches:
                mapping[s] = tightest
            sdn_pairs.update(instance.pairs)
            assert len(instance.pairs) > instance.spare[tightest]
        return solution

    @pytest.mark.parametrize(
        "how, constraint",
        [("pair", "eq1-pairs"), ("failed-controller", "eq2-mapping"), ("load", "eq3-capacity")],
    )
    def test_mutation_is_checked(self, setting, how, constraint):
        _, scenario, instance = setting
        solution = self.mutated(instance, how, min(scenario.failed))
        report = validate_solution(instance, solution, enforce_delay=False)
        assert constraint in {v.constraint for v in report.violations}
        with pytest.raises(SolutionError):
            verify_solution(instance, solution, enforce_delay=False)
        with pytest.raises(SolutionError):
            evaluate_solution(instance, solution)


class TestPositionsOutOfRange:
    """A positional solution is checked by range and uniqueness (Eqs. 1
    and 2 by position), every bad entry named."""

    @pytest.mark.parametrize(
        "how, constraint",
        [("switch", "eq2-mapping"), ("pair", "eq1-pairs"), ("repeat", "eq1-pairs"),
         ("controller", "eq2-mapping")],
    )
    def test_bad_position_is_reported(self, tiny_instance, how, constraint):
        good = get_algorithm("pm")(tiny_instance).positions()
        m, n_pairs = len(tiny_instance.controllers), len(tiny_instance.pairs)
        switch_ctrl, pairs, pair_ctrl = good.switch_ctrl.copy(), good.pairs, good.pair_ctrl
        if how == "switch":
            switch_ctrl[0] = m
        elif how == "pair":
            pairs, pair_ctrl = np.append(pairs, n_pairs), np.append(pair_ctrl, 0)
        elif how == "repeat":
            pairs, pair_ctrl = np.append(pairs, pairs[-1]), np.append(pair_ctrl, pair_ctrl[-1])
        else:
            pair_ctrl = np.where(np.arange(pairs.size) == 0, -1, pair_ctrl)
        bad = RecoverySolution.positional(
            Placement(good.frame, switch_ctrl, pairs, pair_ctrl), algorithm="forged"
        )
        report = validate_solution(tiny_instance, bad, enforce_delay=False)
        assert [v.constraint for v in report.violations] == [constraint]
        with pytest.raises(SolutionError):
            verify_solution(tiny_instance, bad)
        assert feasible_point(tiny_instance, bad) is None
        assert bad.positions() is not None


class TestPickle:
    @pytest.mark.parametrize("algorithm", ["pm", "pg", "retroflow", "optimal"])
    def test_round_trip_is_the_dict_copy(self, att_context, algorithm):
        instance = att_context.instance(FailureScenario(frozenset({13})))
        solution = get_algorithm(algorithm)(instance)
        assert solution.positions() is not None
        twin = dict_copy(solution)
        blob = pickle.dumps(solution)
        assert solution.positions() is not None  # pickling reads no view
        assert b"InstanceArrays" not in blob and b"Frame" not in blob
        # The bytes of the dict-built solution holding the same dicts (a
        # set's pickle depends on its table layout, so a copied set may
        # pickle a few bytes longer or shorter).
        assert blob == pickle.dumps(copy.copy(solution))
        clone = pickle.loads(blob)
        assert clone.positions() is None
        assert clone == twin

    def test_evaluation_round_trip(self, att_context):
        instance = att_context.instance(FailureScenario(frozenset({13, 20})))
        [evaluation] = evaluate_batch(instance, [get_algorithm("pg")(instance)])
        blob = pickle.dumps(evaluation)
        assert b"Frame" not in blob and evaluation.positions() is not None
        clone = pickle.loads(blob)
        assert_same_evaluation(clone, evaluation)
        assert clone._recoverable_set == frozenset(instance.recoverable_flows)


class TestLoadOverrideNamesKnownControllers:
    """Verification and validation agree: an override entry for a
    controller outside the instance is a capacity violation."""

    def solution(self):
        return RecoverySolution(
            algorithm="t",
            mapping={1: 100},
            sdn_pairs={(1, (10, 11))},
            load_override={100: 1, 999: 1},
        )

    def test_verify_rejects(self, tiny_instance):
        with pytest.raises(SolutionError, match="load override names non-active controller 999"):
            evaluate_solution(tiny_instance, self.solution(), verify=True)

    def test_validate_reports(self, tiny_instance):
        report = validate_solution(tiny_instance, self.solution())
        assert [v.constraint for v in report.violations] == ["eq3-capacity"]
        assert "999" in report.violations[0].message


class TestRequestsStayPositional:
    def test_wan_request_builds_no_lookup_dict(self):
        context = wan72_context()
        scenario = next(iter(enumerate_failure_scenarios(context.plane, 2)))
        result = run_scenario(context, scenario, ("pm",))
        frame = result.solutions["pm"].positions().frame
        assert "pair_index" not in frame.__dict__ and "flow_pos" not in frame.__dict__
        # Nor the network frame or a map onto it: a one-off request keeps
        # its result on the instance's frame.
        assert context._grounding._frame is None and frame.view_rank is None
        assert result.solutions["pm"].positions().frame is frame
        assert result.evaluations["pm"].positions().frame is frame

    def test_att_paper_algorithms(self, att_context):
        scenario = FailureScenario(frozenset({6}))
        result = run_scenario(att_context, scenario, ("optimal", "retroflow", "pg", "pm", "nearest"))
        frame = att_context.instance(scenario).arrays().frame
        assert "pair_index" not in frame.__dict__ and "flow_pos" not in frame.__dict__
        assert all(s.positions() is not None for s in result.solutions.values())

    def test_store_record_from_positions(self, att_context):
        scenario = FailureScenario(frozenset({13, 20}))
        result = run_scenario(att_context, scenario, ("pm", "pg", "retroflow"))
        for name, solution in result.solutions.items():
            evaluation = result.evaluations[name]
            record = encode_result(att_context, solution, evaluation)
            assert solution.positions() is not None and evaluation.positions() is not None
            twin = copy.copy(evaluation)  # the dict form of the same evaluation
            assert twin.positions() is None
            assert encode_result(att_context, dict_copy(solution), twin) == record
