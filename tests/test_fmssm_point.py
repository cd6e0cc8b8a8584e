"""The positional seed check against the compiled form, and the exact
solve that certifies without compiling.

:func:`repro.fmssm.point.feasible_point` claims to apply exactly the
constraints of the compiled standard form.  The differential tests
compare it with the form itself: the solution is embedded by an
independent dict walk (the form's column layout, no feasibility logic)
and judged by :meth:`CompiledFMSSM.is_feasible_point`'s sparse row
products.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import custom_context
from repro.flows.demands import all_pairs_flows
from repro.flows.paths import switch_flow_counts
from repro.fmssm.optimal import _full_fill_seed, solve_optimal
from repro.fmssm.point import feasible_point
from repro.fmssm.solution import RecoverySolution
from repro.perf.compile import compile_fmssm
from repro.pm import solve_pm
from repro.topology.generators import waxman_topology
from repro.topology.partition import nearest_site_partition
from conftest import make_tiny_instance
from test_fmssm_optimal import ring_context
from test_property_fmssm import tiny_instances

#: (require_full_recovery, enforce_delay) combinations the form compiles.
FLAGS = [(True, True), (False, True), (True, False), (False, False)]

#: An id no instance uses, for switches, controllers and flows alike.
UNKNOWN = -424242


def reference_embed(compiled, instance, solution):
    """``solution`` as a vector of the compiled form, by a dict walk.

    No constraint is checked here: ``None`` only when an id has no
    column (an unknown switch, controller or pair).
    """
    if not solution.feasible:
        return None
    arrays = instance.arrays()
    m = len(arrays.controllers)
    x = np.zeros(compiled.form.n_vars)
    for switch, controller in solution.mapping.items():
        s = arrays.switch_pos.get(switch)
        c = arrays.controller_pos.get(controller)
        if s is None or c is None:
            return None
        x[s * m + c] = 1.0
    pro = {flow: 0.0 for flow in instance.recoverable_flows}
    for switch, flow in solution.active_pairs():
        k = arrays.pair_index.get((switch, flow))
        c = arrays.controller_pos.get(solution.controller_for_pair(switch, flow))
        if k is None or c is None:
            return None
        y = compiled.n_x + k * (m + 1)
        x[y] = 1.0
        x[y + 1 + c] = 1.0
        pro[flow] += float(arrays.pair_pbar[k])
    if pro:
        x[compiled.r_col] = min(float(compiled.form.ub[compiled.r_col]), min(pro.values()))
    return x


def assert_check_matches_form(instance, solution, full, delay):
    """The positional check accepts exactly when the compiled form does,
    and its point, objective and answer are the form's.  Returns the
    verdict."""
    compiled = compile_fmssm(instance, require_full_recovery=full, enforce_delay=delay)
    point = feasible_point(instance, solution, full, delay)
    x = reference_embed(compiled, instance, solution)
    accepted = x is not None and compiled.is_feasible_point(x)
    assert (point is not None) == accepted
    embedded = compiled.embed_solution(solution)
    assert (embedded is not None) == accepted
    if accepted:
        np.testing.assert_array_equal(embedded, x)
        assert abs(point.objective - compiled.objective_value(x)) <= 1e-12
        placement = compiled.extract(x)
        np.testing.assert_array_equal(placement.switch_ctrl, point.switch_ctrl)
        np.testing.assert_array_equal(placement.pairs, point.pairs)
        np.testing.assert_array_equal(placement.pair_ctrl, point.pair_ctrl)
        assert list(point.mapping().items()) == list(placement.mapping().items())
        assert point.sdn_pairs() == placement.sdn_pairs()
    return accepted


def _with(solution, **changes):
    return dataclasses.replace(solution, **changes)


def perturbations(instance, base):
    """Points near ``base`` that each break one constraint of P′.

    Yields ``(name, solution, always_rejected)``: the last is true where
    the construction guarantees a violation under every flag setting.
    """
    controllers = instance.controllers
    active = base.active_pairs()
    if active and len(controllers) > 1:
        pair = active[0]
        other = next(c for c in controllers if c != base.mapping[pair[0]])
        yield "moved-pair", _with(base, pair_controller={pair: other}), True

    tightest = min(controllers, key=lambda c: (instance.spare[c], c))
    overflow = _with(
        base,
        mapping={s: tightest for s in instance.switches},
        sdn_pairs=set(instance.pairs),
    )
    yield "overflow", overflow, len(instance.pairs) > instance.spare[tightest]

    # Move mapped switches to their farthest controller until Σ delay > G.
    mapping = dict(base.mapping)
    far = _with(base, mapping=mapping)
    for switch in list(mapping):
        mapping[switch] = max(controllers, key=lambda c: (instance.delay[(switch, c)], c))
        delay = sum(instance.delay[(s, mapping[s])] for s, _ in far.active_pairs())
        if delay > instance.ideal_delay_ms:
            break
    yield "delay", far, False

    yield "unknown-switch", _with(
        base, mapping={**base.mapping, UNKNOWN: controllers[0]}
    ), True
    if base.mapping:
        switch = next(iter(base.mapping))
        yield "unknown-controller", _with(
            base, mapping={**base.mapping, switch: UNKNOWN}
        ), True
        yield "unknown-pair", _with(
            base, sdn_pairs=base.sdn_pairs | {(switch, (UNKNOWN, UNKNOWN))}
        ), True

    if instance.pairs:
        pair = instance.pairs[0]
        yield "unmapped-pair", _with(
            base,
            mapping={s: c for s, c in base.mapping.items() if s != pair[0]},
            sdn_pairs=base.sdn_pairs | {pair},
            pair_controller={pair: controllers[0]},
        ), True


def assert_all_points_match(instance):
    seeds = [
        solve_pm(instance),
        solve_pm(instance, enforce_delay=True),
        _full_fill_seed(instance),
        RecoverySolution(algorithm="empty"),
        RecoverySolution(algorithm="none", feasible=False),
    ]
    seeds = [s for s in seeds if s is not None]
    for full, delay in FLAGS:
        for seed in seeds:
            assert_check_matches_form(instance, seed, full, delay)
        for name, point, always_rejected in perturbations(instance, seeds[1]):
            accepted = assert_check_matches_form(instance, point, full, delay)
            assert not (accepted and always_rejected), name


class TestPositionalCheckMatchesForm:
    def test_tiny_instance(self, tiny_instance):
        assert_all_points_match(tiny_instance)

    @pytest.mark.parametrize(
        "ideal_delay_ms, accepted",
        [(6.0, True), (6.0 - 0.5e-6, True), (6.0 - 2e-6, False)],
    )
    def test_delay_bound_has_the_forms_slack(self, ideal_delay_ms, accepted):
        """Every pair served at 6 ms of delay in total, against G at and
        just below 6: the 1e-6 slack of the form's rows holds here too."""
        instance = make_tiny_instance(ideal_delay_ms=ideal_delay_ms)
        solution = RecoverySolution(
            algorithm="hand", mapping={1: 100, 2: 200}, sdn_pairs=set(instance.pairs)
        )
        assert assert_check_matches_form(instance, solution, True, True) is accepted

    @pytest.mark.parametrize("n_failures", [1, 2])
    def test_att(self, att_context, n_failures):
        for scenario in enumerate_failure_scenarios(att_context.plane, n_failures):
            assert_all_points_match(att_context.instance(scenario))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tiny_instances())
    def test_tiny_instances(self, instance):
        assert_all_points_match(instance)


class _Compiled(Exception):
    """Raised by the patched compiler: the solve reached it."""


@pytest.fixture
def no_compile(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Compiled

    monkeypatch.setattr("repro.perf.compile.compile_fmssm", refuse)


def route(instance):
    """``"compiled"`` when the solve reaches the compiler, else the solution."""
    try:
        return solve_optimal(instance, time_limit_s=60.0)
    except _Compiled:
        return "compiled"


def waxman40_context():
    """The n=40 Waxman WAN of the scalability benchmark: 5 controllers,
    capacity 1.5× the worst nearest-site partition's flow count."""
    topology = waxman_topology(40, alpha=0.6, beta=0.35, seed=1)
    sites = topology.nodes[:5]
    gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
    worst = max(
        sum(gamma[s] for s in members)
        for members in nearest_site_partition(topology, sites).values()
    )
    return custom_context(topology, controller_sites=sites, capacity=int(worst * 1.5))


class TestCertifiedSolveNeverCompiles:
    def test_att_single_failures(self, att_context, no_compile):
        seeds = {}
        for scenario in enumerate_failure_scenarios(att_context.plane, 1):
            solution = route(att_context.instance(scenario))
            assert solution != "compiled", scenario
            assert solution.feasible and solution.meta["solver"] == "precert"
            assert solution.meta["certificate"] is True
            assert solution.meta["objective"] == 2.5
            seeds[tuple(sorted(scenario.failed))] = solution.meta["seed"]
        assert seeds == {
            (2,): "pm", (5,): "pm", (6,): "fill", (13,): "pm", (20,): "pm", (22,): "pm"
        }

    def test_att_two_failures(self, att_context, no_compile):
        """11 of 15 certify; exactly the four misses reach the compiler."""
        compiled = []
        for scenario in enumerate_failure_scenarios(att_context.plane, 2):
            solution = route(att_context.instance(scenario))
            if solution == "compiled":
                compiled.append(tuple(sorted(scenario.failed)))
                continue
            assert solution.feasible and solution.meta["solver"] == "precert"
            assert solution.meta["objective"] == 2.5
        assert sorted(compiled) == [(5, 6), (5, 20), (6, 20), (13, 20)]

    def test_waxman40_two_failures(self, no_compile):
        context = waxman40_context()
        solutions = [
            route(context.instance(s))
            for s in enumerate_failure_scenarios(context.plane, 2)
        ]
        assert len(solutions) == 10
        for solution in solutions:
            assert solution != "compiled"
            assert solution.feasible and solution.meta["solver"] == "precert"
            assert solution.meta["objective"] == 2.5

    def test_certificate_miss_reaches_the_compiler(self, no_compile):
        instance = ring_context(135).instance(FailureScenario(frozenset({0, 3})))
        assert route(instance) == "compiled"

    def test_cold_solve_reaches_the_compiler(self, att_context, no_compile):
        instance = att_context.instance(FailureScenario(frozenset({13})))
        with pytest.raises(_Compiled):
            solve_optimal(instance, warm_start=None)
