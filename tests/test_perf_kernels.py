"""Equivalence tests for the vectorized heuristic kernels.

The contract (DESIGN.md §10): every non-exact public solver runs an
array kernel that must produce a solution *bit-identical* to its
reference — :class:`~repro.pm.algorithm.ProgrammabilityMedic` for PM,
the private ``_solve_*_reference`` functions for the baselines — same
``mapping``, ``sdn_pairs``, ``pair_controller`` and accounting, hence
the same objective, on any instance.  The array kernel is not
"approximately the same heuristic"; it is the same algorithm with the
same tie-breaking, expressed over dense views.

Four layers of evidence:

* a seeded ATT scenario matrix (every 1-failure case plus sampled 2-
  and 3-failure cases) over every solver variant, PM's phase-1-only
  variants included;
* a synthetic Waxman matrix with a different controller placement
  (every 1-failure case plus sampled 2-failure cases);
* the hand-built ``tiny_instance``;
* hypothesis properties over (a) random end-to-end contexts and (b)
  hand-built tie-heavy instances whose small integer delays force the
  tie-break paths, plus ``evaluate_batch`` ≡ per-solution
  ``evaluate_solution``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.baselines.nearest import _solve_nearest_reference, solve_nearest
from repro.baselines.pg import _solve_pg_reference, solve_pg
from repro.baselines.retroflow import _solve_retroflow_reference, solve_retroflow
from repro.control.failures import (
    FailureScenario,
    enumerate_failure_scenarios,
    sample_failure_scenarios,
)
from repro.experiments.scenarios import custom_context
from repro.flows.flow import Flow
from repro.fmssm.evaluation import evaluate_batch, evaluate_solution
from repro.fmssm.instance import FMSSMInstance
from repro.perf.kernels import _flow_bits, instance_arrays, prepare_instance
from repro.pm.algorithm import ProgrammabilityMedic, solve_pm
from repro.topology.generators import waxman_topology

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _pm_variant(phase2_order: str, enforce_delay: bool, phase2: bool = True):
    options = dict(
        phase2_order=phase2_order, enforce_delay=enforce_delay, phase2=phase2
    )

    def array(instance):
        return solve_pm(instance, **options)

    def reference(instance):
        return ProgrammabilityMedic(instance, **options).run()

    return array, reference


#: Every solver variant: (id, (array entry, reference)).
SOLVERS = (
    ("pm", _pm_variant("paper", False)),
    ("pm-greedy", _pm_variant("greedy", False)),
    ("pm-strict", _pm_variant("paper", True)),
    ("pm-strict-greedy", _pm_variant("greedy", True)),
    ("pm-phase1", _pm_variant("paper", False, phase2=False)),
    ("pm-greedy-phase1", _pm_variant("greedy", False, phase2=False)),
    ("pm-strict-phase1", _pm_variant("paper", True, phase2=False)),
    ("pm-strict-greedy-phase1", _pm_variant("greedy", True, phase2=False)),
    ("pg", (solve_pg, _solve_pg_reference)),
    ("retroflow", (solve_retroflow, _solve_retroflow_reference)),
    ("nearest", (solve_nearest, _solve_nearest_reference)),
)
SOLVER_IDS = tuple(name for name, _ in SOLVERS)
ARRAY_SOLVERS = tuple(array for _, (array, _) in SOLVERS)


def assert_same_solution(array_solution, dict_solution):
    """Bit-identical on every answer-bearing field (``meta`` is free-form)."""
    assert array_solution.algorithm == dict_solution.algorithm
    assert array_solution.feasible == dict_solution.feasible
    assert array_solution.mapping == dict_solution.mapping
    assert array_solution.sdn_pairs == dict_solution.sdn_pairs
    assert array_solution.pair_controller == dict_solution.pair_controller
    assert array_solution.load_override == dict_solution.load_override
    assert array_solution.extra_overhead_ms == dict_solution.extra_overhead_ms


def assert_same_evaluation(a, b):
    """Identical metrics; ``solve_time_s`` is a wall clock and excluded."""
    assert a.algorithm == b.algorithm
    assert a.feasible == b.feasible
    assert a.programmability == b.programmability
    assert a.least_programmability == b.least_programmability
    assert a.total_programmability == b.total_programmability
    assert a.recovered_flows == b.recovered_flows
    assert a.recoverable_flows == b.recoverable_flows
    assert a.offline_flows == b.offline_flows
    assert a.recovered_switches == b.recovered_switches
    assert a.offline_switches == b.offline_switches
    assert a.controller_load == b.controller_load
    assert a.total_delay_ms == b.total_delay_ms
    assert a.ideal_delay_ms == b.ideal_delay_ms
    assert a.per_flow_overhead_ms == b.per_flow_overhead_ms
    assert a.objective == b.objective


def _assert_routes_agree(instance, solver):
    array, reference = solver
    array_solution = array(instance)
    reference_solution = reference(instance)
    assert_same_solution(array_solution, reference_solution)
    assert array_solution.meta.get("kernel") == "array"
    assert array_solution.meta.get("phase2") == reference_solution.meta.get("phase2")
    assert_same_evaluation(
        evaluate_solution(instance, array_solution),
        evaluate_solution(instance, reference_solution),
    )


def _matrix_scenarios(plane):
    scenarios = list(enumerate_failure_scenarios(plane, 1))
    scenarios += list(sample_failure_scenarios(plane, 2, 6, seed=11))
    scenarios += list(sample_failure_scenarios(plane, 3, 4, seed=23))
    return scenarios


class TestKernelRouting:
    """Every kernel reads one cached array view per instance."""

    def test_prepare_instance_returns_cached_view(self, tiny_instance):
        arrays = prepare_instance(tiny_instance)
        assert prepare_instance(tiny_instance) is arrays
        assert instance_arrays(tiny_instance) is arrays
        assert "seq_lists" in arrays.cache


class TestAttMatrix:
    """Seeded ATT failure matrix: array ≡ reference on every variant."""

    @pytest.mark.parametrize(("name", "solver"), SOLVERS, ids=SOLVER_IDS)
    def test_array_matches_dict(self, att_context, name, solver):
        for scenario in _matrix_scenarios(att_context.plane):
            _assert_routes_agree(att_context.instance(scenario), solver)


class TestSyntheticMatrix:
    """Waxman topology with a different placement than ATT's."""

    @pytest.fixture(scope="class")
    def synthetic_context(self):
        topology = waxman_topology(24, alpha=0.6, beta=0.35, seed=5)
        return custom_context(
            topology, controller_sites=(0, 5, 11, 17), capacity=900
        )

    @pytest.mark.parametrize(("name", "solver"), SOLVERS, ids=SOLVER_IDS)
    def test_array_matches_dict(self, synthetic_context, name, solver):
        plane = synthetic_context.plane
        scenarios = list(enumerate_failure_scenarios(plane, 1))
        scenarios += list(sample_failure_scenarios(plane, 2, 3, seed=7))
        for scenario in scenarios:
            _assert_routes_agree(synthetic_context.instance(scenario), solver)


@pytest.mark.parametrize(("name", "solver"), SOLVERS, ids=SOLVER_IDS)
def test_array_matches_reference_on_tiny_instance(tiny_instance, name, solver):
    _assert_routes_agree(tiny_instance, solver)


class TracedMedic(ProgrammabilityMedic):
    """The reference PM, recording each phase-1 pass's ``sigma`` and the
    phase-1 activations it refuses on the delay budget."""

    def run(self):
        self.pass_sigmas, self.delay_skips, self._in_phase1 = [], 0, False
        return super().run()

    def _select_switch(self, untested, sigma):
        if len(untested) == len(self._instance.switches):
            self.pass_sigmas.append(sigma)
        return super()._select_switch(untested, sigma)

    def _recover_at(self, switch, controller, sigma):
        self._in_phase1 = True
        super()._recover_at(switch, controller, sigma)
        self._in_phase1 = False

    def _charge_delay(self, switch, controller):
        charged = super()._charge_delay(switch, controller)
        if self._in_phase1 and not charged:
            self.delay_skips += 1
        return charged


def candidate_instance() -> FMSSMInstance:
    """Four switches, two controllers, two flows: PM's phase 1 advances
    sigma twice (0 → 3 → 5), then ends a pass with a flow still at
    sigma (a controller's budget is spent), and under the delay bound
    refuses candidates on the delay budget."""
    f, g = (200, 300), (201, 301)
    switches, controllers = (0, 1, 2, 3), (100, 101)
    delay = {
        (0, 100): 3.0, (0, 101): 3.0, (1, 100): 2.0, (1, 101): 1.0,
        (2, 100): 1.0, (2, 101): 3.0, (3, 100): 3.0, (3, 101): 2.0,
    }
    return FMSSMInstance(
        switches=switches,
        controllers=controllers,
        spare={100: 6, 101: 2},
        delay=delay,
        flows={flow: Flow(src=flow[0], dst=flow[1], path=flow) for flow in (f, g)},
        pbar={(0, g): 2, (1, g): 3, (2, f): 3, (2, g): 3, (3, f): 2, (3, g): 2},
        gamma={0: 1, 1: 2, 2: 2, 3: 2},
        ideal_delay_ms=7.0,
        lam=0.001,
        nearest={s: min(controllers, key=lambda c: (delay[(s, c)], c)) for s in switches},
    )


class TestCandidateLists:
    """PM's phase 1 flips only the pairs that can flip at sigma."""

    def test_instance_drives_every_candidate_path(self):
        instance = candidate_instance()
        plain = TracedMedic(instance, phase2=False)
        plain.run()
        assert plain.pass_sigmas == [0, 3, 5, 5]
        assert min(plain._available.values()) == 0
        strict = TracedMedic(instance, enforce_delay=True)
        strict.run()
        assert len(set(strict.pass_sigmas)) >= 2
        assert strict.delay_skips > 0

    @pytest.mark.parametrize(("name", "solver"), SOLVERS[:8], ids=SOLVER_IDS[:8])
    def test_array_matches_reference(self, name, solver):
        _assert_routes_agree(candidate_instance(), solver)

    def test_lazy_greedy_reevaluates_few_counts(self):
        # Each heap-top examination reads one switch's flow set: a pick,
        # a stale count pushed back down, or the pass's closing zero.
        # On this solve that is ~1.5 reads per switch and pass; an
        # argmax rescan per pick reads ~n/2 per switch and pass.
        from test_grounding_index import wan72_context

        class CountingList(list):
            reads = 0

            def __getitem__(self, index):
                CountingList.reads += 1
                return list.__getitem__(self, index)

        instance = wan72_context().instance(FailureScenario(frozenset({2, 3, 6})))
        arrays = prepare_instance(instance)
        flows, *rest = _flow_bits(arrays)
        arrays.cache["flow_bits"] = (CountingList(flows), *rest)
        solve_pm(instance)
        passes = instance.total_iterations
        assert passes >= 2
        assert 0 < CountingList.reads <= 2 * len(arrays.switches) * passes


@st.composite
def recovery_instances(draw):
    """Random end-to-end SD-WAN instances (topology → plane → failure)."""
    n = draw(st.integers(min_value=6, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=30))
    topology = waxman_topology(n, alpha=0.7, beta=0.4, seed=seed)
    nodes = topology.nodes
    n_sites = draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    sites = nodes[:n_sites]
    capacity = draw(st.integers(min_value=40, max_value=400))
    try:
        context = custom_context(topology, controller_sites=sites, capacity=capacity)
        context.plane.spare_capacity(context.flows)
    except Exception:
        # Mis-provisioned draw (capacity below baseline load): skip.
        assume(False)
    failed = draw(st.sampled_from(sites))
    return context.instance(FailureScenario(frozenset({failed})))


@st.composite
def tie_heavy_instances(draw):
    """Hand-built instances with tiny integer delays that force ties.

    Random topologies rarely produce equal geodesic delays; the
    tie-break rules in the kernels (lowest switch id, lowest controller
    id, first-in-``pairs``-order) only get exercised when keys collide.
    Delays drawn from {1, 2, 3} and small spares guarantee collisions
    on every code path, including budget-exhaustion mid-scan.
    """
    n_switches = draw(st.integers(min_value=2, max_value=5))
    n_controllers = draw(st.integers(min_value=2, max_value=3))
    switches = tuple(range(n_switches))
    controllers = tuple(range(100, 100 + n_controllers))
    delay = {
        (s, c): float(draw(st.integers(min_value=1, max_value=3)))
        for s in switches
        for c in controllers
    }
    spare = {c: draw(st.integers(min_value=0, max_value=10)) for c in controllers}
    n_flows = draw(st.integers(min_value=1, max_value=6))
    flows = {}
    for index in range(n_flows):
        src, dst = 200 + index, 300 + index
        flows[(src, dst)] = Flow(src=src, dst=dst, path=(src, dst))
    pbar = {}
    for s in switches:
        for flow_id in flows:
            if draw(st.booleans()):
                pbar[(s, flow_id)] = draw(st.integers(min_value=2, max_value=4))
    gamma = {s: draw(st.integers(min_value=1, max_value=4)) for s in switches}
    nearest = {
        s: min(controllers, key=lambda c: (delay[(s, c)], c)) for s in switches
    }
    return FMSSMInstance(
        switches=switches,
        controllers=controllers,
        spare=spare,
        delay=delay,
        flows=flows,
        pbar=pbar,
        gamma=gamma,
        ideal_delay_ms=float(draw(st.integers(min_value=0, max_value=3))),
        lam=0.001,
        nearest=nearest,
    )


@st.composite
def bitset_edge_instances(draw):
    """Hand-built instances whose first PM pick drives every edge path
    of the bitset phase 1.

    Switches 0 and 1 both pair every flow, so the first pick is a heap
    tie that switch 0 wins, and switch 1's entry goes stale.  Every
    spare is at least 2 and below the flow count, so that pick's
    controller stops it after ``k`` flips, ``k`` below its popcount;
    the delay bound admits between one and ``k - 1`` of its strict
    additions.  Flows are inserted shuffled, so their positions are not
    their id order: a bit is a flow's rank, not its position.
    """
    n_flows = draw(st.integers(min_value=3, max_value=8))
    n_switches = draw(st.integers(min_value=2, max_value=5))
    n_controllers = draw(st.integers(min_value=2, max_value=3))
    switches = tuple(range(n_switches))
    controllers = tuple(range(100, 100 + n_controllers))
    delay = {
        (s, c): float(draw(st.integers(min_value=1, max_value=3)))
        for s in switches
        for c in controllers
    }
    spare = {c: draw(st.integers(min_value=2, max_value=n_flows - 1)) for c in controllers}
    order = draw(st.permutations(range(n_flows)))
    if order == sorted(order):
        order = order[::-1]
    flows = {}
    for index in order:
        src, dst = 200 + index, 300 + index
        flows[(src, dst)] = Flow(src=src, dst=dst, path=(src, dst))
    pbar = {}
    for s in switches:
        for flow_id in sorted(flows):
            if s < 2 or draw(st.booleans()):
                pbar[(s, flow_id)] = draw(st.integers(min_value=2, max_value=4))
    gamma = {s: draw(st.integers(min_value=1, max_value=4)) for s in switches}
    nearest = {s: min(controllers, key=lambda c: (delay[(s, c)], c)) for s in switches}
    # Switch 0's controller, as lines 17-28 pick it.
    first = next(
        (c for c in sorted(controllers, key=lambda c: (delay[(0, c)], c)) if spare[c] >= gamma[0]),
        max(controllers, key=lambda c: (spare[c], -c)),
    )
    fits = draw(st.integers(min_value=1, max_value=spare[first] - 1))
    return FMSSMInstance(
        switches=switches,
        controllers=controllers,
        spare=spare,
        delay=delay,
        flows=flows,
        pbar=pbar,
        gamma=gamma,
        ideal_delay_ms=delay[(0, first)] * fits + 0.5,
        lam=0.001,
        nearest=nearest,
    )


class TestBitsetEdgePaths:
    """PM's bitset phase 1 against the reference on its edge paths."""

    @SETTINGS
    @given(instance=bitset_edge_instances())
    def test_pm_matches_reference(self, instance):
        arrays = instance_arrays(instance)
        recoverable = arrays.recoverable_pos.tolist()
        assert recoverable != sorted(recoverable)
        for _, (array, reference) in SOLVERS[:8]:
            assert_same_solution(array(instance), reference(instance))
        rank = {flow_id: r for r, flow_id in enumerate(instance.recoverable_flows)}
        assert _flow_bits(arrays)[0] == [
            sum(1 << rank[flow_id] for flow_id in instance.pairs_at[s])
            for s in instance.switches
        ]
        # The paths were taken: switch 0 won the tie, and its pick was
        # cut short by the budget, and under the delay bound by that.
        plain = TracedMedic(instance, phase2=False)
        plain.run()
        first = plain._mapping[0]
        at_first = sum(1 for s, _ in plain._sdn_pairs if s == 0)
        assert at_first == instance.spare[first] < len(instance.flows)
        strict = TracedMedic(instance, enforce_delay=True, phase2=False)
        strict.run()
        assert strict._mapping[0] == first and strict.delay_skips > 0
        assert sum(1 for s, _ in strict._sdn_pairs if s == 0) < instance.spare[first]


class TestKernelProperties:
    @SETTINGS
    @given(instance=recovery_instances())
    def test_array_matches_dict_on_random_contexts(self, instance):
        for _, (array, reference) in SOLVERS:
            assert_same_solution(array(instance), reference(instance))

    @SETTINGS
    @given(instance=tie_heavy_instances())
    def test_array_matches_dict_on_tie_heavy_instances(self, instance):
        for _, (array, reference) in SOLVERS:
            assert_same_solution(array(instance), reference(instance))

    @SETTINGS
    @given(instance=recovery_instances())
    def test_objectives_match_across_routes(self, instance):
        array_solutions = [array(instance) for _, (array, _) in SOLVERS]
        reference_solutions = [reference(instance) for _, (_, reference) in SOLVERS]
        for a, d in zip(
            evaluate_batch(instance, array_solutions),
            evaluate_batch(instance, reference_solutions),
        ):
            assert_same_evaluation(a, d)

    @SETTINGS
    @given(instance=tie_heavy_instances())
    def test_evaluate_batch_matches_per_solution(self, instance):
        solutions = [array(instance) for array in ARRAY_SOLVERS]
        batch = evaluate_batch(instance, solutions)
        assert len(batch) == len(solutions)
        for solution, batched in zip(solutions, batch):
            assert_same_evaluation(batched, evaluate_solution(instance, solution))


class TestEvaluateBatchAtt:
    """``evaluate_batch`` ≡ per-solution evaluation on the paper's case."""

    def test_batch_matches_single(self, att_instance_13_20):
        instance = att_instance_13_20
        solutions = [array(instance) for array in ARRAY_SOLVERS]
        for solution, batched in zip(
            solutions, evaluate_batch(instance, solutions)
        ):
            assert_same_evaluation(batched, evaluate_solution(instance, solution))

    def test_batch_respects_verify_flag(self, att_instance_13_20):
        instance = att_instance_13_20
        solutions = [solve_pm(instance), solve_retroflow(instance)]
        unverified = evaluate_batch(instance, solutions, verify=False)
        verified = evaluate_batch(instance, solutions)
        for a, b in zip(unverified, verified):
            assert_same_evaluation(a, b)
