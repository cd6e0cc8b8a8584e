"""Differential tests for :class:`repro.fmssm.build.GroundingIndex`.

The index grounds a scenario from per-network arrays built once; the
references below are the per-scenario builder it replaced, which
rescans the whole flow population for every scenario and fills dicts,
and the dict → array conversion the kernels' arrays were once read back
through.  The grounded instance must match both: its dict views field
for field, including dict insertion order (PM's tie-breaks and the plan
digests depend on it), and its arrays column for column.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.control.delay import DelayModel, ideal_recovery_delay
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.exceptions import CapacityError, FlowError, ModelError, ScenarioError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ExperimentContext, custom_context, default_att_context
from repro.flows.demands import all_pairs_flows
from repro.flows.flow import Flow
from repro.flows.paths import switch_flow_counts
from repro.fmssm.build import GroundingIndex, build_instance, default_lambda
from repro.fmssm.evaluation import evaluate_batch
from repro.fmssm.instance import FMSSMInstance
from repro.pm.algorithm import solve_pm
from repro.topology.generators import grid_topology, waxman_topology
from repro.topology.partition import nearest_site_partition

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Constructor fields, then the views ``__post_init__`` derives from them.
FIELDS = (
    "switches",
    "controllers",
    "spare",
    "delay",
    "flows",
    "pbar",
    "gamma",
    "ideal_delay_ms",
    "lam",
    "nearest",
    "pairs_at",
    "pairs_of",
    "recoverable_flows",
    "_pairs",
    "_total_iterations",
)


def reference_build(plane, flows, programmability, scenario, delay_model=None, lam=None):
    """The per-scenario builder the index replaced: every scenario scans
    every flow for offline nodes, recounts spare and gamma over the full
    workload and asks ``programmability`` for each p̄."""
    scenario.validate(plane)
    delay_model = delay_model or DelayModel(plane.topology, mode="geodesic")
    offline_switches = scenario.offline_switches(plane)
    offline_set = set(offline_switches)
    active = scenario.active_controllers(plane)
    sites = {c: plane.controller(c).site for c in active}

    all_flows = list(flows)
    offline_flows = {}
    for flow in all_flows:
        if any(node in offline_set for node in flow.path):
            offline_flows[flow.flow_id] = flow
    spare_all = plane.spare_capacity(all_flows)
    gamma_all = switch_flow_counts(all_flows)
    gamma = {s: int(gamma_all.get(s, 0)) for s in offline_switches}
    pbar = {}
    for flow in offline_flows.values():
        for switch in flow.transit_switches:
            if switch not in offline_set:
                continue
            value = programmability.pbar(flow, switch)
            if value:
                pbar[(switch, flow.flow_id)] = value
    if lam is None:
        lam = default_lambda(sum(pbar.values()))
    return FMSSMInstance(
        switches=tuple(offline_switches),
        controllers=tuple(active),
        spare={c: spare_all[c] for c in active},
        delay=delay_model.matrix(offline_switches, sites),
        flows=offline_flows,
        pbar=pbar,
        gamma=gamma,
        ideal_delay_ms=ideal_recovery_delay(delay_model, offline_switches, sites, gamma),
        lam=lam,
        nearest={s: delay_model.nearest_controller(s, sites) for s in offline_switches},
    )


#: The dict fields a grounded instance builds only when read.
VIEWS = (
    "flows", "pbar", "delay", "gamma", "nearest", "pairs_at", "pairs_of", "recoverable_flows"
)
#: The columns grounding leaves to their first read (instance, arrays or frame).
LAZY = ("flow_ids", "flow_sorted", "flow_indptr", "pbar_desc", "recoverable_flows")


def reference_arrays(instance: FMSSMInstance) -> dict[str, object]:
    """The kernels' arrays read back from the instance's dict fields,
    entry by entry, with the list views of the sequential kernels.

    The columns the arrays build on first read (``flow_ids``,
    ``flow_sorted``, ``flow_indptr``, ``pbar_desc``) are compared too:
    reading them builds them."""
    switches, controllers = instance.switches, instance.controllers
    pairs = tuple(sorted(instance.pbar))
    flow_ids = tuple(instance.flows)
    n, m, n_flows, n_pairs = len(switches), len(controllers), len(flow_ids), len(pairs)
    switch_pos = {s: i for i, s in enumerate(switches)}
    flow_pos = {f: i for i, f in enumerate(flow_ids)}
    delay = np.fromiter(
        (instance.delay[(s, c)] for s in switches for c in controllers),
        dtype=np.float64,
        count=n * m,
    ).reshape(n, m)
    pair_switch = np.fromiter((switch_pos[s] for s, _ in pairs), dtype=np.int64, count=n_pairs)
    pair_flow = np.fromiter((flow_pos[f] for _, f in pairs), dtype=np.int64, count=n_pairs)
    pair_pbar = np.fromiter((instance.pbar[p] for p in pairs), dtype=np.int64, count=n_pairs)
    flow_pairs = np.fromiter(
        (len(instance.pairs_of[f]) for f in flow_ids), dtype=np.int64, count=n_flows
    )
    flow_sorted = np.lexsort((np.arange(n_pairs), -pair_pbar, pair_flow))
    flow_indptr = np.searchsorted(pair_flow[flow_sorted], np.arange(n_flows + 1))
    delay_order = np.argsort(delay, axis=1, kind="stable")
    switch_indptr = np.searchsorted(pair_switch, np.arange(n + 1))
    columns: dict[str, object] = {
        "switches": switches,
        "controllers": controllers,
        "flow_ids": flow_ids,
        "pairs": pairs,
        "switch_pos": switch_pos,
        "controller_pos": {c: j for j, c in enumerate(controllers)},
        "flow_pos": flow_pos,
        "pair_index": {pair: k for k, pair in enumerate(pairs)},
        "spare": np.fromiter((instance.spare[c] for c in controllers), dtype=np.int64, count=m),
        "gamma": np.fromiter((instance.gamma[s] for s in switches), dtype=np.int64, count=n),
        "delay": delay,
        "delay_order": delay_order,
        "pair_switch": pair_switch,
        "pair_flow": pair_flow,
        "pair_pbar": pair_pbar,
        "switch_indptr": switch_indptr,
        "n_flows": n_flows,
        "flow_pairs": flow_pairs,
        "flow_sorted": flow_sorted,
        "flow_indptr": flow_indptr,
        "flow_max_pro": np.bincount(pair_flow, weights=pair_pbar, minlength=n_flows).astype(
            np.int64
        ),
        "recoverable_pos": np.fromiter(
            (flow_pos[f] for f in instance.recoverable_flows), dtype=np.int64
        ),
        "pbar_desc": np.argsort(-pair_pbar, kind="stable"),
    }
    # Each flow's pair switches, ascending, for flows with two or more.
    by_flow: list[list[int]] = [[] for _ in range(n_flows)]
    for switch, flow_id in pairs:
        by_flow[flow_pos[flow_id]].append(switch_pos[switch])
    columns["seq_lists"] = (
        pair_flow.tolist(),
        pair_pbar.tolist(),
        switch_indptr.tolist(),
        [tuple(switches) if len(switches) >= 2 else None for switches in by_flow],
        delay_order.tolist(),
        columns["gamma"].tolist(),
        delay.tolist(),
    )
    return columns


def assert_same_arrays(expected: FMSSMInstance, actual: FMSSMInstance) -> None:
    """``actual`` arrived from grounding with the arrays and list views
    the dict conversion of ``expected`` gives."""
    arrays = actual.__dict__["_instance_arrays"]
    assert "seq_lists" in arrays.cache
    for name, want in reference_arrays(expected).items():
        got = arrays.cache["seq_lists"] if name == "seq_lists" else getattr(arrays, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        elif isinstance(want, dict):
            assert list(got.items()) == list(want.items()), name
        else:
            assert got == want, name
    assert actual.total_iterations == expected.total_iterations


def assert_same_instance(expected: FMSSMInstance, actual: FMSSMInstance) -> None:
    assert_same_arrays(expected, actual)
    for name in FIELDS:
        want, got = getattr(expected, name), getattr(actual, name)
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), name
        else:
            assert got == want, name


def scenarios_up_to(context: ExperimentContext, k: int) -> list[FailureScenario]:
    n = min(k, context.plane.n_controllers - 1)
    return [s for i in range(1, n + 1) for s in enumerate_failure_scenarios(context.plane, i)]


def model_backed(build) -> ExperimentContext:
    """A fresh context that grounds from the lazy model."""
    return build()


def materialized(build) -> ExperimentContext:
    """A fresh context whose index is filled before grounding."""
    context = build()
    context.materialize_table()
    return context


def unpickled(build) -> ExperimentContext:
    """A pickled copy of a materialized context, as pool workers get it
    (the copy carries no index and grounds from the model)."""
    return pickle.loads(pickle.dumps(materialized(build)))


SOURCES = (model_backed, materialized, unpickled)


def assert_grounds_like_reference(build, k: int = 3) -> None:
    reference = build()
    for source in SOURCES:
        context = source(build)
        for scenario in scenarios_up_to(reference, k):
            expected = reference_build(
                reference.plane,
                reference.flows,
                reference.programmability,
                scenario,
                delay_model=reference.delay_model,
            )
            assert_same_instance(expected, context.instance(scenario))


def mis_provisioned() -> ExperimentContext:
    """A network whose controllers cannot serve their own domains."""
    topology = waxman_topology(10, alpha=0.7, beta=0.4, seed=3)
    return custom_context(topology, controller_sites=topology.nodes[:3], capacity=1)


def wan72_context() -> ExperimentContext:
    """The 72-node Waxman WAN of ``benchmarks/bench_scalability.py``."""
    topology = waxman_topology(72, alpha=0.6, beta=0.35, seed=1)
    sites = topology.nodes[:9]
    gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
    worst = max(
        sum(gamma[s] for s in members)
        for members in nearest_site_partition(topology, sites).values()
    )
    return custom_context(topology, controller_sites=sites, capacity=int(worst * 1.5))


class TestMatchesReference:
    def test_att_one_to_three_failures(self):
        assert_grounds_like_reference(default_att_context)

    def test_wan72_one_to_three_failures(self):
        # One WAN serves all three sources: the reference and the
        # model-backed context read its model; the materialized context
        # shares its plane, flows and counter, and its unpickled copy
        # (what a pool worker grounds from) carries equal ones.
        context = wan72_context()
        materialized = ExperimentContext(
            topology=context.topology,
            flows=context.flows,
            plane=context.plane,
            programmability=context.programmability,
            delay_model=context.delay_model,
        )
        materialized.materialize_table()
        rebuilt = unpickled(lambda: materialized)
        for scenario in scenarios_up_to(context, 3):
            expected = reference_build(
                context.plane,
                context.flows,
                context.programmability,
                scenario,
                delay_model=context.delay_model,
            )
            for grounded in (context, materialized, rebuilt):
                assert_same_instance(expected, grounded.instance(scenario))

    def test_att_filled_index_grounds_like_the_model(self):
        context = default_att_context()
        scenario = FailureScenario(frozenset({2, 22}))
        from_model = build_instance(
            context.plane,
            context.flows,
            context.programmability,
            scenario,
            delay_model=context.delay_model,
        )
        from_index = context.materialize_table().ground(
            scenario, delay_model=context.delay_model
        )
        assert_same_instance(from_model, from_index)

    @SETTINGS
    @given(
        n=st.integers(min_value=8, max_value=16),
        seed=st.integers(min_value=0, max_value=50),
        controllers=st.integers(min_value=2, max_value=5),
        slack=st.sampled_from((1.0, 1.3, 2.0)),
    )
    def test_waxman_contexts(self, n, seed, controllers, slack):
        topology = waxman_topology(n, alpha=0.7, beta=0.4, seed=seed)
        sites = topology.nodes[:controllers]
        gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
        domains = nearest_site_partition(topology, sites)
        assume(len(domains) == controllers)
        worst = max(sum(gamma[s] for s in members) for members in domains.values())

        def build():
            return custom_context(
                topology, controller_sites=sites, capacity=int(worst * slack)
            )

        assert_grounds_like_reference(build)

    def test_explicit_delay_model_and_lambda(self, small_context):
        routed = DelayModel(small_context.topology, mode="routed")
        scenario = FailureScenario(frozenset({3}))
        args = (small_context.plane, small_context.flows, small_context.programmability)
        assert_same_instance(
            reference_build(*args, scenario, delay_model=routed, lam=0.125),
            build_instance(*args, scenario, delay_model=routed, lam=0.125),
        )

    def test_routed_delay_model_on_one_index(self):
        # One index serves both delay models: each keeps its own rows.
        context = default_att_context()
        routed = DelayModel(context.topology, mode="routed")
        index = GroundingIndex(context.plane, context.flows, context.programmability)
        args = (context.plane, context.flows, context.programmability)
        for scenario in scenarios_up_to(context, 2):
            for model in (routed, context.delay_model):
                assert_same_instance(
                    reference_build(*args, scenario, delay_model=model),
                    index.ground(scenario, delay_model=model),
                )


class TestLazyViews:
    def test_a_request_builds_no_dict_view(self):
        """PM, the three baselines, the evaluator and the exact solve —
        seed, bound, compile and validation — read the arrays only; (6)
        certifies without the MILP."""
        context = default_att_context()
        heuristics = ("pm", "retroflow", "pg", "nearest")
        for failed, algorithms in (({13, 20}, heuristics), ({6}, (*heuristics, "optimal"))):
            scenario = FailureScenario(frozenset(failed))
            instance = context.instance(scenario)
            assert not any(name in instance.__dict__ for name in VIEWS)
            result = run_scenario(context, scenario, algorithms)
            assert context.instance(scenario) is instance
            assert not any(name in instance.__dict__ for name in VIEWS)
            assert instance.n_flows == len(instance.arrays().flow_ids)
            for name in VIEWS:
                assert getattr(instance, name) is getattr(instance, name)  # built once
        assert result.solutions["optimal"].meta["solver"] == "precert"

    def test_a_wan_request_builds_no_lazy_column(self):
        # Grounding, PM and the evaluator read neither the flow ids nor
        # the flow-major and p̄-descending orders.
        context = wan72_context()
        scenario = next(iter(enumerate_failure_scenarios(context.plane, 2)))
        instance = context.instance(scenario)
        evaluate_batch(instance, [solve_pm(instance)])
        arrays = instance.arrays()
        for name in LAZY:
            assert name not in instance.__dict__, name
            assert name not in arrays.__dict__, name
            assert name not in arrays.frame.__dict__, name

    @pytest.mark.parametrize("source", ("att", "wan", "hand-built"))
    def test_lazy_columns_equal_their_eager_definitions(self, source, tiny_instance):
        if source == "hand-built":
            instance, flow_ids = tiny_instance, tuple(tiny_instance.flows)
        else:
            context = default_att_context() if source == "att" else wan72_context()
            scenario = FailureScenario(frozenset(context.plane.controller_ids[:2]))
            instance = context.instance(scenario)
            offline = set(scenario.offline_switches(context.plane))
            flow_ids = tuple(
                flow.flow_id for flow in context.flows if offline.intersection(flow.path)
            )
        arrays = instance.arrays()
        pair_flow, pair_pbar, n_pairs = arrays.pair_flow, arrays.pair_pbar, arrays.n_pairs
        flow_sorted = np.lexsort((np.arange(n_pairs), -pair_pbar, pair_flow))
        eager = {
            "flow_sorted": flow_sorted,
            "flow_indptr": np.searchsorted(
                pair_flow[flow_sorted], np.arange(len(flow_ids) + 1)
            ),
            "pbar_desc": np.argsort(-pair_pbar, kind="stable"),
        }
        for name, want in eager.items():
            got = getattr(arrays, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert getattr(arrays, name) is got, name  # built once
        assert arrays.flow_ids == flow_ids and arrays.n_flows == len(flow_ids)
        assert arrays.flow_ids is arrays.frame.flow_ids
        assert instance.recoverable_flows == tuple(
            sorted(f for f, switches in instance.pairs_of.items() if switches)
        )
        assert instance.recoverable_flows == tuple(
            map(flow_ids.__getitem__, arrays.recoverable_pos.tolist())
        )

    def test_pickled_instance_carries_views_not_the_population(self, small_context):
        instance = small_context.instance(FailureScenario(frozenset({0, 7})))
        clone = pickle.loads(pickle.dumps(instance))
        assert "_flow_source" not in clone.__dict__
        assert clone == instance
        assert_same_arrays(instance, clone)


class CountingSource:
    """The model's p̄, counting every (switch, flow) pair read."""

    def __init__(self, model) -> None:
        self._model = model
        self.reads = 0

    def pbar_toward(self, switch, destinations):
        self.reads += len(destinations)
        return self._model.pbar_toward(switch, destinations)


class TestFill:
    def test_entries_match_a_scan_of_the_model(self):
        # Per switch: exactly the flows with beta = 1 there (the paper's
        # line-7 set), in flow-id order, with their path position and p̄.
        grid = grid_topology(3, 3)
        context = custom_context(grid, controller_sites=(0, 8), capacity=200)
        model = context.programmability
        index = context.materialize_table()
        by_id = sorted(range(len(context.flows)), key=lambda i: context.flows[i].flow_id)
        for switch in grid.nodes:
            table, keys = index._switch_entries(index._codes[switch])
            expected = [
                (i, context.flows[i].path.index(switch), model.pbar(context.flows[i], switch))
                for i in by_id
                if model.beta(context.flows[i], switch)
            ]
            assert table.T.tolist() == [list(row) for row in expected], switch
            assert keys == tuple((switch, context.flows[i].flow_id) for i, _, _ in expected)

    def test_pbar_entries_match_the_model(self):
        # Every switch on every path: the index's p̄ for the flow there,
        # or 0 where the switch holds no entry for it, is the model's p̄.
        grid = grid_topology(3, 3)
        context = custom_context(grid, controller_sites=(0, 8), capacity=200)
        model = context.programmability
        index = context.materialize_table()
        held = {}
        for switch in grid.nodes:
            table, _ = index._switch_entries(index._codes[switch])
            held[switch] = {i: pbar for i, _, pbar in table.T.tolist()}
        for i, flow in enumerate(context.flows):
            for switch in flow.path:
                assert held[switch].get(i, 0) == model.pbar(flow, switch), (flow, switch)

    def test_materialize_table_returns_the_filled_index(self):
        # Filling reads no spare capacity: a mis-provisioned plane still
        # materializes, and raises only when a scenario is grounded.
        context = mis_provisioned()
        index = context.materialize_table()
        assert index is context.materialize_table() is context._grounding
        assert all(entries is not None for entries in index._entries)
        assert index._spare is None
        with pytest.raises(CapacityError):
            context.instance(FailureScenario(frozenset({context.plane.controller_ids[0]})))

    def test_a_filled_index_reads_no_more_pbar(self):
        context = default_att_context()
        source = CountingSource(context.programmability)
        index = GroundingIndex(context.plane, context.flows, source).fill()
        reads = source.reads
        assert reads > 0
        for scenario in scenarios_up_to(context, 2):
            assert_same_instance(context.instance(scenario), index.ground(scenario))
        assert source.reads == reads


class OneAtEveryPair:
    """A programmability source that reports p̄ = 1 wherever the model
    has a programmable pair — a value no instance may hold."""

    def __init__(self, model) -> None:
        self._model = model

    def pbar(self, flow, switch) -> int:
        return 1 if self._model.pbar(flow, switch) else 0

    def pbar_toward(self, switch, destinations):
        return np.minimum(self._model.pbar_toward(switch, destinations), 1)


class TestErrors:
    def test_capacity_error_on_first_grounding(self):
        context = mis_provisioned()
        index = GroundingIndex(context.plane, context.flows, context.programmability)
        scenario = FailureScenario(frozenset({context.plane.controller_ids[0]}))
        with pytest.raises(CapacityError):
            index.ground(scenario)
        with pytest.raises(CapacityError):
            context.instance(scenario)

    def test_scenario_error_before_capacity_error(self):
        context = mis_provisioned()
        with pytest.raises(ScenarioError):
            context.instance(FailureScenario(frozenset({999})))

    def test_unknown_controller(self, small_context):
        with pytest.raises(ScenarioError):
            small_context.instance(FailureScenario(frozenset({999})))

    def test_all_controllers_failed(self, small_context):
        everyone = FailureScenario(frozenset(small_context.plane.controller_ids))
        with pytest.raises(ScenarioError):
            small_context.instance(everyone)

    def test_validates_scenario_once(self, small_context, monkeypatch):
        index = GroundingIndex(
            small_context.plane, small_context.flows, small_context.programmability
        )
        calls = []
        validate = FailureScenario.validate

        def counting(self, plane):
            calls.append(self)
            validate(self, plane)

        monkeypatch.setattr(FailureScenario, "validate", counting)
        index.ground(FailureScenario(frozenset({3, 7})))
        assert len(calls) == 1

    def test_pbar_below_two_raises_like_the_dict_route(self):
        # Every pair is bad, so the message also pins which pair each
        # route reports first: the first in flow-major path order.
        context = default_att_context()
        source = OneAtEveryPair(context.programmability)
        scenario = FailureScenario(frozenset({13, 20}))
        with pytest.raises(ModelError, match="pbar must be >= 2") as dict_route:
            reference_build(context.plane, context.flows, source, scenario)
        index = GroundingIndex(context.plane, context.flows, source)
        with pytest.raises(ModelError) as array_route:
            index.ground(scenario)
        assert str(array_route.value) == str(dict_route.value)

    def test_duplicate_flow_ids_rejected(self, small_context):
        flows = [*small_context.flows, small_context.flows[0]]
        with pytest.raises(FlowError):
            GroundingIndex(small_context.plane, flows, small_context.programmability)

    def test_path_outside_the_topology_rejected(self, small_context):
        # Node codes are topology positions, which the counter's rows use.
        flows = [*small_context.flows, Flow(0, 999, (0, 999))]
        with pytest.raises(FlowError, match="999"):
            GroundingIndex(small_context.plane, flows, small_context.programmability)

    def test_equal_flows_rejected_as_duplicates(self):
        # Two distinct but equal Flow objects share one id.
        context = custom_context(grid_topology(2, 2), controller_sites=(0,), capacity=50)
        flows = [Flow(0, 1, (0, 1)), Flow(0, 1, (0, 1))]
        with pytest.raises(FlowError, match="duplicate"):
            GroundingIndex(context.plane, flows, context.programmability)


class TestPickle:
    def grounded(self) -> tuple[ExperimentContext, list[FailureScenario]]:
        topology = waxman_topology(12, alpha=0.7, beta=0.4, seed=5)
        context = custom_context(topology, controller_sites=topology.nodes[:3], capacity=400)
        scenarios = scenarios_up_to(context, 2)
        for scenario in scenarios:
            context.instance(scenario)
        return context, scenarios

    def test_pickled_context_carries_no_index(self):
        context, _ = self.grounded()
        assert context._grounding is not None
        payload = pickle.dumps(context)
        assert b"GroundingIndex" not in payload
        assert pickle.loads(payload)._grounding is None
        assert context._grounding is not None  # the live context keeps it

    def test_round_tripped_context_grounds_identically(self):
        context, scenarios = self.grounded()
        clone = pickle.loads(pickle.dumps(context))
        clone._instances.clear()
        for scenario in scenarios:
            assert_same_instance(context.instance(scenario), clone.instance(scenario))
        assert clone._grounding is not None
