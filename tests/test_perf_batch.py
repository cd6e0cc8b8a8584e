"""Batched block-diagonal LP solving must match the scenario-at-a-time route.

:func:`repro.perf.batch.solve_optimal_batch` stacks the LP-relaxation
certificates of many compiled scenarios into one HiGHS call.  Its whole
contract is *bit-identity*: whatever mix of routes a batch's members take
(pre-certificate, stacked certificate accept, individual fallback), every
member's solution must equal what :func:`repro.fmssm.optimal.solve_optimal`
returns for that instance alone.  These tests pin the contract on
deterministic families covering every route, on injected ``batch.solve``
faults (which may degrade *only* the batch's members), and — via
hypothesis — on randomly generated Waxman batches salted with one
infeasible block and one block that needs the full B&B fallback.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from conftest import make_tiny_instance
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.experiments.scenarios import custom_context, hub_capacity_context
from repro.fmssm.optimal import solve_optimal
from repro.perf.batch import (
    BATCH_LP_OPTIONS,
    _BATCH_LP_METHOD,
    _Member,
    _spare_positive_subset,
    _stack_forms,
    _stack_lp_settings,
    solve_optimal_batch,
)
from repro.perf.compile import compile_fmssm
from repro.perf.sweep import parallel_sweep
from repro.resilience import chaos
from repro.resilience.degradation import RUNG_SOLVERS, LadderPolicy, Rung
from repro.topology.generators import ring_topology, waxman_topology

TIME_LIMIT_S = 60.0

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_solution(individual, batched, ignore=("batch",)):
    """The batched solution equals the scenario-at-a-time one bit for bit
    (``solve_time_s`` is wall clock; ``meta["batch"]`` — and, for
    laddered solves, ``meta["ladder_rung"]`` — is execution provenance)."""
    assert batched.algorithm == individual.algorithm
    assert batched.mapping == individual.mapping
    assert batched.sdn_pairs == individual.sdn_pairs
    assert batched.pair_controller == individual.pair_controller
    assert batched.load_override == individual.load_override
    assert batched.feasible == individual.feasible
    batched_meta = {k: v for k, v in batched.meta.items() if k not in ignore}
    assert batched_meta == individual.meta


@pytest.fixture(scope="module")
def hub():
    """Six same-shape scenarios that all stack and certificate-accept."""
    context, scenarios = hub_capacity_context(n_leaves=4, n_fail=2)
    return context, scenarios, [context.instance(s) for s in scenarios]


@pytest.fixture(scope="module")
def ring135():
    """A capacity-135 ring whose six scenarios cover every batch route:
    the singles pre-certify, ``(0, 3)`` stacks but misses the certificate
    (B&B fallback), and the other pairs are infeasible (no-seed
    fallback)."""
    topology = ring_topology(10, chords=5, seed=7)
    context = custom_context(topology, controller_sites=(0, 3, 7), capacity=135)
    scenarios = list(enumerate_failure_scenarios(context.plane, 1))
    scenarios += list(enumerate_failure_scenarios(context.plane, 2))
    return context, [context.instance(s) for s in scenarios]


class TestSpareZeroReduction:
    def test_mixed_spare_keeps_positive_controllers(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        assert _spare_positive_subset(instance) == (100,)

    def test_all_positive_is_vacuous(self):
        instance = make_tiny_instance(spare={100: 2, 200: 2})
        assert _spare_positive_subset(instance) is None

    def test_all_zero_is_vacuous(self):
        """No controller worth keeping: the full form is compiled and the
        (infeasible) outcome is decided by the solver, not the reducer."""
        instance = make_tiny_instance(spare={100: 0, 200: 0})
        assert _spare_positive_subset(instance) is None


class TestStacking:
    def _members(self, instances):
        members = []
        for index, instance in enumerate(instances):
            member = _Member(index=index, instance=instance)
            member.compiled = compile_fmssm(
                instance, controller_subset=_spare_positive_subset(instance)
            )
            members.append(member)
        return members

    def test_stack_forms_block_layout(self, hub):
        _, _, instances = hub
        members = self._members(instances[:3])
        stacked = _stack_forms(members)
        n_vars = sum(m.compiled.form.n_vars for m in members)
        n_rows = sum(m.compiled.form.a_ub.shape[0] for m in members)
        assert stacked.n_vars == n_vars
        assert stacked.a_ub.shape == (n_rows, n_vars)
        assert stacked.a_ub.nnz == sum(m.compiled.form.a_ub.nnz for m in members)
        offsets = [m.offset for m in members]
        assert offsets == sorted(offsets) and offsets[0] == 0

    def test_stack_forms_scales_each_block_objective(self, hub):
        import numpy as np

        _, _, instances = hub
        members = self._members(instances[:2])
        stacked = _stack_forms(members)
        for member in members:
            sl = slice(member.offset, member.offset + member.compiled.form.n_vars)
            # Scaling by 1/max|c_k| normalizes every block to unit max.
            assert np.max(np.abs(stacked.c[sl])) == pytest.approx(1.0)
            assert member.scale > 0

    def test_tuned_settings_only_for_small_blocks(self, hub):
        _, _, instances = hub
        (member,) = self._members(instances[:1])
        assert _stack_lp_settings(member.compiled.form, 1) == (
            _BATCH_LP_METHOD,
            BATCH_LP_OPTIONS,
        )
        fat = SimpleNamespace(a_ub=SimpleNamespace(nnz=10**6))
        assert _stack_lp_settings(fat, 1) == ("highs", None)


class TestBatchedEqualsIndividual:
    def test_hub_family_all_certificate_accept(self, hub):
        _, _, instances = hub
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in instances]
        batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)
            provenance = bat.meta["batch"]
            assert provenance["route"] == "stack"
            assert provenance["certificate"] is True
            assert provenance["size"] == len(instances)
            assert provenance["reduced"]  # zero-spare leaves shrink blocks

    def test_hub_provenance_indexes_slices_in_order(self, hub):
        _, _, instances = hub
        batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        assert [b.meta["batch"]["index"] for b in batched] == list(
            range(len(instances))
        )

    def test_mixed_routes_match_individual(self, ring135):
        """Pre-certificate, certificate-miss (B&B) and infeasible members
        coexist in one batch without contaminating each other."""
        _, instances = ring135
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in instances]
        batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        routes = [b.meta["batch"]["route"] for b in batched]
        reasons = [b.meta["batch"].get("reason") for b in batched]
        assert routes == ["precert"] * 3 + ["fallback"] * 3
        assert reasons[3] == "certificate-miss"  # feasible, needs B&B
        assert reasons[4] == reasons[5] == "no-seed"  # infeasible pairs
        assert not batched[4].feasible and not batched[5].feasible
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)

    def test_empty_batch(self):
        assert solve_optimal_batch([]) == []

    def test_solve_optimal_lp_batch_delegates(self, hub):
        """``solve_optimal(..., lp_batch=1)`` routes through the batch
        module: same answer, plus ``meta["batch"]`` provenance."""
        _, _, instances = hub
        plain = solve_optimal(instances[0], time_limit_s=TIME_LIMIT_S)
        batched = solve_optimal(instances[0], time_limit_s=TIME_LIMIT_S, lp_batch=1)
        assert_same_solution(plain, batched)
        assert batched.meta["batch"]["size"] == 1


class TestChaosFallback:
    """``batch.solve`` faults degrade only the batch's member scenarios."""

    def test_raise_error_falls_back_per_member(self, ring135):
        _, instances = ring135
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in instances]
        with chaos.inject(chaos.Fault("batch.solve", "raise-error")):
            batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        # The stacked member records the batch-level fault; pre-certified
        # members never reached the LP and are untouched.
        assert batched[3].meta["batch"]["reason"] == "batch-error:ChaosError"
        assert [b.meta["batch"]["route"] for b in batched[:3]] == ["precert"] * 3
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)

    def test_raise_timeout_falls_back_per_member(self, hub):
        _, _, instances = hub
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in instances]
        with chaos.inject(chaos.Fault("batch.solve", "raise-timeout")):
            batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)
            assert bat.meta["batch"]["route"] == "fallback"
            assert bat.meta["batch"]["reason"].startswith("batch-error:")

    def test_corrupt_solution_trips_slice_guard(self, hub):
        """An activated-everything stacked vector fails every member's
        feasibility guard; each falls back and the answers still match.
        ``count=None`` keeps the fault armed past the ``batch.solve``
        *check* call that precedes the transform."""
        _, _, instances = hub
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in instances]
        with chaos.inject(
            chaos.Fault("batch.solve", "corrupt-solution", count=None)
        ):
            batched = solve_optimal_batch(instances, time_limit_s=TIME_LIMIT_S)
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)
            assert bat.meta["batch"]["route"] == "fallback"
            assert bat.meta["batch"]["reason"] == "slice-infeasible"

    def test_ladder_rung_registered(self, hub):
        """The ``sparse+batch`` rung solves through the batch path, so a
        ladder can front a batched sweep with a matching primary route."""
        assert "sparse+batch" in RUNG_SOLVERS
        policy = LadderPolicy(rungs=(Rung("sparse+batch", "sparse+batch", 30.0),))
        _, _, instances = hub
        solution = RUNG_SOLVERS["sparse+batch"](instances[0], 30.0)
        assert_same_solution(
            solve_optimal(instances[0], time_limit_s=TIME_LIMIT_S), solution
        )
        assert solution.meta["batch"]["size"] == 1
        assert policy.rungs[0].solver == "sparse+batch"


class TestSweepComposition:
    """``lp_batch`` through the sweep is a pure execution strategy."""

    ALGORITHMS = ("optimal", "pm")

    def _sweep(self, context, scenarios, **kwargs):
        return parallel_sweep(
            context,
            scenarios,
            self.ALGORITHMS,
            optimal_time_limit_s=TIME_LIMIT_S,
            **kwargs,
        )

    def assert_identical(self, plain, batched, stamped=True):
        assert [r.name for r in plain] == [r.name for r in batched]
        for p, b in zip(plain, batched):
            for algorithm in p.solutions:
                assert_same_solution(
                    p.solutions[algorithm],
                    b.solutions[algorithm],
                    ignore=("batch", "ladder_rung"),
                )
                assert (
                    p.evaluations[algorithm].objective
                    == b.evaluations[algorithm].objective
                )
            if stamped:
                assert "batch" in b.solutions["optimal"].meta

    def test_serial_batched_identical(self, hub):
        context, scenarios, _ = hub
        plain = self._sweep(context, scenarios, max_workers=1)
        batched = self._sweep(context, scenarios, max_workers=1, lp_batch=3)
        self.assert_identical(plain, batched)
        sizes = {r.solutions["optimal"].meta["batch"]["size"] for r in batched}
        assert sizes == {3}  # six scenarios, two chunks of lp_batch=3

    def test_pool_batched_identical(self, hub):
        context, scenarios, _ = hub
        plain = self._sweep(context, scenarios, max_workers=1)
        batched = self._sweep(
            context, scenarios, max_workers=2, min_parallel_tasks=0, lp_batch=3
        )
        self.assert_identical(plain, batched)

    def test_ladder_sweep_disables_batching(self, hub):
        """A ladder forces per-scenario supervision, so the sweep falls
        back to scenario-at-a-time solves — identical answers, just no
        batch provenance."""
        context, scenarios, _ = hub
        plain = self._sweep(context, scenarios, max_workers=1)
        laddered = self._sweep(
            context,
            scenarios,
            max_workers=1,
            lp_batch=3,
            ladder=LadderPolicy(
                rungs=(Rung("sparse+batch", "sparse+batch", TIME_LIMIT_S),)
            ),
        )
        self.assert_identical(plain, laddered, stamped=False)


# ---------------------------------------------------------------------------
# Property: batched ≡ scenario-at-a-time on random Waxman batches, salted
# with one infeasible block and one block that needs the B&B fallback.
# ---------------------------------------------------------------------------

#: An instance with no spare anywhere: its LP is infeasible, the PM seed
#: cannot embed, and the member must fall back (and stay infeasible).
INFEASIBLE_INSTANCE = make_tiny_instance(spare={100: 0, 200: 0})


def _bnb_instance():
    """A feasible instance whose PM seed misses the LP certificate, so
    the member needs the full branch-and-bound fallback (the individual
    route reports ``solver="highs"`` without a certificate)."""
    topology = ring_topology(10, chords=5, seed=7)
    context = custom_context(topology, controller_sites=(0, 3, 7), capacity=135)
    return context.instance(FailureScenario(frozenset({0, 3})))


BNB_INSTANCE = _bnb_instance()


@st.composite
def waxman_batches(draw):
    n = draw(st.integers(min_value=10, max_value=13))
    seed = draw(st.integers(min_value=0, max_value=20))
    capacity = draw(st.sampled_from((200, 300, 400)))
    topology = waxman_topology(n, alpha=0.7, beta=0.4, seed=seed)
    sites = topology.nodes[:3]
    try:
        context = custom_context(topology, controller_sites=sites, capacity=capacity)
        context.plane.spare_capacity(context.flows)
    except Exception:
        assume(False)
    instances = [
        context.instance(s) for s in enumerate_failure_scenarios(context.plane, 1)
    ]
    return instances


class TestBatchedEquivalenceProperty:
    @SETTINGS
    @given(waxman_batches())
    def test_batched_matches_scenario_at_a_time(self, instances):
        batch = instances + [INFEASIBLE_INSTANCE, BNB_INSTANCE]
        individual = [solve_optimal(i, time_limit_s=TIME_LIMIT_S) for i in batch]
        batched = solve_optimal_batch(batch, time_limit_s=TIME_LIMIT_S)
        for ind, bat in zip(individual, batched):
            assert_same_solution(ind, bat)
        # The salt guarantees both hard routes are exercised every example.
        assert not batched[-2].feasible
        assert batched[-2].meta["batch"]["route"] == "fallback"
        assert batched[-1].meta["batch"]["route"] == "fallback"
        assert batched[-1].meta["batch"]["reason"] == "certificate-miss"
        assert batched[-1].feasible and batched[-1].meta["solver"] == "highs"
