"""Warm-executor tests: persistent pools must change nothing but speed.

Every sweep through a :class:`~repro.perf.executor.SweepExecutor` —
first (cold workers), repeated (warm workers, cached plan), or degraded
by chaos — must produce results bit-identical to the serial sweep.
Only sweeps holding an exact solve fan out, so every pool sweep here
carries ``optimal``; on these ring scenarios it certifies from its seed,
so no MILP runs.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_perf_parallel_sweep import assert_sweeps_identical

from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.exceptions import DegradedResultWarning
from repro.experiments.runner import run_failure_sweep
from repro.experiments.scenarios import custom_context
from repro.perf import executor as executor_mod
from repro.perf.executor import SweepExecutor
from repro.perf.sweep import parallel_sweep
from repro.resilience import chaos
from repro.topology.generators import ring_topology

#: The exact solve (precertified here) sends a sweep to the pool.
POOL_ALGORITHMS = ("optimal", "pm", "retroflow", "pg", "nearest")

CONTROLLERS = (0, 3, 7)


@pytest.fixture(scope="module")
def ring_context():
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=CONTROLLERS,
        capacity=160,
    )


@pytest.fixture(scope="module")
def ring_scenarios():
    return tuple(FailureScenario(frozenset({c})) for c in CONTROLLERS)


@pytest.fixture(scope="module")
def ring_serial(ring_context, ring_scenarios):
    return parallel_sweep(
        ring_context, ring_scenarios, POOL_ALGORITHMS, max_workers=1,
    )


class TestWarmEquivalence:
    def test_repeated_warm_sweeps_bit_identical(
        self, ring_context, ring_scenarios, ring_serial
    ):
        """Three sweeps on one executor: cold, warm, warm — all identical."""
        with SweepExecutor(max_workers=2) as executor:
            for _ in range(3):
                warm = parallel_sweep(
                    ring_context, ring_scenarios, POOL_ALGORITHMS,
                    max_workers=2, executor=executor,
                )
                assert_sweeps_identical(ring_serial, warm)
            assert executor.stats["sweeps"] == 3
            assert executor.stats["encode_misses"] == 1
            assert executor.stats["encode_hits"] == 2
            assert executor.stats["respawns"] == 0

    def test_att_warm_equals_serial(self, att_context):
        serial = run_failure_sweep(att_context, 1, POOL_ALGORITHMS, 60.0)
        with SweepExecutor(max_workers=4) as executor:
            warm = parallel_sweep(
                att_context, enumerate_failure_scenarios(att_context.plane, 1),
                POOL_ALGORITHMS, 60.0, max_workers=4, executor=executor,
            )
        assert_sweeps_identical(serial, warm)

    def test_warm_heavy_route(self, ring_context, ring_scenarios):
        """Exact solves go through the per-task warm route unchanged."""
        algorithms = ("optimal", "pm")
        serial = parallel_sweep(
            ring_context, ring_scenarios, algorithms, optimal_time_limit_s=60.0,
            max_workers=1,
        )
        with SweepExecutor(max_workers=2) as executor:
            warm = parallel_sweep(
                ring_context, ring_scenarios, algorithms,
                optimal_time_limit_s=60.0, max_workers=2,
                executor=executor,
            )
        assert_sweeps_identical(serial, warm)

    def test_closed_executor_is_rejected(self, ring_context, ring_scenarios):
        executor = SweepExecutor(max_workers=2)
        executor.close()
        with pytest.raises(ValueError, match="closed"):
            parallel_sweep(
                ring_context, ring_scenarios, POOL_ALGORITHMS, executor=executor,
            )


class TestCallScopedPool:
    """A sweep without a caller's executor runs on one scoped to the call."""

    @pytest.mark.parametrize("scope", ["call", "caller"])
    def test_exact_solves_ship_no_more_than_heuristics(
        self, ring_context, ring_scenarios, scope
    ):
        """A submission ships the pickled context, which is all a
        heuristic task needs, plus the sweep's small parameters: exact
        solves add nothing, since workers compile their own forms."""
        options = dict(optimal_time_limit_s=60.0, max_workers=2)
        if scope == "caller":
            with SweepExecutor(max_workers=2) as executor:
                results = parallel_sweep(
                    ring_context, ring_scenarios, ("pm", "optimal"),
                    executor=executor, **options,
                )
        else:
            results = parallel_sweep(
                ring_context, ring_scenarios, ("pm", "optimal"), **options,
            )
        exact = results[0].meta["fanout"]["payload_bytes"]
        context = len(pickle.dumps(ring_context, protocol=pickle.HIGHEST_PROTOCOL))
        assert 0 <= exact - context <= 1024, (exact, context)

    def test_pool_ends_with_the_call(
        self, ring_context, ring_scenarios, ring_serial
    ):
        results = parallel_sweep(
            ring_context, ring_scenarios, POOL_ALGORITHMS, max_workers=2,
        )
        assert set(results[0].meta["fanout"]) == {
            "payload_bytes", "encode_s", "worker_init_s",
        }
        assert_sweeps_identical(ring_serial, results)
        assert multiprocessing.active_children() == []

    def test_worker_init_is_zero_when_every_plan_is_cached(
        self, ring_context, ring_scenarios
    ):
        """``worker_init_s`` times cache-miss plan builds only."""
        with SweepExecutor(max_workers=1) as executor:
            init_s = [
                parallel_sweep(
                    ring_context, ring_scenarios, POOL_ALGORITHMS,
                    max_workers=2, executor=executor,
                )[0].meta["fanout"]["worker_init_s"]
                for _ in range(2)
            ]
        assert init_s[0] > 0.0
        assert init_s[1] == 0.0


@pytest.fixture
def property_executor():
    # Function-scoped on purpose: hypothesis instantiates it once and
    # reuses it across every drawn example, so consecutive examples
    # exercise cross-sweep cache reuse — and it closes before the
    # autouse leak check runs.
    with SweepExecutor(max_workers=2) as executor:
        yield executor


class TestWarmProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        failed=st.lists(
            st.sampled_from(CONTROLLERS), min_size=1, max_size=2, unique=True
        ),
        algorithms=st.permutations(POOL_ALGORITHMS),
    )
    def test_any_sweep_warm_equals_serial(
        self, ring_context, property_executor, failed, algorithms
    ):
        """Arbitrary scenario subsets and algorithm orders, one shared
        executor across all examples — warm results always match serial."""
        scenarios = tuple(FailureScenario(frozenset({c})) for c in sorted(failed))
        algorithms = tuple(algorithms)
        serial = parallel_sweep(ring_context, scenarios, algorithms, max_workers=1)
        warm = parallel_sweep(
            ring_context, scenarios, algorithms,
            max_workers=2, executor=property_executor,
        )
        assert_sweeps_identical(serial, warm)


class TestInvalidation:
    def test_new_context_gets_new_generation(self, ring_context, ring_scenarios):
        """A different context never reuses another's worker cache."""
        other_context = custom_context(
            ring_topology(10, chords=5, seed=11),
            controller_sites=CONTROLLERS,
            capacity=240,
        )
        serial_a = parallel_sweep(
            ring_context, ring_scenarios, POOL_ALGORITHMS, max_workers=1,
        )
        serial_b = parallel_sweep(
            other_context, ring_scenarios, POOL_ALGORITHMS, max_workers=1,
        )
        with SweepExecutor(max_workers=2) as executor:
            for context, serial in (
                (ring_context, serial_a),
                (other_context, serial_b),
                (ring_context, serial_a),
            ):
                warm = parallel_sweep(
                    context, ring_scenarios, POOL_ALGORITHMS,
                    max_workers=2, executor=executor,
                )
                assert_sweeps_identical(serial, warm)
            # Both contexts cached; the third sweep hit the first entry.
            assert executor.stats["encode_misses"] == 2
            assert executor.stats["encode_hits"] == 1


class TestLifecycle:
    def test_eviction_drops_the_oldest_payload(self, ring_context, monkeypatch):
        other = custom_context(
            ring_topology(8, chords=3, seed=5),
            controller_sites=(0, 4),
            capacity=120,
        )
        monkeypatch.setattr(executor_mod, "_MAX_PAYLOADS", 1)
        executor = SweepExecutor(max_workers=1)
        with executor:
            first = executor.encode_context(ring_context)
            assert executor.encode_context(ring_context) is first
            executor.encode_context(other)  # evicts the first
            again = executor.encode_context(ring_context)
            assert again.generation > first.generation
            assert executor.stats["encode_misses"] == 3
        assert executor.closed
        executor.close()  # idempotent

    def test_kill_worker_degrades_then_respawns_without_leaks(
        self, ring_context, ring_scenarios, ring_serial
    ):
        """A killed worker breaks the pool: the sweep keeps its completed
        results and finishes serially; the *next* sweep respawns the pool
        transparently; no worker outlives the executor."""
        executor = SweepExecutor(max_workers=2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with chaos.inject(
                    chaos.Fault("sweep.task", "kill-worker", at_call=1)
                ):
                    degraded = parallel_sweep(
                        ring_context, ring_scenarios, POOL_ALGORITHMS,
                        max_workers=2, executor=executor,
                    )
            assert_sweeps_identical(ring_serial, degraded)
            assert any(
                issubclass(w.category, DegradedResultWarning) for w in caught
            ), "serial fallback must warn, not be silent"
            healthy = parallel_sweep(
                ring_context, ring_scenarios, POOL_ALGORITHMS,
                max_workers=2, executor=executor,
            )
            assert_sweeps_identical(ring_serial, healthy)
            assert executor.stats["respawns"] == 1
        finally:
            executor.close()
        assert multiprocessing.active_children() == []


class TestCampaign:
    """Many sweeps over one context: a loop over ``parallel_sweep`` on
    one executor."""

    def test_campaign_streams_every_sweep_bit_identically(
        self, ring_context, ring_scenarios
    ):
        sweeps = [
            ring_scenarios[:2],
            ring_scenarios[1:],
            (ring_scenarios[0],),
        ]
        references = [
            parallel_sweep(ring_context, sweep, POOL_ALGORITHMS, max_workers=1)
            for sweep in sweeps
        ]
        with SweepExecutor(max_workers=2) as executor:
            collected = [
                parallel_sweep(
                    ring_context, sweep, POOL_ALGORITHMS,
                    max_workers=2, executor=executor,
                )
                for sweep in sweeps
            ]
            for reference, results in zip(references, collected, strict=True):
                assert_sweeps_identical(reference, results)
            assert executor.stats["sweeps"] == 3
            assert executor.stats["encode_misses"] == 1
            assert executor.stats["encode_hits"] == 2
            assert executor.stats["respawns"] == 0


class TestArrayKernelPorts:
    """The satellite kernel ports: array routes equal their references."""

    def test_retroflow_ip_kernels_agree(self, small_instance):
        from repro.baselines.retroflow import (
            _sdn_pairs_for,
            _switch_value,
            _switch_values_array,
            solve_retroflow_ip,
        )

        assert _switch_values_array(small_instance) == {
            s: _switch_value(small_instance, s) for s in small_instance.switches
        }
        solution = solve_retroflow_ip(small_instance, time_limit_s=30.0)
        assert solution.feasible
        assert solution.sdn_pairs == _sdn_pairs_for(
            small_instance, set(solution.mapping)
        )
        load = {c: 0 for c in small_instance.controllers}
        for switch, controller in solution.mapping.items():
            load[controller] += small_instance.gamma[switch]
        assert solution.load_override == load

    def test_pm_phase1_only_kernels_agree(self, att_instance_13_20):
        from repro.pm.algorithm import ProgrammabilityMedic, solve_pm

        array = solve_pm(att_instance_13_20, phase2=False)
        reference = ProgrammabilityMedic(att_instance_13_20, phase2=False).run()
        assert array.mapping == reference.mapping
        assert array.sdn_pairs == reference.sdn_pairs
        assert array.pair_controller == reference.pair_controller
        assert array.meta.get("phase2") is False
        assert reference.meta.get("phase2") is False
        full = solve_pm(att_instance_13_20)
        assert "phase2" not in full.meta
        assert array.sdn_pairs <= full.sdn_pairs
