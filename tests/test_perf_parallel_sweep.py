"""Parallel sweep output must be identical to the serial sweep.

Only a sweep that holds an exact solve fans out, so the pool cases carry
``optimal`` on scenarios where it certifies from its seed (every ATT
single failure, every ring scenario here) and runs no MILP, or
``retroflow-ip``, whose integer program solves in milliseconds.
"""

from __future__ import annotations

import pytest

from repro.control.failures import enumerate_failure_scenarios
from repro.experiments.runner import run_failure_sweep, run_failure_sweep_parallel
from repro.exceptions import DegradedResultWarning
from repro.experiments.scenarios import custom_context
from repro.perf.executor import SweepExecutor
from repro.perf.sweep import parallel_sweep
from repro.topology.generators import ring_topology

#: The heuristics: a sweep of only these runs serially.
FAST_ALGORITHMS = ("pm", "retroflow", "pg", "nearest")

#: The heuristics plus the exact solve, which sends a sweep to the pool.
POOL_ALGORITHMS = ("optimal", *FAST_ALGORITHMS)


def assert_sweeps_identical(serial, parallel):
    assert [r.name for r in serial] == [r.name for r in parallel]
    for s, p in zip(serial, parallel):
        assert list(s.solutions) == list(p.solutions)
        assert list(s.evaluations) == list(p.evaluations)
        for algorithm in s.solutions:
            ss, ps = s.solutions[algorithm], p.solutions[algorithm]
            assert ss.algorithm == ps.algorithm
            assert ss.mapping == ps.mapping
            assert ss.sdn_pairs == ps.sdn_pairs
            assert ss.pair_controller == ps.pair_controller
            assert ss.load_override == ps.load_override
            assert ss.extra_overhead_ms == ps.extra_overhead_ms
            assert ss.feasible == ps.feasible
            se, pe = s.evaluations[algorithm], p.evaluations[algorithm]
            assert se.programmability == pe.programmability
            assert se.least_programmability == pe.least_programmability
            assert se.total_programmability == pe.total_programmability
            assert se.recovered_flows == pe.recovered_flows
            assert se.controller_load == pe.controller_load
            assert se.total_delay_ms == pe.total_delay_ms
            assert se.per_flow_overhead_ms == pe.per_flow_overhead_ms
            assert se.objective == pe.objective


class TestAttEquivalence:
    def test_parallel_equals_serial_one_failure(self, att_context):
        serial = run_failure_sweep(att_context, 1, POOL_ALGORITHMS, 60.0)
        parallel = run_failure_sweep_parallel(
            att_context, 1, POOL_ALGORITHMS, 60.0, max_workers=4
        )
        assert_sweeps_identical(serial, parallel)

    def test_parallel_equals_serial_two_failures(self, att_context):
        # ``retroflow-ip`` is heavy, so the sweep fans out.
        algorithms = ("retroflow-ip", *FAST_ALGORITHMS)
        serial = run_failure_sweep(att_context, 2, algorithms)
        parallel = run_failure_sweep_parallel(
            att_context, 2, algorithms, max_workers=2
        )
        assert_sweeps_identical(serial, parallel)
        assert parallel[0].meta["fanout"]["payload_bytes"] > 0


class TestDegradation:
    def test_max_workers_one_is_serial(self, small_context):
        serial = run_failure_sweep(small_context, 1, FAST_ALGORITHMS)
        degraded = run_failure_sweep_parallel(
            small_context, 1, FAST_ALGORITHMS, max_workers=1
        )
        assert_sweeps_identical(serial, degraded)

    def test_unpicklable_context_falls_back_to_serial(self):
        topology = ring_topology(10, chords=5, seed=7)
        context = custom_context(topology, controller_sites=(0, 3, 7), capacity=160)
        # Lambdas do not pickle; the sweep must detect this and go serial.
        context.delay_model._poison = lambda: None
        serial = run_failure_sweep(context, 1, POOL_ALGORITHMS, 60.0)
        with pytest.warns(DegradedResultWarning, match="failed to encode"):
            parallel = run_failure_sweep_parallel(
                context, 1, POOL_ALGORITHMS, 60.0, max_workers=4
            )
        assert_sweeps_identical(serial, parallel)

    def test_parallel_includes_optimal_consistently(self, small_context):
        """The exact solver also round-trips through the pool unchanged."""
        algorithms = ("optimal", "pm")
        serial = run_failure_sweep(small_context, 1, algorithms, 60.0)
        parallel = run_failure_sweep_parallel(
            small_context, 1, algorithms, 60.0, max_workers=2
        )
        assert_sweeps_identical(serial, parallel)


class TestSmallSweepHeuristic:
    """Which sweeps fan out: only those holding a heavy algorithm."""

    def test_small_heuristic_sweep_stays_serial(self, small_context, monkeypatch):
        """Heuristic-only tasks must not pay for a process pool."""
        from repro.perf import executor as executor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("pool must not start for a small heuristic sweep")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", forbidden)
        serial = run_failure_sweep(small_context, 1, FAST_ALGORITHMS)
        parallel = run_failure_sweep_parallel(
            small_context, 1, FAST_ALGORITHMS, max_workers=4
        )
        assert_sweeps_identical(serial, parallel)

    def test_heuristic_sweep_skips_warm_executor(self, small_context):
        """A heuristic-only sweep runs serially even with workers to
        spare and a warm executor at hand; adding ``optimal`` to the same
        scenarios sends it to that executor."""
        scenarios = tuple(enumerate_failure_scenarios(small_context.plane, 1))
        serial = parallel_sweep(
            small_context, scenarios, FAST_ALGORITHMS, max_workers=1
        )
        exact_serial = parallel_sweep(
            small_context, scenarios, POOL_ALGORITHMS, 60.0, max_workers=1
        )
        with SweepExecutor(max_workers=2) as executor:
            # Warm the executor: its pool and the context's payload.
            parallel_sweep(
                small_context, scenarios, POOL_ALGORITHMS, 60.0,
                max_workers=4, executor=executor,
            )
            sweeps = executor.stats["sweeps"]
            heuristic = parallel_sweep(
                small_context, scenarios, FAST_ALGORITHMS,
                max_workers=4, executor=executor,
            )
            assert executor.stats["sweeps"] == sweeps
            assert_sweeps_identical(serial, heuristic)
            assert all("fanout" not in r.meta for r in heuristic)
            assert heuristic[0].degradation.events[0].reason == (
                "serial: heuristic-only sweep"
            )

            exact = parallel_sweep(
                small_context, scenarios, POOL_ALGORITHMS, 60.0,
                max_workers=4, executor=executor,
            )
            assert executor.stats["sweeps"] == sweeps + 1
            assert_sweeps_identical(exact_serial, exact)
            assert exact[0].degradation.events[0].reason.startswith("warm-pool:")

    def test_heavy_algorithm_disables_heuristic(self, small_context, monkeypatch):
        """An exact solver in the mix goes parallel even on small sweeps."""
        from repro.perf import executor as executor_module

        used = {"pool": False}
        real_pool = executor_module.ProcessPoolExecutor

        def spy(*args, **kwargs):
            used["pool"] = True
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", spy)
        run_failure_sweep_parallel(
            small_context, 1, ("optimal", "pm"), 60.0, max_workers=2
        )
        assert used["pool"]
