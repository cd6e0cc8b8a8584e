"""Parallel sweep output must be identical to the serial sweep."""

from __future__ import annotations

from repro.experiments.runner import run_failure_sweep, run_failure_sweep_parallel
from repro.experiments.scenarios import custom_context
from repro.topology.generators import ring_topology

#: Heuristics only — the exact solver would dominate test wall clock.
FAST_ALGORITHMS = ("pm", "retroflow", "pg", "nearest")


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
        serial = run_failure_sweep(att_context, 1, FAST_ALGORITHMS)
        parallel = run_failure_sweep_parallel(
            att_context, 1, FAST_ALGORITHMS, max_workers=4
        )
        assert_sweeps_identical(serial, parallel)

    def test_parallel_equals_serial_two_failures(self, att_context):
        serial = run_failure_sweep(att_context, 2, FAST_ALGORITHMS)
        parallel = run_failure_sweep_parallel(
            att_context, 2, FAST_ALGORITHMS, max_workers=2
        )
        assert_sweeps_identical(serial, parallel)


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
        serial = run_failure_sweep(context, 1, FAST_ALGORITHMS)
        parallel = run_failure_sweep_parallel(
            context, 1, FAST_ALGORITHMS, max_workers=4
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
    def test_small_heuristic_sweep_stays_serial(self, small_context, monkeypatch):
        """Few heuristic-only tasks must not pay for a process pool."""
        from repro.perf import executor as executor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("pool must not start for a small heuristic sweep")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", forbidden)
        serial = run_failure_sweep(small_context, 1, FAST_ALGORITHMS)
        parallel = run_failure_sweep_parallel(
            small_context, 1, FAST_ALGORITHMS, max_workers=4
        )
        assert_sweeps_identical(serial, parallel)

    def test_min_parallel_tasks_zero_forces_pool(self, small_context):
        """The override disables the serial heuristic without changing output."""
        serial = run_failure_sweep(small_context, 1, FAST_ALGORITHMS)
        forced = run_failure_sweep_parallel(
            small_context, 1, FAST_ALGORITHMS, max_workers=2, min_parallel_tasks=0
        )
        assert_sweeps_identical(serial, forced)

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
