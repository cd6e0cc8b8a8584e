"""Fault-injection tests: sweeps must survive chaos with correct results.

Every test here follows the same shape: run a clean baseline sweep, run
the same sweep under an installed :class:`~repro.resilience.chaos.ChaosPlan`,
and assert that (a) the sweep completes, (b) the merged results are
identical to the baseline, and (c) the degradation reports name what
actually happened.
"""

from __future__ import annotations

import warnings

import pytest

from repro.control.failures import FailureScenario
from repro.exceptions import ChaosError, DegradedResultWarning, SolverTimeoutError
from repro.experiments.scenarios import custom_context
from repro.perf.sweep import parallel_sweep
from repro.resilience import chaos
from repro.topology.generators import ring_topology

ALGORITHMS = ("optimal", "pm", "retroflow")


@pytest.fixture(scope="module")
def sweep_context():
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=160,
    )


@pytest.fixture(scope="module")
def sweep_scenarios():
    return tuple(FailureScenario(frozenset({c})) for c in (0, 3, 7))


@pytest.fixture(scope="module")
def baseline(sweep_context, sweep_scenarios):
    return parallel_sweep(
        sweep_context, sweep_scenarios, ALGORITHMS,
        max_workers=1, optimal_time_limit_s=60.0,
    )


def assert_same_solutions(expected, actual):
    assert len(expected) == len(actual)
    for exp, act in zip(expected, actual):
        assert exp.scenario == act.scenario
        assert sorted(exp.solutions) == sorted(act.solutions)
        for name in exp.solutions:
            assert exp.solutions[name].mapping == act.solutions[name].mapping, name
            assert exp.solutions[name].sdn_pairs == act.solutions[name].sdn_pairs, name
            assert exp.evaluations[name].total_programmability == (
                act.evaluations[name].total_programmability
            ), name


class TestHarness:
    def test_fault_fires_window(self):
        fault = chaos.Fault("sweep.task", "raise-error", at_call=3, count=2)
        assert [fault.fires(n) for n in range(1, 7)] == [
            False, False, True, True, False, False,
        ]

    def test_open_ended_fault(self):
        fault = chaos.Fault("sweep.task", "raise-error", at_call=2, count=None)
        assert not fault.fires(1)
        assert all(fault.fires(n) for n in (2, 50, 5000))

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            chaos.Fault("sweep.task", "explode")

    def test_at_call_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            chaos.Fault("sweep.task", "raise-error", at_call=0)

    def test_check_is_noop_without_plan(self):
        chaos.uninstall()
        chaos.check("sweep.task")  # must not raise, must not count

    def test_inject_installs_and_uninstalls(self):
        assert chaos.active_plan() is None
        with chaos.inject(chaos.Fault("sweep.task", "raise-error")):
            assert chaos.active_plan() is not None
            with pytest.raises(ChaosError):
                chaos.check("sweep.task")
        assert chaos.active_plan() is None

    def test_raise_timeout_action(self):
        with chaos.inject(chaos.Fault("optimal.solve", "raise-timeout")):
            with pytest.raises(SolverTimeoutError):
                chaos.check("optimal.solve")

    def test_counters_are_per_site(self):
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-error", at_call=2)
        ):
            chaos.check("optimal.solve")       # call 1: clean
            chaos.check("highs.solve")          # other site, no effect
            with pytest.raises(ChaosError):
                chaos.check("optimal.solve")   # call 2: fires

    def test_corrupt_payload_flips_byte(self):
        with chaos.inject(chaos.Fault("sweep.payload", "corrupt-payload")):
            out = chaos.transform("sweep.payload", b"abcdef")
        assert out != b"abcdef"
        assert len(out) == 6

    def test_corrupt_solution_activates_everything(self):
        import numpy as np

        with chaos.inject(chaos.Fault("highs.solve.x", "corrupt-solution")):
            out = chaos.transform("highs.solve.x", np.array([0.0, 1.0, 0.3]))
        assert list(out) == [1.0, 1.0, 1.0]

    def test_transform_passthrough_without_plan(self):
        chaos.uninstall()
        assert chaos.transform("sweep.payload", b"abc") == b"abc"


class TestSweepUnderChaos:
    def test_corrupt_payload_degrades_to_serial(
        self, sweep_context, sweep_scenarios, baseline
    ):
        """A poisoned worker payload breaks the pool; the sweep must fall
        back to the serial path with identical results and say so."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with chaos.inject(chaos.Fault("sweep.payload", "corrupt-payload")):
                results = parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=2, optimal_time_limit_s=60.0,
                )
        assert_same_solutions(baseline, results)
        degraded = [
            w for w in caught if issubclass(w.category, DegradedResultWarning)
        ]
        assert degraded, "serial fallback must warn, not be silent"
        assert "serially" in str(degraded[0].message)
        for result in results:
            assert result.degradation.degraded
            assert any(
                e.action == "serial-fallback" for e in result.degradation.events
            )

    def test_killed_worker_degrades_to_serial(
        self, sweep_context, sweep_scenarios, baseline
    ):
        """kill-worker terminates a pool worker mid-task (the parent is
        immune); completed results are kept and the rest finish serially."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with chaos.inject(
                chaos.Fault("sweep.task", "kill-worker", at_call=1)
            ):
                results = parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=2, optimal_time_limit_s=60.0,
                )
        assert_same_solutions(baseline, results)
        assert any(
            issubclass(w.category, DegradedResultWarning) for w in caught
        )

    def test_nth_call_timeout_degrades_one_scenario(
        self, sweep_context, sweep_scenarios, baseline
    ):
        """An injected timeout at the first solve_optimal entry is a
        solver fault: the first scenario's optimal answer comes from PM,
        flagged degraded with its cause, while every other result is the
        baseline's."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with chaos.inject(
                chaos.Fault("optimal.solve", "raise-timeout", at_call=1, count=1)
            ):
                results = parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                )
        assert any(issubclass(w.category, DegradedResultWarning) for w in caught)
        assert_same_solutions(baseline[1:], results[1:])
        first = results[0]
        assert first.degradation.degraded
        (event,) = [e for e in first.degradation.events if e.action != "mode"]
        assert (event.source, event.action) == ("optimal", "solver-error")
        assert "SolverTimeoutError" in event.reason
        optimal = first.solutions["optimal"]
        assert optimal.meta["degraded"] is True
        assert optimal.meta["solver"] == "pm-fallback"
        for name in ("pm", "retroflow"):
            assert first.solutions[name].sdn_pairs == baseline[0].solutions[name].sdn_pairs
        assert first.evaluations["optimal"].objective <= (
            baseline[0].evaluations["optimal"].objective
        )
        for result in results[1:]:
            assert not result.degradation.degraded

    def test_sweep_task_chaos_error_propagates_without_ladder(
        self, sweep_context, sweep_scenarios
    ):
        """A fault that is not a solver's has no fallback: it must
        propagate, exactly as the serial sweep would raise it."""
        with chaos.inject(chaos.Fault("sweep.task", "raise-error", at_call=1)):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                )

    def test_corrupt_solution_answered_by_pm(self):
        """A lying solver vector is caught by the validator and answered
        by PM, so the sweep still completes with a valid answer, flagged
        degraded with the violation as its cause."""
        context = custom_context(
            ring_topology(10, chords=5, seed=7),
            controller_sites=(0, 3, 7),
            capacity=135,
        )
        # The PM seed misses the certificate here, so HiGHS runs.
        scenarios = (FailureScenario(frozenset({0, 3})),)
        baseline = parallel_sweep(
            context, scenarios, ("optimal",), max_workers=1,
            optimal_time_limit_s=60.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with chaos.inject(
                chaos.Fault("highs.solve.x", "corrupt-solution", count=None),
            ):
                results = parallel_sweep(
                    context, scenarios, ("optimal",), max_workers=1,
                    optimal_time_limit_s=60.0,
                )
        (event,) = [e for e in results[0].degradation.events if e.action != "mode"]
        assert event.action == "validation"
        assert "eq3-capacity" in event.reason
        solution = results[0].solutions["optimal"]
        assert solution.meta["degraded"] is True
        assert results[0].evaluations["optimal"].feasible
        assert results[0].evaluations["optimal"].objective <= (
            baseline[0].evaluations["optimal"].objective
        )


class TestPoolFaults:
    """The warm route's one fault policy: a broken pool, or one recycled
    past a task's deadline, sends the remaining tasks to the parent,
    once.  (The chaos soak, ``tests/test_chaos_soak.py``, runs both over
    a campaign.)"""

    def test_hung_workers_are_preempted_and_answer_like_serial(
        self, sweep_context, sweep_scenarios
    ):
        """Every pool task hangs.  Past the first deadline the pool is
        recycled and each scenario runs once in the parent, where a hang
        is a no-op: the answers are the serial ones, each result carries
        the ``deadline`` cause, and the sweep ends long before the hang
        would."""
        import time

        from repro.perf.executor import SweepExecutor
        from repro.perf.sweep import task_deadline_s

        time_limit_s = 0.25
        serial = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=1, optimal_time_limit_s=time_limit_s,
        )
        with SweepExecutor(max_workers=2) as executor, chaos.inject(
            chaos.Fault("sweep.task", "hang", count=None, seconds=60.0)
        ), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            start = time.monotonic()
            results = parallel_sweep(
                sweep_context, sweep_scenarios, ALGORITHMS,
                max_workers=2, optimal_time_limit_s=time_limit_s,
                executor=executor,
            )
            elapsed = time.monotonic() - start
            assert executor.stats["preempts"] == 1
        assert_same_solutions(serial, results)
        for result in results:
            causes = {e.action for e in result.degradation.events}
            assert "deadline" in causes
            assert result.degradation.degraded
        assert elapsed < task_deadline_s(time_limit_s) + 30.0

    def test_worker_killed_during_milp_answers_like_serial(self):
        """ATT (5, 20) misses the certificate, so its exact solve reaches
        HiGHS; the worker running that MILP is killed.  The task runs
        again in the parent and answers exactly as the serial oracle,
        validator-clean, with the ``pool-crash`` cause."""
        from repro.experiments.scenarios import default_att_context
        from repro.resilience.validate import validate_solution

        context = default_att_context()
        scenarios = (FailureScenario(frozenset({5, 20})),)
        algorithms = ("optimal", "pm")
        serial = parallel_sweep(
            context, scenarios, algorithms,
            max_workers=1, optimal_time_limit_s=60.0,
        )
        assert serial[0].solutions["optimal"].meta["solver"] == "highs"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with chaos.inject(chaos.Fault("highs.solve", "kill-worker")):
                results = parallel_sweep(
                    context, scenarios, algorithms,
                    max_workers=2, optimal_time_limit_s=60.0,
                )
        assert any(issubclass(w.category, DegradedResultWarning) for w in caught)
        assert_same_solutions(serial, results)
        optimal = results[0].solutions["optimal"]
        assert optimal.meta["objective"] == serial[0].solutions["optimal"].meta["objective"]
        assert validate_solution(
            context.instance(scenarios[0]), optimal,
            enforce_delay=True, require_full_recovery=True,
        ).ok
        causes = [
            (e.source, e.action)
            for e in results[0].degradation.events
            if e.action != "mode"
        ]
        assert ("optimal", "pool-crash") in causes
