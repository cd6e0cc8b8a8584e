"""Sweep-supervisor tests: deadlines, quarantine, breakers, campaigns.

The contract (docs/robustness.md): a :class:`SweepSupervisor` wrapped
around the warm fan-out changes *nothing* when no fault fires — the
supervised sweep is byte-for-byte the unsupervised one — and under
``hang``/``kill-worker``/``raise-error`` chaos it still delivers results
bit-identical to the serial sweep, with every intervention accounted for
in ``ScenarioResult.meta["supervisor"]`` and the supervisor's summary.

Unit layers (fake clock) cover the breaker state machine, the deadline
derivation and the retry ledger; integration layers drive real
``max_workers=2`` pools through injected chaos; the campaign layer
checks that one supervisor's state spans every sweep of a campaign.
Only sweeps holding an exact solve fan out, so the pool sweeps carry
``optimal``, which certifies from its seed on every ring scenario here
(no MILP runs).
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_perf_parallel_sweep import assert_sweeps_identical

from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning
from repro.experiments.scenarios import custom_context
from repro.perf.executor import (
    SweepExecutor,
    campaign_summary,
    close_default_executor,
    run_campaign,
)
from repro.perf.sweep import parallel_sweep
from repro.resilience import chaos
from repro.resilience.chaos import Fault
from repro.resilience.degradation import default_ladder
from repro.resilience.supervisor import (
    BREAKER_RUNGS,
    BreakerOpenState,
    CircuitBreaker,
    QuarantineReport,
    RetryLedger,
    SupervisorPolicy,
    SweepSupervisor,
)

#: The exact solve sends a sweep to the pool.
POOL_ALGORITHMS = ("optimal", "pm", "retroflow", "pg", "nearest")

CONTROLLERS = (0, 3, 7)


@pytest.fixture(scope="module")
def ring_context():
    from repro.topology.generators import ring_topology

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


@pytest.fixture(autouse=True)
def _close_default_executor():
    yield
    close_default_executor()


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _supervised_sweep(context, scenarios, executor, supervisor, **kwargs):
    return parallel_sweep(
        context, scenarios, POOL_ALGORITHMS,
        max_workers=2, executor=executor, supervisor=supervisor, **kwargs,
    )


# ----------------------------------------------------------------------
# Breaker state machine (fake clock, fully deterministic)
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker("b", threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerOpenState.CLOSED
        assert breaker.allow_request()
        assert breaker.trips == 0

    def test_opens_on_threshold_and_blocks(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", threshold=3, cooldown_s=60.0, clock=clock)
        for _ in range(3):
            breaker.record_failure("boom")
        assert breaker.state == BreakerOpenState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow_request()
        clock.advance(59.0)
        assert not breaker.allow_request()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("b", threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerOpenState.CLOSED

    def test_cooldown_half_opens_then_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == BreakerOpenState.OPEN
        clock.advance(10.0)
        assert breaker.allow_request()
        assert breaker.state == BreakerOpenState.HALF_OPEN
        breaker.record_success()
        assert breaker.state == BreakerOpenState.CLOSED
        assert [e["state"] for e in breaker.events] == [
            BreakerOpenState.OPEN,
            BreakerOpenState.HALF_OPEN,
            BreakerOpenState.CLOSED,
        ]

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow_request()
        breaker.record_failure("still broken")
        assert breaker.state == BreakerOpenState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow_request()

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker("b", threshold=0)

    def test_to_dict_snapshot(self):
        breaker = CircuitBreaker("rung:sparse+warm", threshold=2, clock=FakeClock())
        breaker.record_failure()
        snapshot = breaker.to_dict()
        assert snapshot["name"] == "rung:sparse+warm"
        assert snapshot["state"] == BreakerOpenState.CLOSED
        assert snapshot["failures"] == 1
        assert json.dumps(snapshot)  # JSON-safe


# ----------------------------------------------------------------------
# Policy: deadlines, effective routes, ledger, quarantine bookkeeping
# ----------------------------------------------------------------------

class TestSupervisorPolicy:
    def test_explicit_deadline_overrides_derivation(self):
        supervisor = SweepSupervisor(SupervisorPolicy(task_deadline_s=7.5))
        assert supervisor.task_deadline_s(None, 300.0) == 7.5

    def test_ladderless_deadline_floors_at_minimum(self):
        supervisor = SweepSupervisor(
            SupervisorPolicy(deadline_multiplier=3.0, min_deadline_s=30.0)
        )
        assert supervisor.task_deadline_s(None, 1.0) == 30.0
        assert supervisor.task_deadline_s(None, 100.0) == 300.0

    def test_ladder_deadline_sums_rung_budgets(self):
        # default_ladder(10, retries=1): sparse+warm 10s x2 attempts,
        # pm terminal (its time_limit_s=None counts as the optimal limit).
        supervisor = SweepSupervisor(
            SupervisorPolicy(deadline_multiplier=2.0, min_deadline_s=1.0)
        )
        ladder = default_ladder(10.0, retries=1)
        budget = sum(
            (rung.time_limit_s if rung.time_limit_s is not None else 10.0)
            * (rung.retries + 1)
            for rung in ladder.rungs
        )
        assert supervisor.task_deadline_s(ladder, 10.0) == 2.0 * budget

    def test_effective_ladder_is_identity_when_closed(self):
        supervisor = SweepSupervisor()
        ladder = default_ladder(5.0)
        assert supervisor.effective_ladder(ladder) is ladder
        assert supervisor.effective_ladder(None) is None

    def test_effective_ladder_drops_open_rungs(self):
        supervisor = SweepSupervisor(SupervisorPolicy(breaker_threshold=1))
        supervisor.breakers["rung:sparse+warm"].record_failure()
        effective = supervisor.effective_ladder(default_ladder(5.0))
        names = [rung.name for rung in effective.rungs]
        assert "sparse+warm" not in names
        assert names[-1] == "pm"  # terminal rung is never dropped

    def test_observe_report_feeds_rung_breakers(self):
        clock = FakeClock()
        supervisor = SweepSupervisor(
            SupervisorPolicy(breaker_threshold=2, breaker_cooldown_s=30.0),
            clock=clock,
        )
        demote = {"events": [
            {"rung": "sparse+warm", "action": "demote", "reason": "timeout"},
        ]}
        supervisor.observe_report(demote)
        supervisor.observe_report(demote)
        breaker = supervisor.breakers["rung:sparse+warm"]
        assert breaker.state == BreakerOpenState.OPEN
        assert supervisor.stats["breaker_trips"] == 1
        # After the cooldown an accept on the rung closes the breaker.
        clock.advance(30.0)
        assert supervisor.effective_ladder(default_ladder(5.0)) is not None
        supervisor.observe_report({"events": [
            {"rung": "sparse+warm", "action": "accept"},
        ]})
        assert breaker.state == BreakerOpenState.CLOSED

    def test_observe_report_ignores_unguarded_rungs(self):
        supervisor = SweepSupervisor(SupervisorPolicy(breaker_threshold=1))
        supervisor.observe_report({"events": [
            {"rung": "pm", "action": "demote", "reason": "n/a"},
        ]})
        assert all(
            b.state == BreakerOpenState.CLOSED
            for b in supervisor.breakers.values()
        )

    def test_ledger_charges_and_budget(self):
        ledger = RetryLedger(max_task_retries=2)
        assert ledger.charge("s", "preempted") == 1
        assert ledger.charge("s", "preempted") == 2
        assert not ledger.over_budget("s")
        assert ledger.charge("s", "pool-crash") == 3
        assert ledger.over_budget("s")
        assert ledger.causes["s"] == "pool-crash"
        assert not ledger.over_budget("other")

    def test_quarantine_decisions_are_deduplicated(self):
        supervisor = SweepSupervisor(SupervisorPolicy(max_task_retries=0))
        supervisor.charge(["a", "b"], "preempted")
        fresh = supervisor.quarantine_decisions(["a", "b", "c"], ("pm",))
        assert [r.scenario for r in fresh] == ["a", "b"]
        assert all(r.resolution == "serial-ladder" for r in fresh)
        assert supervisor.is_quarantined("a")
        assert not supervisor.is_quarantined("c")
        # Re-asking yields nothing new; the log keeps the originals.
        assert supervisor.quarantine_decisions(["a", "b"], ("pm",)) == []
        assert supervisor.stats["quarantined"] == 2

    def test_summary_is_json_safe(self):
        supervisor = SweepSupervisor(SupervisorPolicy(max_task_retries=0))
        supervisor.charge(["x"], "preempted")
        supervisor.quarantine_decisions(["x"], ("pm",))
        supervisor.observe_report({"events": [
            {"rung": "sparse+warm", "action": "demote", "reason": "timeout"},
        ]})
        assert json.dumps(supervisor.summary())

    def test_quarantine_report_round_trip(self):
        report = QuarantineReport(
            scenario="fail(0)", algorithms=("pm", "pg"), charges=3,
            cause="preempted",
        )
        payload = report.to_dict()
        assert payload["scenario"] == "fail(0)"
        assert payload["algorithms"] == ["pm", "pg"]
        assert payload["resolution"] == "serial-ladder"

    def test_breaker_registry_covers_guarded_components(self):
        supervisor = SweepSupervisor()
        expected = {f"rung:{r}" for r in BREAKER_RUNGS}
        assert set(supervisor.breakers) == expected


# ----------------------------------------------------------------------
# Supervised fan-out through a real pool
# ----------------------------------------------------------------------

class TestSupervisedEquivalence:
    def test_fault_free_supervised_is_bit_identical(
        self, ring_context, ring_scenarios, ring_serial
    ):
        supervisor = SweepSupervisor()
        with SweepExecutor(max_workers=2) as executor:
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
        assert_sweeps_identical(ring_serial, supervised)
        stats = supervisor.stats
        assert stats["supervised_sweeps"] == 1
        assert stats["preemptions"] == 0
        assert stats["pool_crashes"] == 0
        assert stats["task_faults"] == 0
        assert stats["quarantined"] == 0
        assert supervisor.quarantines == []
        # Fault-free results carry no supervisor scars.
        for result in supervised:
            assert "supervisor" not in result.meta
            assert not result.degradation.degraded

    def test_hung_workers_are_preempted_and_results_identical(
        self, ring_context, ring_scenarios, ring_serial
    ):
        supervisor = SweepSupervisor(SupervisorPolicy(
            task_deadline_s=0.5, poll_interval_s=0.05, max_task_retries=0,
        ))
        with SweepExecutor(max_workers=2) as executor, \
                chaos.inject(
                    Fault("sweep.task", "hang", count=None, seconds=15.0)
                ), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
            assert executor.stats["preempts"] >= 1
        assert_sweeps_identical(ring_serial, supervised)
        assert supervisor.stats["preemptions"] >= 1
        assert supervisor.stats["quarantined"] == len(ring_scenarios)
        for result in supervised:
            meta = result.meta["supervisor"]
            assert meta["quarantined"]
            actions = {event["action"] for event in meta["events"]}
            assert "preempted" in actions
            assert "quarantine" in actions
            assert result.degradation.degraded

    def test_killed_workers_route_to_quarantine(
        self, ring_context, ring_scenarios, ring_serial
    ):
        supervisor = SweepSupervisor(SupervisorPolicy(
            poll_interval_s=0.05, max_task_retries=0,
        ))
        with SweepExecutor(max_workers=2) as executor, \
                chaos.inject(Fault("sweep.task", "kill-worker", count=None)), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
        assert_sweeps_identical(ring_serial, supervised)
        assert supervisor.stats["pool_crashes"] >= 1
        assert supervisor.stats["quarantined"] == len(ring_scenarios)
        reports = supervisor.quarantines
        assert {r.scenario for r in reports} == {
            s.name for s in ring_scenarios
        }
        assert all(r.cause == "pool-crash" for r in reports)
        assert all(r.resolution == "serial-ladder" for r in reports)

    def test_transient_task_fault_is_retried_not_quarantined(
        self, ring_context, ring_scenarios, ring_serial
    ):
        # Each worker faults exactly once; a scenario can be charged at
        # most once per worker, so a budget of 10 never quarantines.
        supervisor = SweepSupervisor(SupervisorPolicy(
            poll_interval_s=0.05, max_task_retries=10,
        ))
        with SweepExecutor(max_workers=2) as executor, \
                chaos.inject(
                    Fault("sweep.task", "raise-error", at_call=1, count=1)
                ), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
        assert_sweeps_identical(ring_serial, supervised)
        assert supervisor.stats["task_faults"] >= 1
        assert supervisor.stats["quarantined"] == 0
        assert supervisor.quarantines == []

    def test_decode_faults_are_quarantined(
        self, ring_context, ring_scenarios, ring_serial
    ):
        """A worker that cannot decode the context faults every task it
        takes: each is a task fault charged to its scenario, and once
        the budget is spent the scenario is solved in the parent."""
        supervisor = SweepSupervisor(SupervisorPolicy(
            poll_interval_s=0.05, max_task_retries=10,
        ))
        with SweepExecutor(max_workers=2) as executor, \
                chaos.inject(
                    Fault("executor.decode_context", "raise-error", count=None)
                ), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
        assert_sweeps_identical(ring_serial, supervised)
        assert supervisor.stats["task_faults"] > supervisor.policy.max_task_retries
        assert {r.scenario for r in supervisor.quarantines} == {
            s.name for s in ring_scenarios
        }
        assert all(r.cause == "task-fault" for r in supervisor.quarantines)

    def test_respawn_failure_degrades_to_serial(
        self, ring_context, ring_scenarios, ring_serial
    ):
        supervisor = SweepSupervisor(SupervisorPolicy(poll_interval_s=0.05))
        with SweepExecutor(max_workers=2) as executor, \
                chaos.inject(
                    Fault("sweep.task", "kill-worker", at_call=1, count=1),
                    Fault("executor.respawn", "raise-error", count=None),
                ):
            with pytest.warns(DegradedResultWarning, match="respawn"):
                supervised = _supervised_sweep(
                    ring_context, ring_scenarios, executor, supervisor
                )
        assert_sweeps_identical(ring_serial, supervised)

    def test_supervisor_requires_no_explicit_executor(
        self, ring_context, ring_scenarios, ring_serial
    ):
        """``supervisor=`` alone opts into the warm route (default pool)."""
        supervisor = SweepSupervisor()
        supervised = parallel_sweep(
            ring_context, ring_scenarios, POOL_ALGORITHMS,
            max_workers=2, supervisor=supervisor,
        )
        close_default_executor()
        assert_sweeps_identical(ring_serial, supervised)
        assert supervisor.stats["supervised_sweeps"] == 1

    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        chords=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=20),
    )
    def test_property_supervised_equals_unsupervised_fault_free(
        self, chords, seed
    ):
        from repro.topology.generators import ring_topology

        context = custom_context(
            ring_topology(8, chords=chords, seed=seed),
            controller_sites=(0, 4),
            capacity=200,
        )
        scenarios = tuple(
            FailureScenario(frozenset({c})) for c in (0, 4)
        )
        reference = parallel_sweep(context, scenarios, POOL_ALGORITHMS, max_workers=1)
        supervisor = SweepSupervisor()
        try:
            with SweepExecutor(max_workers=2) as executor:
                supervised = _supervised_sweep(
                    context, scenarios, executor, supervisor
                )
        finally:
            close_default_executor()
        assert_sweeps_identical(reference, supervised)
        assert supervisor.stats["preemptions"] == 0
        assert supervisor.stats["quarantined"] == 0


# ----------------------------------------------------------------------
# Campaigns: one supervisor across every sweep
# ----------------------------------------------------------------------

class TestCampaignSupervision:
    def test_supervisor_state_spans_the_campaign(
        self, ring_context, ring_scenarios
    ):
        sweeps = [ring_scenarios[:2], ring_scenarios[1:], (ring_scenarios[0],)]
        supervisor = SweepSupervisor()
        with SweepExecutor(max_workers=2) as executor:
            collected = dict(run_campaign(
                ring_context, sweeps, POOL_ALGORITHMS,
                executor=executor, max_workers=2, supervisor=supervisor,
            ))
        assert supervisor.stats["supervised_sweeps"] == len(sweeps)
        summary = campaign_summary(collected, supervisor=supervisor)
        assert summary["sweeps"] == len(sweeps)
        assert summary["supervisor"]["stats"]["supervised_sweeps"] == len(sweeps)
        assert json.dumps(summary)


# ----------------------------------------------------------------------
# Adaptive deadlines: rung-latency EWMAs tighten the watchdog
# ----------------------------------------------------------------------

class TestAdaptiveDeadlines:
    def test_ewma_update(self):
        supervisor = SweepSupervisor(SupervisorPolicy(ewma_alpha=0.5))
        supervisor.observe_latency("task", 10.0)
        assert supervisor.latency_ewma["task"] == 10.0
        supervisor.observe_latency("task", 20.0)
        assert supervisor.latency_ewma["task"] == 15.0
        supervisor.observe_latency("task", 0.0)  # non-positive: ignored
        assert supervisor.latency_ewma["task"] == 15.0

    def test_ladderless_deadline_uses_task_ewma(self):
        supervisor = SweepSupervisor(
            SupervisorPolicy(deadline_multiplier=3.0, min_deadline_s=1.0)
        )
        assert supervisor.task_deadline_s(None, 100.0) == 300.0
        supervisor.observe_latency("task", 2.0)
        assert supervisor.task_deadline_s(None, 100.0) == 6.0

    def test_ladder_deadline_uses_rung_ewma(self):
        supervisor = SweepSupervisor(
            SupervisorPolicy(deadline_multiplier=2.0, min_deadline_s=1.0)
        )
        ladder = default_ladder(10.0, retries=1)
        static = supervisor.task_deadline_s(ladder, 10.0)
        supervisor.observe_latency("sparse+warm", 1.0)
        adapted = supervisor.task_deadline_s(ladder, 10.0)
        # sparse+warm contributes 1.0s x 2 attempts instead of 10s x 2.
        assert adapted == static - 2.0 * (10.0 - 1.0) * 2

    def test_deadline_still_floors_at_minimum(self):
        supervisor = SweepSupervisor(
            SupervisorPolicy(deadline_multiplier=3.0, min_deadline_s=30.0)
        )
        supervisor.observe_latency("task", 0.001)
        assert supervisor.task_deadline_s(None, 100.0) == 30.0

    def test_max_deadline_clamps_derivation(self):
        supervisor = SweepSupervisor(
            SupervisorPolicy(
                deadline_multiplier=3.0, min_deadline_s=1.0, max_deadline_s=50.0
            )
        )
        assert supervisor.task_deadline_s(None, 100.0) == 50.0
        ladder = default_ladder(300.0, retries=1)
        assert supervisor.task_deadline_s(ladder, 300.0) == 50.0

    def test_explicit_deadline_ignores_observations(self):
        supervisor = SweepSupervisor(SupervisorPolicy(task_deadline_s=7.5))
        supervisor.observe_latency("task", 1.0)
        assert supervisor.task_deadline_s(None, 300.0) == 7.5

    def test_observe_report_feeds_latency_ewma(self):
        supervisor = SweepSupervisor()
        supervisor.observe_report({"events": [
            {"rung": "sparse+warm", "action": "accept",
             "reason": "", "elapsed_s": 2.0},
            {"rung": "pm", "action": "demote",
             "reason": "boom", "elapsed_s": 4.0},
        ]})
        assert supervisor.latency_ewma["sparse+warm"] == 2.0
        assert supervisor.latency_ewma["pm"] == 4.0

    def test_supervised_sweep_feeds_task_ewma(
        self, ring_context, ring_scenarios, ring_serial
    ):
        supervisor = SweepSupervisor(SupervisorPolicy(poll_interval_s=0.05))
        with SweepExecutor(max_workers=2) as executor:
            supervised = _supervised_sweep(
                ring_context, ring_scenarios, executor, supervisor
            )
        assert_sweeps_identical(ring_serial, supervised)
        # Ladderless sweep: solve wall-clocks feed the generic "task" key.
        assert supervisor.latency_ewma.get("task", 0.0) > 0.0
