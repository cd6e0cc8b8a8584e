"""Tests for the solver degradation ladder (repro.resilience.degradation)."""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning, SolverError
from repro.experiments.scenarios import custom_context
from repro.resilience import chaos
from repro.resilience.degradation import (
    DegradationEvent,
    DegradationReport,
    LadderPolicy,
    Rung,
    default_ladder,
    solve_with_ladder,
)
from repro.topology.generators import ring_topology


@pytest.fixture
def certificate_miss_instance():
    """A feasible instance whose PM seed misses the certificate, so the
    exact rung runs the HiGHS MILP: capacity 135, controllers 0 and 3
    failed."""
    context = custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=135,
    )
    return context.instance(FailureScenario(frozenset({0, 3})))


class TestReport:
    def test_event_round_trip(self):
        event = DegradationEvent("sparse+warm", "demote", "timeout", 1.25)
        assert DegradationEvent.from_dict(event.to_dict()) == event

    def test_report_round_trip(self):
        report = DegradationReport(rung_used="pm")
        report.record("sparse+warm", "retry", "timeout", 0.5)
        report.record("sparse+warm", "demote", "timeout", 0.5)
        report.record("pm", "accept", "feasible", 0.1)
        restored = DegradationReport.from_dict(report.to_dict())
        assert restored.rung_used == "pm"
        assert restored.events == report.events
        assert restored.degraded
        assert len(restored.demotions) == 1

    def test_clean_report_not_degraded(self):
        report = DegradationReport()
        report.record("sparse+warm", "accept", "feasible")
        assert not report.degraded
        assert report.demotions == ()

    def test_summary_names_rung(self):
        report = DegradationReport(rung_used="pm")
        report.record("sparse+warm", "demote", "dead")
        assert "rung_used=pm" in report.summary()


class TestPolicy:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown rung solver"):
            Rung("custom", "does-not-exist")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one rung"):
            LadderPolicy(rungs=())

    def test_default_ladder_shape(self):
        policy = default_ladder(time_limit_s=10.0, retries=2)
        assert [r.solver for r in policy.rungs] == ["sparse+warm", "pm"]
        assert policy.rungs[0].retries == 2
        assert policy.rungs[-1].time_limit_s is None

    def test_policy_pickles(self):
        policy = default_ladder()
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy


class TestSolveWithLadder:
    def test_primary_rung_clean(self, small_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            solution, report = solve_with_ladder(
                small_instance, default_ladder(time_limit_s=30.0)
            )
        assert solution.feasible
        assert report.rung_used == "sparse+warm"
        assert not report.degraded
        assert solution.meta["ladder_rung"] == "sparse+warm"
        assert "degraded" not in solution.meta

    def test_retry_then_demote_to_pm(self, small_instance):
        # retries=1 gives the exact rung 2 attempts.  Two injected
        # timeouts at the solve_optimal entry therefore exhaust it, and
        # the PM rung answers, flagged degraded.
        policy = default_ladder(time_limit_s=30.0, retries=1)
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-timeout", at_call=1, count=2)
        ):
            with pytest.warns(DegradedResultWarning):
                solution, report = solve_with_ladder(small_instance, policy)
        assert report.rung_used == "pm"
        assert [e.action for e in report.events] == ["retry", "demote", "accept"]
        assert [e.rung for e in report.events] == ["sparse+warm", "sparse+warm", "pm"]
        assert solution.meta["degraded"] is True
        assert solution.meta["ladder_rung"] == "pm"
        assert solution.feasible

    def test_terminal_pm_rung(self, small_instance):
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-timeout", at_call=1, count=None)
        ):
            with pytest.warns(DegradedResultWarning):
                solution, report = solve_with_ladder(
                    small_instance, default_ladder(time_limit_s=30.0, retries=0)
                )
        assert report.rung_used == "pm"
        assert solution.algorithm == "pm"
        assert len(report.demotions) == 1

    def test_validation_rejection_demotes(self, certificate_miss_instance):
        # The PM seed misses the certificate here, so the exact rung runs
        # HiGHS, whose corrupted vector maps every switch onto controller
        # 7 and violates Eq. 3: the validator rejects it, demoting to PM.
        with chaos.inject(
            chaos.Fault("highs.solve.x", "corrupt-solution", count=None),
        ):
            with pytest.warns(DegradedResultWarning):
                solution, report = solve_with_ladder(
                    certificate_miss_instance,
                    default_ladder(time_limit_s=30.0, retries=0),
                )
        assert report.rung_used == "pm"
        demotions = {e.rung: e.reason for e in report.demotions}
        assert "validation" in demotions["sparse+warm"]
        assert "eq3-capacity" in demotions["sparse+warm"]
        assert solution.feasible

    def test_all_rungs_failing_raises(self, small_instance):
        policy = LadderPolicy(
            rungs=(Rung("sparse+warm", "sparse+warm", 30.0),)
        )
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-timeout", at_call=1, count=None)
        ):
            with pytest.raises(SolverError, match="all 1 ladder rungs failed"):
                solve_with_ladder(small_instance, policy)

    def test_ladder_matches_direct_solve(self, small_instance):
        from repro.fmssm.optimal import solve_optimal

        direct = solve_optimal(small_instance, time_limit_s=30.0)
        laddered, _ = solve_with_ladder(
            small_instance, default_ladder(time_limit_s=30.0)
        )
        assert laddered.mapping == direct.mapping
        assert laddered.sdn_pairs == direct.sdn_pairs
        assert laddered.meta["objective"] == direct.meta["objective"]
