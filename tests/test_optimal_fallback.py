"""The exact solve's one fallback policy, and the audit trail it feeds.

:func:`repro.fmssm.optimal.solve_optimal` decides every degradation of
an exact solve: a MILP timeout with no incumbent answers with the seed,
and a solver fault — a :class:`~repro.exceptions.SolverError`, or an
answer the independent validator rejects — answers with PM.  Both are
flagged ``meta["degraded"]`` with a typed ``meta["fallback"]`` cause and
raise a :class:`~repro.exceptions.DegradedResultWarning`; a fault that
is not a solver's propagates.
"""

from __future__ import annotations

import warnings

import pytest

from repro.control.failures import FailureScenario
from repro.exceptions import ChaosError, DegradedResultWarning
from repro.experiments.runner import DegradationEvent, DegradationReport
from repro.experiments.scenarios import custom_context
from repro.fmssm import optimal as optimal_module
from repro.fmssm.optimal import solve_optimal
from repro.lp.solution import SolveResult, SolveStatus
from repro.perf.sweep import parallel_sweep
from repro.pm.algorithm import solve_pm
from repro.resilience import chaos
from repro.resilience.validate import validate_solution
from repro.topology.generators import ring_topology


#: Controllers 0 and 3 failed.
CERTIFICATE_MISS = FailureScenario(frozenset({0, 3}))


@pytest.fixture
def certificate_miss_context():
    """Capacity 135, under which :data:`CERTIFICATE_MISS` is feasible but
    its PM seed misses the certificate, so the exact solve runs the
    HiGHS MILP."""
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=135,
    )


@pytest.fixture
def certificate_miss_instance(certificate_miss_context):
    return certificate_miss_context.instance(CERTIFICATE_MISS)


class TestReport:
    def test_clean_report_not_degraded(self):
        report = DegradationReport()
        report.record("sweep", "mode", "serial: max_workers=1")
        assert not report.degraded

    def test_fallback_event_is_degraded(self):
        report = DegradationReport()
        report.record("sweep", "mode", "warm-pool")
        report.record("optimal", "pool-crash", "process pool broke")
        assert report.degraded
        assert report.events[-1] == DegradationEvent(
            "optimal", "pool-crash", "process pool broke"
        )

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation cause"):
            DegradationEvent("optimal", "demote", "no such cause")


class TestSolveOptimalFallback:
    def test_clean_solve_is_not_degraded(self, small_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            solution = solve_optimal(small_instance, time_limit_s=30.0)
        assert solution.feasible
        assert "degraded" not in solution.meta
        assert "fallback" not in solution.meta

    def test_solver_error_answers_with_pm(self, small_instance):
        with chaos.inject(chaos.Fault("optimal.solve", "raise-timeout")):
            with pytest.warns(DegradedResultWarning, match="solver-error"):
                solution = solve_optimal(small_instance, time_limit_s=30.0)
        pm = solve_pm(small_instance, enforce_delay=True)
        assert solution.algorithm == "pm"
        assert solution.feasible
        assert solution.mapping == pm.mapping
        assert solution.sdn_pairs == pm.sdn_pairs
        assert solution.meta["degraded"] is True
        assert solution.meta["solver"] == "pm-fallback"
        assert solution.meta["fallback"] == "solver-error"
        assert "SolverTimeoutError" in solution.meta["fallback_reason"]
        assert validate_solution(small_instance, solution, enforce_delay=True).ok

    def test_persistent_solver_error_answers_with_pm(self, small_instance):
        # Every exact solve raises: the PM answer does not pass through
        # the faulted entry, so it is the last word, not another failure.
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-timeout", count=None)
        ):
            with pytest.warns(DegradedResultWarning, match="solver-error"):
                solution = solve_optimal(small_instance, time_limit_s=30.0)
        assert solution.algorithm == "pm"
        assert solution.feasible
        assert solution.meta["fallback"] == "solver-error"
        assert solution.mapping == solve_pm(small_instance, enforce_delay=True).mapping

    def test_validation_rejection_answers_with_pm(self, certificate_miss_instance):
        # HiGHS runs here, and its corrupted vector maps every switch
        # onto controller 7, violating Eq. 3: the validator rejects it.
        with chaos.inject(
            chaos.Fault("highs.solve.x", "corrupt-solution", count=None),
        ):
            with pytest.warns(DegradedResultWarning, match="validation"):
                solution = solve_optimal(certificate_miss_instance, time_limit_s=30.0)
        assert solution.feasible
        assert solution.meta["fallback"] == "validation"
        assert "eq3-capacity" in solution.meta["fallback_reason"]
        assert validate_solution(
            certificate_miss_instance, solution, enforce_delay=True
        ).ok

    def test_timeout_answers_with_seed(self, certificate_miss_instance, monkeypatch):
        def timed_out(form, **kwargs):
            return SolveResult(status=SolveStatus.TIMEOUT, solver="highs", wall_time_s=1.0)

        monkeypatch.setattr(optimal_module, "solve_form_with_highs", timed_out)
        with pytest.warns(DegradedResultWarning, match="no incumbent"):
            solution = solve_optimal(certificate_miss_instance, time_limit_s=1.0)
        assert solution.feasible
        assert solution.algorithm == "optimal"
        assert solution.meta["solver"] == "pm-fallback"
        assert solution.meta["fallback"] == "timeout"
        assert "pm seed" in solution.meta["fallback_reason"]

    def test_non_solver_fault_propagates(self, small_instance):
        with chaos.inject(chaos.Fault("optimal.solve", "raise-error")):
            with pytest.raises(ChaosError):
                solve_optimal(small_instance, time_limit_s=30.0)

    def test_sweep_answer_matches_direct_solve(
        self, certificate_miss_context, certificate_miss_instance
    ):
        # The sweep's exact answer is solve_optimal's, with nothing
        # wrapped around it.
        direct = solve_optimal(certificate_miss_instance, time_limit_s=30.0)
        (result,) = parallel_sweep(
            certificate_miss_context, (CERTIFICATE_MISS,), ("optimal",),
            max_workers=1, optimal_time_limit_s=30.0,
        )
        swept = result.solutions["optimal"]
        assert direct.meta["solver"] == "highs"
        assert swept.mapping == direct.mapping
        assert swept.sdn_pairs == direct.sdn_pairs
        assert swept.meta["objective"] == direct.meta["objective"]
        assert not result.degradation.degraded
