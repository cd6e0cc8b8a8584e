"""Resilience layer: survivable, auditable sweeps and solves.

The paper's premise is graceful degradation under failure; this package
applies the same philosophy to the reproduction's own execution
pipeline.  Four pieces:

:mod:`repro.resilience.degradation`
    A configurable **degradation ladder** for exact solves
    (``sparse+warm`` → ``pm``), each rung guarded
    by a time limit and retry-with-backoff, with every demotion recorded
    in a structured :class:`DegradationReport`.
:mod:`repro.resilience.chaos`
    A **fault-injection harness** with sites threaded through the sweep
    engine and every solver route, so the failure paths are first-class
    tested code.
:mod:`repro.resilience.supervisor`
    A **sweep supervisor** around the warm executor: per-unit deadlines
    with hung-worker preemption, retry budgets with poison-scenario
    quarantine to the serial ladder, and closed/open/half-open circuit
    breakers around the exact rungs.
:mod:`repro.resilience.validate`
    An **independent solution validator** checking any
    :class:`~repro.fmssm.solution.RecoverySolution` against the
    instance's constraints (Eqs. 2-6 / 12-14), invoked on every solver
    route's output.

A killed sweep or campaign resumes by running again on the same
:class:`~repro.perf.store.SolveStore`, which is the only persistent
state.  See ``docs/robustness.md`` for the full design.
"""

from repro._lazy import lazy_exports
from repro.resilience import chaos

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.degradation": (
            "DegradationEvent",
            "DegradationReport",
            "LadderPolicy",
            "Rung",
            "default_ladder",
            "solve_with_ladder",
        ),
        "repro.resilience.supervisor": (
            "CircuitBreaker",
            "QuarantineReport",
            "SupervisorPolicy",
            "SweepSupervisor",
        ),
        "repro.resilience.validate": (
            "ValidationReport",
            "Violation",
            "check_solution",
            "validate_solution",
        ),
    },
)
__all__.insert(0, "chaos")
