"""Resilience layer: loud, auditable solves and sweeps.

The paper's premise is graceful degradation under failure; this package
applies the same philosophy to the reproduction's own execution
pipeline.  Two pieces:

:mod:`repro.resilience.chaos`
    A **fault-injection harness** with sites threaded through the sweep
    engine and every solver route, so the failure paths are first-class
    tested code.
:mod:`repro.resilience.validate`
    An **independent solution validator** checking any
    :class:`~repro.fmssm.solution.RecoverySolution` against the
    instance's constraints (Eqs. 2-6 / 12-14), invoked on every solver
    route's output.

The policies they test live with the code they guard: an exact solve
decides its own fallback (:func:`~repro.fmssm.optimal.solve_optimal`:
the seed on a timeout, PM on a solver fault), and a pool sweep gives
each task one wall deadline and runs whatever its pool could not finish
once in the parent (:mod:`repro.perf.sweep`).  Each fallback is a typed
:class:`~repro.experiments.runner.DegradationEvent` and a
:class:`~repro.exceptions.DegradedResultWarning`.

A killed sweep or campaign resumes by running again on the same
:class:`~repro.perf.store.SolveStore`, which is the only persistent
state.  See ``docs/robustness.md`` for the full design.
"""

from repro._lazy import lazy_exports
from repro.resilience import chaos

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.resilience.validate": (
            "ValidationReport",
            "Violation",
            "check_solution",
            "validate_solution",
        ),
    },
)
__all__.insert(0, "chaos")
