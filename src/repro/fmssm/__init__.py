"""FMSSM problem: instance data, evaluation, Optimal and two-stage solvers.

The IP formulation P′ itself is written by :mod:`repro.perf.compile`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fmssm.build": ("GroundingIndex", "build_instance", "default_lambda"),
        "repro.fmssm.evaluation": (
            "RecoveryEvaluation",
            "evaluate_batch",
            "evaluate_solution",
            "verify_solution",
        ),
        "repro.fmssm.instance": ("FMSSMInstance",),
        "repro.fmssm.optimal": ("solve_optimal",),
        "repro.fmssm.solution": ("RecoverySolution",),
        "repro.fmssm.two_stage": ("solve_two_stage",),
    },
)
