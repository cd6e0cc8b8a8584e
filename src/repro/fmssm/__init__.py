"""FMSSM problem: instance data, evaluation, Optimal and two-stage solvers.

The IP formulation P′ itself is written by :mod:`repro.perf.compile`.
"""

from repro.fmssm.build import GroundingIndex, build_instance, default_lambda
from repro.fmssm.evaluation import (
    RecoveryEvaluation,
    evaluate_batch,
    evaluate_solution,
    verify_solution,
)
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.fmssm.two_stage import solve_two_stage

__all__ = [
    "FMSSMInstance",
    "GroundingIndex",
    "build_instance",
    "default_lambda",
    "RecoverySolution",
    "RecoveryEvaluation",
    "evaluate_solution",
    "evaluate_batch",
    "verify_solution",
    "solve_optimal",
    "solve_two_stage",
]
