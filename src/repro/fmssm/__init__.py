"""FMSSM problem: instance data, IP formulation, evaluation, Optimal solver."""

from repro.fmssm.build import GroundingIndex, build_instance, default_lambda
from repro.fmssm.evaluation import (
    RecoveryEvaluation,
    evaluate_batch,
    evaluate_solution,
    verify_solution,
)
from repro.fmssm.formulation import FMSSMVariables, build_fmssm_model
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import extract_solution, solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.fmssm.two_stage import solve_two_stage

__all__ = [
    "FMSSMInstance",
    "GroundingIndex",
    "build_instance",
    "default_lambda",
    "build_fmssm_model",
    "FMSSMVariables",
    "RecoverySolution",
    "RecoveryEvaluation",
    "evaluate_solution",
    "evaluate_batch",
    "verify_solution",
    "solve_optimal",
    "solve_two_stage",
    "extract_solution",
]
