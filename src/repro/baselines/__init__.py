"""Baseline recovery algorithms and the algorithm registry.

Importing this package registers the paper's four algorithms (plus the
extras) under their benchmark names:

========== ==========================================================
``pm``        ProgrammabilityMedic heuristic (Algorithm 1)
``optimal``   exact solution of P′ (HiGHS), full-recovery requirement
``retroflow`` greedy switch-level hybrid baseline [6]
``pg``        flow-level middle-layer baseline [9]
``nearest``   naive nearest-controller whole-switch remapping
``retroflow-ip`` exact switch-level ceiling (ablations)
``optimal-two-stage`` lexicographic exact solve (no weight needed)
``pm-strict``    PM honoring the delay bound Eq. 14 (ablations)
``pm-greedy``    PM with p̄-greedy phase 2 (ablations)
========== ==========================================================
"""

from repro.baselines.base import (
    TIME_LIMITED_ALGORITHMS,
    RecoveryAlgorithm,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    run_algorithm,
)
from repro.baselines.nearest import solve_nearest
from repro.baselines.pg import solve_pg
from repro.baselines.retroflow import solve_retroflow, solve_retroflow_ip
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.two_stage import solve_two_stage
from repro.pm.algorithm import solve_pm

__all__ = [
    "RecoveryAlgorithm",
    "TIME_LIMITED_ALGORITHMS",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "run_algorithm",
    "solve_retroflow",
    "solve_retroflow_ip",
    "solve_pg",
    "solve_nearest",
]

register_algorithm("pm", solve_pm)
register_algorithm("optimal", solve_optimal)
register_algorithm("optimal-two-stage", solve_two_stage)
register_algorithm("retroflow", solve_retroflow)
register_algorithm("retroflow-ip", solve_retroflow_ip)
register_algorithm("pg", solve_pg)
register_algorithm("nearest", solve_nearest)
register_algorithm("pm-strict", lambda instance: solve_pm(instance, enforce_delay=True))
register_algorithm("pm-greedy", lambda instance: solve_pm(instance, phase2_order="greedy"))
