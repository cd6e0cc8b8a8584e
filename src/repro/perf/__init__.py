"""Performance layer: the parallel sweep and what makes it cheap.

Failure sweeps are embarrassingly parallel across scenarios × algorithms,
and every scenario of a sweep shares the same (topology, counter, flow
population) — so ``p̄`` is materialized once, in the context's
:class:`~repro.fmssm.build.GroundingIndex` (filled by
:meth:`~repro.experiments.scenarios.ExperimentContext.materialize_table`),
and every scenario grounds from it (a pool worker builds its own from
the model it unpickles).  This package holds the machinery around that
index:

:mod:`repro.perf.sweep`
    :func:`~repro.perf.sweep.parallel_sweep`, the one way to run a list
    of scenarios (serial is ``max_workers=1``): only sweeps holding an
    exact solve fan out over the process pool; heuristic-only sweeps
    run serially.

:mod:`repro.perf.compile`
    Problem P′ in sparse standard form — the one formulation the exact
    solver hands to HiGHS — with per-shape structural caching across
    the scenarios of a sweep.

:mod:`repro.perf.kernels`
    NumPy-vectorized kernels for the four non-exact algorithms (PM, PG,
    RetroFlow, Nearest) over the :class:`~repro.perf.kernels.
    InstanceArrays` view — what every public solver entry runs, bit-
    identical to the reference implementations kept beside each
    algorithm.

:mod:`repro.perf.executor`
    The sweep process pool: a :class:`~repro.perf.executor.
    SweepExecutor` runs every pool sweep (one scoped to the call when
    the caller passes none) and keeps its workers, with their decoded
    contexts and plans, alive across the sweeps a caller runs on it.

:mod:`repro.perf.store`
    Cross-run solve memoization: a disk-backed
    :class:`~repro.perf.store.SolveStore` shared by concurrent parent
    processes and successive runs.  Records are keyed by scenario —
    network digest, failed-controller set and the code's identity — so
    a hit replays bit-identically to a fresh solve without grounding
    the scenario, and a store written by other code misses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.perf.executor": ("SweepExecutor",),
        "repro.perf.compile": (
            "CompiledFMSSM",
            "FMSSMCompiler",
            "compile_fmssm",
            "default_compiler",
        ),
        "repro.perf.kernels": (
            "InstanceArrays",
            "instance_arrays",
            "prepare_instance",
            "solve_nearest_array",
            "solve_pg_array",
            "solve_pm_array",
            "solve_retroflow_array",
        ),
        "repro.perf.store": (
            "SolveStore",
            "code_identity",
            "scenario_key",
            "solve_key",
        ),
        "repro.perf.sweep": ("SweepPlan", "parallel_sweep", "store_summary"),
    },
)
