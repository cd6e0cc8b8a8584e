"""Shared fixtures for the benchmark harness.

The Optimal solver is the expensive part, so each failure sweep (with all
four paper algorithms, Optimal included) runs exactly once per pytest
session and is shared by every figure benchmark.

The harness also tracks wall-clock per stage — context build, grounding
index fill, each sweep, and per-algorithm solve totals — and writes the
machine-readable ``BENCH_headline.json`` at the repo root when the
session ends, so the perf trajectory is recorded by every benchmark run
(and checked in CI).  See ``docs/performance.md`` for the format.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.control.failures import FailureScenario
from repro.experiments.runner import PAPER_ALGORITHMS, run_failure_sweep
from repro.experiments.scenarios import default_att_context

#: Per-case ceiling for the exact solver in benchmarks.
OPTIMAL_TIME_LIMIT_S = 120.0

#: Where the machine-readable stage report lands (repo root).
BENCH_HEADLINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_headline.json"

#: Wall-clock seconds per named stage, accumulated across the session.
_STAGES: dict[str, float] = {}
#: Total solver seconds per algorithm, accumulated across all sweeps.
_ALGORITHM_SOLVE_S: dict[str, float] = {}
#: Solves per sweep answered by ``solve_optimal``'s fallback (PM or its
#: seed) — a mass degradation here means the exact
#: solver silently died and "performance" is really the heuristic's.
_DEGRADED_SOLVES: dict[str, int] = {}
#: Cross-run solve-store counters (hits/misses per memo stage) —
#: written as the headline's ``store`` section so CI can see whether the
#: memo-hit stage actually replayed from the store or quietly re-solved.
_STORE: dict[str, object] = {}
#: Exact-solve route counts of the multi-failure exact stage — written
#: as the headline's ``exact`` section so a seed regression that sends
#: scenarios back to the MILP shows as a count, not only as a slower
#: stage.
_EXACT: dict[str, object] = {}
#: The route each sweep stage took (serial, pool, warm pool, ...) —
#: written as the headline's ``routes`` section so a stage's time can
#: be read against what actually ran.
_ROUTES: dict[str, str] = {}


def record_stage(name: str, seconds: float) -> None:
    """Accumulate wall-clock seconds under a stage name."""
    _STAGES[name] = _STAGES.get(name, 0.0) + seconds


def record_sweep(name: str, seconds: float, results) -> None:
    """Record a sweep's wall clock, per-algorithm solve time, and how
    many of its solves degraded to a fallback answer."""
    record_stage(name, seconds)
    degraded = 0
    for result in results:
        for algorithm, solution in result.solutions.items():
            _ALGORITHM_SOLVE_S[algorithm] = (
                _ALGORITHM_SOLVE_S.get(algorithm, 0.0) + solution.solve_time_s
            )
            if solution.meta.get("degraded") or (
                solution.meta.get("solver") == "pm-fallback"
            ):
                degraded += 1
    _DEGRADED_SOLVES[name] = _DEGRADED_SOLVES.get(name, 0) + degraded


def record_store(summary: dict[str, object]) -> None:
    """Record solve-store hit/miss counters for the headline.

    Callers prefix their keys by stage (``memo_hits``,
    ``campaign_hits``, ...); the merged dict lands as the headline's
    ``store`` section.
    """
    _STORE.update(summary)


def record_exact(summary: dict[str, object]) -> None:
    """Record how many of an exact stage's solves certified without a MILP.

    Callers prefix their keys by stage (``multi_n40_scenarios``,
    ``multi_n40_precert``); the merged dict lands as the headline's
    ``exact`` section.
    """
    _EXACT.update(summary)


def record_route(stage: str, route: str) -> None:
    """Record which sweep route a timed stage ran."""
    _ROUTES[stage] = route


def sweep_route(results) -> str:
    """The route a sweep's results were stamped with: the reason of the
    sweep's ``mode`` event, or ``"serial"`` for results of the plain
    serial runner, which stamps none."""
    for result in results:
        if result.degradation is None:
            continue
        for event in result.degradation.events:
            if event.source == "sweep" and event.action == "mode":
                return event.reason
    return "serial"


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_headline.json if any stage was timed this session."""
    if not _STAGES:
        return
    payload = {
        "schema": 1,
        "unit": "seconds",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "stages": dict(sorted(_STAGES.items())),
        "per_algorithm_solve_s": dict(sorted(_ALGORITHM_SOLVE_S.items())),
        "degraded_solves": dict(sorted(_DEGRADED_SOLVES.items())),
        "sweep_total_s": sum(v for k, v in _STAGES.items() if k.startswith("sweep_")),
    }
    if _STORE:
        payload["store"] = dict(sorted(_STORE.items()))
    if _EXACT:
        payload["exact"] = dict(sorted(_EXACT.items()))
    if _ROUTES:
        payload["routes"] = dict(sorted(_ROUTES.items()))
    BENCH_HEADLINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _timed(stage: str, thunk):
    start = time.perf_counter()
    value = thunk()
    record_stage(stage, time.perf_counter() - start)
    return value


@pytest.fixture(scope="session")
def context():
    """The paper's default evaluation context, with its grounding index filled."""
    ctx = _timed("context_build_s", default_att_context)
    _timed("table_build_s", ctx.materialize_table)
    return ctx


def _sweep_fixture(context, n_failures: int):
    start = time.perf_counter()
    results = run_failure_sweep(context, n_failures, PAPER_ALGORITHMS, OPTIMAL_TIME_LIMIT_S)
    record_sweep(f"sweep_{n_failures}_s", time.perf_counter() - start, results)
    return results


@pytest.fixture(scope="session")
def sweep_1(context):
    """All 6 one-failure cases, all four algorithms."""
    return _sweep_fixture(context, 1)


@pytest.fixture(scope="session")
def sweep_2(context):
    """All 15 two-failure cases, all four algorithms."""
    return _sweep_fixture(context, 2)


@pytest.fixture(scope="session")
def sweep_3(context):
    """All 20 three-failure cases, all four algorithms."""
    return _sweep_fixture(context, 3)


@pytest.fixture(scope="session")
def instance_13_20(context):
    """The paper's flagship two-failure instance."""
    return context.instance(FailureScenario(frozenset({13, 20})))


@pytest.fixture(scope="session")
def instance_5_13_20(context):
    """A tight three-failure instance."""
    return context.instance(FailureScenario(frozenset({5, 13, 20})))
