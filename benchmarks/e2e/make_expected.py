"""Regenerate the committed answers the benchmark checks against.

    python3 benchmarks/e2e/make_expected.py

Runs the serial oracle (``run_scenario`` on a fresh context, as
``run_failure_sweep`` does) over every scenario any workload can draw,
checks each solve with ``validate_solution`` (delay bound enforced for
the exact solver only) and writes ``expected/att-paper.json`` and
``expected/wan.json``.  The exact solves take a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

from workloads import (  # noqa: E402
    WORKLOADS, answer, build_context, degraded, expected_path, universe,
)


def oracle(network: str) -> dict[str, dict[str, list]]:
    from repro.experiments.runner import run_scenario
    from repro.resilience.validate import validate_solution

    context = build_context(network)
    needs: dict[str, set[str]] = {}  # scenario name -> algorithms
    scenarios = {}
    for workload in WORKLOADS.values():
        if workload.network == network:
            for scenario in universe(workload, context):
                scenarios[scenario.name] = scenario
                needs.setdefault(scenario.name, set()).update(workload.algorithms)
    answers: dict[str, dict[str, list]] = {}
    for name, scenario in scenarios.items():
        algorithms = sorted(needs[name])
        result = run_scenario(context, scenario, algorithms, optimal_time_limit_s=120.0)
        instance = context.instance(scenario)
        for algorithm in algorithms:
            solution = result.solutions[algorithm]
            report = validate_solution(instance, solution, enforce_delay=algorithm == "optimal")
            if not report.ok or degraded(result, solution):
                raise SystemExit(f"oracle answer rejected: {name} {algorithm}: {report.summary()}")
            answers.setdefault(algorithm, {})[name] = answer(
                algorithm, solution, result.evaluations[algorithm]
            )
    return answers


def dumps(answers: dict[str, dict[str, list]]) -> str:
    """JSON with one line per scenario answer, so diffs stay readable."""
    tables = []
    for algorithm, table in sorted(answers.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
        tables.append(f" {json.dumps(algorithm)}: {{\n{rows}\n }}")
    legend = json.dumps("serial run_scenario; [feasible, least, total, objective, plan digest]")
    return f'{{"oracle": {legend},\n"answers": {{\n' + ",\n".join(tables) + "\n}}\n"


def main() -> None:
    for network, workload in {w.network: w for w in WORKLOADS.values()}.items():
        path = expected_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(dumps(oracle(network)), encoding="utf-8")
        print(f"wrote {path.relative_to(HERE)}")


if __name__ == "__main__":
    main()
