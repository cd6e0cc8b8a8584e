"""The benchmark's workloads, their seeded inputs and their answer checks.

Importing this module imports nothing from ``repro``: the parent
process only needs the workload table, and the child process times its
own imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: Per-case ceiling of the exact solver, as in the CLI's figure commands.
OPTIMAL_TIME_LIMIT_S = 120.0
#: Waxman WAN size of the ``wan-*`` workloads: 9 controllers, so 129
#: failure sets of 1-3 controllers.
WAN_NODES = 72
#: Child processes per run; each one sets up once, so ``setup_s`` is a
#: median of this many.
MIN_CHILDREN = 3


@dataclass(frozen=True)
class Workload:
    """One named input set and the route it takes through the program.

    Every workload is a closed loop with one client in one process: a
    request is sent when the previous one returned.  A request is one
    failure scenario: ``run_scenario(ctx, s, algorithms)``, or with
    ``store`` a one-scenario ``parallel_sweep(ctx, [s], algorithms,
    store=...)`` (the library runs a single scenario in-process).

    A child makes ``passes`` passes over the whole universe, each in its
    own seeded order and each after the first on a fresh context, so
    every request grounds and solves from scratch.  ``pass_s`` is the
    nominal time of one pass at reference speed; it turns ``--seconds``
    into a number of children, so both sides of a comparison do
    identical work.
    """

    name: str
    network: str  # "att" or "wan"
    failures: tuple[int, ...]
    algorithms: tuple[str, ...]
    passes: int
    pass_s: float
    store: bool = False

    def plan(self, seconds: float) -> int:
        """Child processes for a ``seconds``-long run."""
        return max(MIN_CHILDREN, round(seconds / (self.passes * self.pass_s)))

    def inputs(self, universe: list, seed: int, child: int) -> list[list]:
        """The passes child ``child`` makes: the whole universe in a
        seeded order each time.  The seed changes the order, never the
        amount of work."""
        rng = random.Random(f"{self.name}/{seed}/{child}")
        return [rng.sample(universe, len(universe)) for _ in range(self.passes)]

    def prefill(self, universe: list) -> list:
        """The half of the universe an untimed run stores first.  It is
        the same for every seed, so one filled store serves every run of
        a checkout (``run.py`` keeps it under ``out/``)."""
        rng = random.Random(f"{self.name}/prefill")
        return rng.sample(universe, len(universe) // 2)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "att-paper",
            network="att", failures=(1,), algorithms=("optimal", "retroflow", "pg", "pm"),
            passes=4, pass_s=1.25,
        ),
        Workload(
            "wan-recover",
            network="wan", failures=(1, 2, 3), algorithms=("pm",),
            passes=1, pass_s=3.2,
        ),
        Workload(
            "wan-recover-store",
            network="wan", failures=(1, 2, 3), algorithms=("pm",),
            passes=1, pass_s=3.4, store=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Program inputs (these import repro)
# ----------------------------------------------------------------------
def wan_context(n: int = WAN_NODES):
    """Waxman WAN of ``n`` nodes, as ``benchmarks/bench_scalability.py``
    builds it: one controller per 8 nodes, capacity 1.5x the heaviest
    domain's baseline load."""
    from repro.experiments.scenarios import custom_context
    from repro.flows.demands import all_pairs_flows
    from repro.flows.paths import switch_flow_counts
    from repro.topology.generators import waxman_topology
    from repro.topology.partition import nearest_site_partition

    topology = waxman_topology(n, alpha=0.6, beta=0.35, seed=1)
    sites = topology.nodes[: max(3, n // 8)]
    gamma = switch_flow_counts(all_pairs_flows(topology, weight="hops"))
    worst = max(
        sum(gamma[s] for s in members)
        for members in nearest_site_partition(topology, sites).values()
    )
    return custom_context(topology, controller_sites=sites, capacity=int(worst * 1.5))


def build_context(network: str):
    if network == "att":
        from repro.experiments.scenarios import default_att_context

        return default_att_context()
    return wan_context()


def universe(workload: Workload, context) -> list:
    """Every failure scenario the workload draws from, in canonical order."""
    from repro.control.failures import enumerate_failure_scenarios

    return [
        scenario
        for k in workload.failures
        for scenario in enumerate_failure_scenarios(context.plane, k)
    ]


# ----------------------------------------------------------------------
# Answers and failure counting
# ----------------------------------------------------------------------
def plan_digest(solution) -> str:
    """Short digest of a recovery plan: mapping X, SDN pairs Y and the
    per-pair controllers."""
    blob = repr((
        sorted(solution.mapping.items()),
        sorted(solution.sdn_pairs),
        sorted(solution.pair_controller.items()),
    ))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def answer(algorithm: str, solution, evaluation) -> list:
    """``[feasible, least, total, objective, plan]`` of one solve.

    The exact solver's plan is left out (``None``): alternative optima
    are equally correct, so only its values are compared.
    """
    return [
        bool(evaluation.feasible),
        int(evaluation.least_programmability),
        int(evaluation.total_programmability),
        round(float(evaluation.objective), 9),
        None if algorithm == "optimal" else plan_digest(solution),
    ]


def expected_path(workload: Workload) -> Path:
    return EXPECTED_DIR / ("att-paper.json" if workload.network == "att" else "wan.json")


def load_expected(workload: Workload) -> dict[str, dict[str, list]]:
    """``{algorithm: {scenario name: answer}}`` from the serial oracle."""
    with open(expected_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def degraded(result, solution) -> bool:
    """True when the solve ran on a fallback path (degraded meta,
    ``pm-fallback``, quarantine, or a degraded sweep route)."""
    if solution.meta.get("degraded") or solution.meta.get("solver") == "pm-fallback":
        return True
    if result.meta.get("supervisor", {}).get("quarantined"):
        return True
    return result.degradation is not None and result.degradation.degraded


def count_failures(outcomes, algorithms, expected, validate) -> tuple[int, int, list[str]]:
    """Check every scenario x algorithm solve; return (attempted, failed,
    first few reasons).

    ``outcomes`` holds, per scenario, either ``(scenario, exception)``
    for a request that raised, or ``(scenario, result)``.  A solve fails
    if it raised, is missing, degraded, fails ``validate(scenario,
    algorithm, solution)`` or differs from the ``expected`` answer.
    """
    attempted = failed = 0
    reasons: list[str] = []

    def fail(why: str) -> None:
        nonlocal failed
        failed += 1
        if len(reasons) < 5:
            reasons.append(why)

    for scenario, result in outcomes:
        for algorithm in algorithms:
            attempted += 1
            where = f"{scenario.name} {algorithm}"
            if isinstance(result, BaseException):
                fail(f"{where}: raised {result!r}")
                continue
            solution = result.solutions.get(algorithm)
            evaluation = result.evaluations.get(algorithm)
            if solution is None or evaluation is None:
                fail(f"{where}: missing")
            elif degraded(result, solution):
                fail(f"{where}: degraded")
            elif not validate(scenario, algorithm, solution):
                fail(f"{where}: fails validate_solution")
            elif answer(algorithm, solution, evaluation) != expected[algorithm][scenario.name]:
                fail(f"{where}: {answer(algorithm, solution, evaluation)} != "
                     f"{expected[algorithm][scenario.name]}")
    return attempted, failed, reasons
