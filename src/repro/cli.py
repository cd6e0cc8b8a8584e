"""Command-line interface: ``repro-pm`` / ``python -m repro``.

Subcommands regenerate the paper's artifacts from the terminal::

    repro-pm table3                      # Table III
    repro-pm fig --failures 2            # Fig. 5 data as text tables
    repro-pm fig7                        # computation-time comparison
    repro-pm run --failed 13,20          # one scenario, all algorithms
    repro-pm info                        # setup summary
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.control.failures import FailureScenario
from repro.experiments.figures import failure_figure_data, fig7_data, headline_ratios
from repro.experiments.report import render_fig7, render_figure, render_table, render_table3
from repro.experiments.runner import PAPER_ALGORITHMS, run_scenario
from repro.experiments.scenarios import default_att_context
from repro.experiments.tables import table3_data

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-pm",
        description="ProgrammabilityMedic (ICDCS 2021) reproduction CLI",
    )
    parser.add_argument(
        "--capacity", type=int, default=500,
        help="controller processing ability (paper: 500)",
    )
    parser.add_argument(
        "--counter", choices=("lfa", "bounded", "dag"), default="lfa",
        help="path-programmability counting strategy",
    )
    parser.add_argument(
        "--optimal-time-limit", type=float, default=120.0,
        help="seconds before Optimal gives up on a case",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "directory of a cross-run solve store: sweeps memoize their "
            "solves there and replay them bit-identically on later runs "
            "(fig/fig7/export commands)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="summarize the default evaluation setup")
    sub.add_parser("table3", help="regenerate Table III")

    fig = sub.add_parser("fig", help="regenerate Fig. 4/5/6 data")
    fig.add_argument("--failures", type=int, choices=(1, 2, 3), required=True)
    fig.add_argument(
        "--algorithms", default=",".join(PAPER_ALGORITHMS),
        help="comma-separated algorithm names",
    )

    sub.add_parser("fig7", help="regenerate Fig. 7 (computation time)")

    run = sub.add_parser("run", help="run one failure scenario")
    run.add_argument("--failed", required=True, help="comma-separated controller ids")
    run.add_argument(
        "--algorithms", default=",".join(PAPER_ALGORITHMS),
        help="comma-separated algorithm names",
    )

    export = sub.add_parser(
        "export", help="write Fig. 4/5/6 data to a JSON or CSV file"
    )
    export.add_argument("--failures", type=int, choices=(1, 2, 3), required=True)
    export.add_argument("--out", required=True, help="output path (.json or .csv)")
    export.add_argument(
        "--algorithms", default=",".join(PAPER_ALGORITHMS),
        help="comma-separated algorithm names",
    )

    timeline = sub.add_parser(
        "timeline", help="simulate the recovery timeline for one scenario"
    )
    timeline.add_argument("--failed", required=True, help="comma-separated controller ids")
    timeline.add_argument(
        "--algorithms", default="retroflow,pg,pm",
        help="comma-separated algorithm names (no 'optimal')",
    )
    timeline.add_argument(
        "--detection-ms", type=float, default=100.0,
        help="failure-detection (echo timeout) delay in ms",
    )

    successive = sub.add_parser(
        "successive", help="fail controllers one at a time and re-solve"
    )
    successive.add_argument(
        "--order", required=True, help="comma-separated controller ids in failure order"
    )
    successive.add_argument("--algorithm", default="pm")
    return parser


def _context(args: argparse.Namespace):
    return default_att_context(capacity=args.capacity, counter_strategy=args.counter)


def _store(args: argparse.Namespace):
    if not getattr(args, "store", None):
        return None
    from repro.perf.store import SolveStore

    return SolveStore(args.store)


def _cmd_info(args: argparse.Namespace) -> int:
    context = _context(args)
    topo = context.topology
    loads = context.plane.domain_loads(context.flows)
    spare = context.plane.spare_capacity(context.flows)
    print(f"topology: {topo.name} ({topo.n_nodes} nodes, {topo.n_directed_links} directed links)")
    print(f"flows: {len(context.flows)} (all ordered pairs, hop-count shortest paths)")
    print(f"controllers: {list(context.plane.controller_ids)} at capacity {args.capacity}")
    print(f"domain loads: {loads}")
    print(f"spare capacity: {spare}")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    print(render_table3(table3_data(_context(args))))
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    data = failure_figure_data(
        _context(args),
        args.failures,
        algorithms,
        optimal_time_limit_s=args.optimal_time_limit,
        store=_store(args),
    )
    print(render_figure(data))
    ratios = headline_ratios(data)
    if ratios["max_pct"] is not None:
        print(
            f"\nPM total programmability vs RetroFlow: "
            f"{ratios['min_pct']:.0f}%..{ratios['max_pct']:.0f}% "
            f"(max at case {ratios['argmax_case']})"
        )
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    print(
        render_fig7(
            fig7_data(
                _context(args),
                optimal_time_limit_s=args.optimal_time_limit,
                store=_store(args),
            )
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    failed = frozenset(int(c.strip()) for c in args.failed.split(",") if c.strip())
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    context = _context(args)
    result = run_scenario(
        context,
        FailureScenario(failed),
        algorithms,
        optimal_time_limit_s=args.optimal_time_limit,
    )
    rows = []
    for name in algorithms:
        ev = result.evaluations[name]
        if not ev.feasible:
            rows.append((name, "n/a", "n/a", "n/a", "n/a", f"{ev.solve_time_s:.3f}s"))
            continue
        rows.append(
            (
                name,
                ev.least_programmability,
                ev.total_programmability,
                f"{100 * ev.recovery_fraction:.1f}%",
                f"{ev.per_flow_overhead_ms:.3f}ms",
                f"{ev.solve_time_s:.3f}s",
            )
        )
    print(f"scenario {result.name}")
    print(
        render_table(
            ("algorithm", "least pro", "total pro", "recovered", "overhead", "time"),
            rows,
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io import write_csv, write_json

    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    data = failure_figure_data(
        _context(args),
        args.failures,
        algorithms,
        optimal_time_limit_s=args.optimal_time_limit,
        store=_store(args),
    )
    if args.out.endswith(".csv"):
        write_csv(args.out, data)
    elif args.out.endswith(".json"):
        write_json(args.out, data)
    else:
        print(f"error: --out must end in .json or .csv: {args.out!r}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.baselines import get_algorithm
    from repro.simulation import TimelineParameters, simulate_recovery_timeline
    from repro.types import FLOWVISOR_PROCESSING_MS

    failed = frozenset(int(c.strip()) for c in args.failed.split(",") if c.strip())
    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    context = _context(args)
    instance = context.instance(FailureScenario(failed))
    rows = []
    for name in algorithms:
        solution = get_algorithm(name)(instance)
        parameters = TimelineParameters(
            detection_delay_ms=args.detection_ms,
            middle_layer_ms=FLOWVISOR_PROCESSING_MS if name == "pg" else 0.0,
        )
        report = simulate_recovery_timeline(instance, solution, parameters)
        rows.append(
            (
                name,
                len(report.flow_recovered_ms),
                f"{report.computation_done_ms:.1f}",
                f"{report.mean_flow_recovery_ms:.0f}",
                f"{report.p95_flow_recovery_ms:.0f}",
                f"{report.completed_ms:.0f}",
            )
        )
    print(f"recovery timeline after failure {FailureScenario(failed).name} (ms)")
    print(
        render_table(
            ("algorithm", "flows", "compute done", "mean", "p95", "all done"), rows
        )
    )
    return 0


def _cmd_successive(args: argparse.Namespace) -> int:
    from repro.experiments.successive import run_successive

    order = [int(c.strip()) for c in args.order.split(",") if c.strip()]
    context = _context(args)
    stages = run_successive(context, order, algorithm=args.algorithm)
    rows = []
    for stage in stages:
        rows.append(
            (
                "(" + ", ".join(str(c) for c in stage.failed) + ")",
                stage.total_spare,
                stage.recoverable_flows,
                stage.evaluation.least_programmability,
                f"{100 * stage.evaluation.recovery_fraction:.1f}%",
                f"{stage.fairness:.3f}",
            )
        )
    print(f"successive failures, algorithm {args.algorithm!r}")
    print(
        render_table(
            ("failed", "spare", "recoverable", "least r", "recovered", "fairness"),
            rows,
        )
    )
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "table3": _cmd_table3,
    "fig": _cmd_fig,
    "fig7": _cmd_fig7,
    "run": _cmd_run,
    "export": _cmd_export,
    "timeline": _cmd_timeline,
    "successive": _cmd_successive,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
