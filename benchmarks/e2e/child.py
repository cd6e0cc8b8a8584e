"""One child process of the end-to-end benchmark.

    python3 child.py CONFIG_JSON

``run.py`` starts one child per unit of set-up it wants to measure.  The
child times its set-up (interpreter start, imports, context, coefficient
table and, on a store workload, opening the store), then sends its
requests one after another, probing machine speed between them
(``calibrate.py``).  It records its peak memory, checks every answer
and writes a JSON report.  With tracing on it also records spans around
each call into the program and writes them as JSONL.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

from calibrate import PROBE_REF_S, Prober, scale
from spans import Tracer, median
from workloads import (
    OPTIMAL_TIME_LIMIT_S,
    WORKLOADS,
    build_context,
    count_failures,
    load_expected,
    universe,
)

#: Span name of each algorithm's solve call.
SOLVE_SPAN = {
    "pm": "pm.solve",
    "retroflow": "baselines.retroflow.solve",
    "pg": "baselines.pg.solve",
    "optimal": "fmssm.optimal.solve",
}
#: Probes taken right after set-up, to scale it.
SETUP_PROBES = 3


def traced_scenario(tracer, context, scenario, algorithms):
    """``run_scenario`` made one call at a time, each under its span."""
    from repro.baselines import get_algorithm
    from repro.experiments.runner import ScenarioResult
    from repro.fmssm.evaluation import evaluate_batch
    from repro.fmssm.optimal import solve_optimal
    from repro.perf.kernels import prepare_instance

    with tracer.span("request"):
        with tracer.span("fmssm.build.instance"):
            instance = context.instance(scenario)
        with tracer.span("perf.kernels.prepare"):
            prepare_instance(instance)
        result = ScenarioResult(scenario=scenario)
        for name in algorithms:
            with tracer.span(SOLVE_SPAN[name]):
                if name == "optimal":
                    solution = solve_optimal(instance, time_limit_s=OPTIMAL_TIME_LIMIT_S)
                else:
                    solution = get_algorithm(name)(instance)
            result.solutions[name] = solution
        with tracer.span("fmssm.evaluation.evaluate"):
            evaluations = evaluate_batch(instance, list(result.solutions.values()))
        result.evaluations = dict(zip(result.solutions, evaluations))
    return result


def request_fn(workload, context, store, tracer, counters):
    """The callable that serves one request, ``(scenario, traced) ->
    result``.  Traced store requests are one ``perf.sweep`` span and add
    the store provenance the sweep returns to ``counters``."""
    from repro.experiments.runner import run_scenario
    from repro.perf.sweep import parallel_sweep, store_summary

    if workload.store:
        def serve(scenario, traced):
            with tracer.span("perf.sweep") if traced else nullcontext():
                result = parallel_sweep(
                    context, [scenario], workload.algorithms,
                    optimal_time_limit_s=OPTIMAL_TIME_LIMIT_S, store=store,
                )[0]
            if tracer:
                summary = store_summary([result]) or {}
                summary["decoded_hits"] = summary.get("decoded", {}).get("hits", 0)
                for key in ("hits", "misses", "dedup", "decoded_hits"):
                    counters[f"store_{key}"] = counters.get(f"store_{key}", 0) + summary.get(key, 0)
            return result
    else:
        def serve(scenario, traced):
            if traced:
                return traced_scenario(tracer, context, scenario, workload.algorithms)
            with tracer.span("request.untraced") if tracer else nullcontext():
                return run_scenario(
                    context, scenario, workload.algorithms,
                    optimal_time_limit_s=OPTIMAL_TIME_LIMIT_S,
                )
    return serve


def run_pass(serve, scenarios, prober, tracer, intervals):
    """Closed loop: each request is sent when the previous one returned,
    with a probe between two requests when one is due.  Traced, the odd
    requests are taken apart into spans and the even ones stay whole,
    so one run yields both the layer split and the tracing overhead."""
    outcomes = []
    for i, scenario in enumerate(scenarios):
        prober.due()
        start = time.perf_counter()
        try:
            result = serve(scenario, tracer is not None and i % 2 == 1)
        except Exception as exc:  # counted as failed solves, never hidden
            result = exc
        intervals.append((start, time.perf_counter()))
        outcomes.append((scenario, result))
    return outcomes


def exact_counters(outcomes) -> dict:
    """Route and certificate counts of the exact solves."""
    counters: dict = {"optimal_solves": 0, "optimal_certified": 0}
    for _, result in outcomes:
        solution = None if isinstance(result, BaseException) else result.solutions.get("optimal")
        if solution is None:
            continue
        counters["optimal_solves"] += 1
        counters["optimal_certified"] += bool(solution.meta.get("certificate"))
        key = f"optimal_route_{solution.meta.get('solver')}"
        counters[key] = counters.get(key, 0) + 1
    return counters


def main(cfg: dict) -> None:
    spawn = cfg["spawn_t"]
    workload = WORKLOADS[cfg["workload"]]
    tracer = Tracer() if cfg["trace"] else None
    timed = (lambda name: tracer.span(name)) if tracer else (lambda name: nullcontext())
    if tracer:
        tracer.install_gc_hook()

    # -- set-up: interpreter start to ready ------------------------------
    import_start = time.perf_counter() - (time.monotonic() - spawn)
    from repro.experiments.runner import run_scenario  # noqa: F401  (set-up cost)
    from repro.perf.store import SolveStore
    from repro.perf.sweep import parallel_sweep
    from repro.resilience.validate import validate_solution

    if tracer:
        tracer.add("import", import_start, time.perf_counter())
    with timed("experiments.context_build"):
        context = build_context(workload.network)
    with timed("perf.coefficients.table_build"):
        context.materialize_table()
    store = None
    if workload.store:
        with timed("perf.store.open"):
            store = SolveStore(cfg["store_dir"])
    setup_s = time.monotonic() - spawn

    everything = universe(workload, context)
    if cfg.get("prefill"):
        parallel_sweep(
            context, workload.prefill(everything), workload.algorithms,
            optimal_time_limit_s=OPTIMAL_TIME_LIMIT_S, store=store,
        )
        return

    prober = Prober()
    for _ in range(SETUP_PROBES):
        prober.now()
    setup_probe = median([s for _, s in prober.probes])

    # -- the timed requests ------------------------------------------------
    gc_from = len(tracer.gc_pauses) if tracer else 0
    bytes_before = store.record_bytes() if (tracer and store) else 0
    intervals: list[tuple[float, float]] = []
    counters: dict = {}
    checked = []
    for number, scenarios in enumerate(workload.inputs(everything, cfg["seed"], cfg["child"])):
        if number:
            context = build_context(workload.network)
            context.materialize_table()
        serve = request_fn(workload, context, store, tracer, counters)
        checked.append((context, run_pass(serve, scenarios, prober, tracer, intervals)))
    prober.now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        pauses = tracer.gc_pauses[gc_from:]
        counters["gc_pause_s"] = sum(p for _, p in pauses)
        counters["gc_gen2_count"] = sum(g == 2 for g, _ in pauses)
        counters["gc_max_pause_s"] = max((p for _, p in pauses), default=0.0)
        counters.update(exact_counters([o for _, outs in checked for o in outs]))
        if store:
            counters["store_bytes_written"] = store.record_bytes() - bytes_before

    # -- correctness ------------------------------------------------------
    expected = load_expected(workload)
    attempted = failed = 0
    reasons: list[str] = []
    for ctx, outs in checked:
        def validate(scenario, algorithm, solution, ctx=ctx):
            # Heuristic plans must equal the validated serial oracle's
            # plan; exact plans are compared by value, so validate them.
            if algorithm != "optimal":
                return True
            return validate_solution(ctx.instance(scenario), solution, enforce_delay=True).ok

        a, f, r = count_failures(outs, workload.algorithms, expected, validate)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r

    report = {
        "setup_s": setup_s * PROBE_REF_S / setup_probe,
        "latencies": scale(intervals, prober.probes),
        "probe_s": median([s for _, s in prober.probes]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:5],
        "counters": counters,
    }
    with open(cfg["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if tracer:
        tracer.remove_gc_hook()
        tracer.write_jsonl(cfg["trace_file"], workload=workload.name, child=cfg["child"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
    # Every file is written and closed by now.  Freeing a heap of cached
    # instances object by object takes seconds and measures nothing.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)
