"""End-to-end benchmark of the ProgrammabilityMedic reproduction.

Run one workload (the last line printed is the JSON result)::

    python3 benchmarks/e2e/run.py --workload wan-recover --seed 1 --seconds 12 --trace 0

Omit ``--workload`` to run all of them and print a table.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones and writes
the spans to ``benchmarks/e2e/out/trace-<workload>-s<seed>.jsonl``;
``run.py summarize FILE...`` prints each layer's self time from such
files.  The workloads, metrics and bounds are listed in
``BENCHMARK.json`` and explained in ``benchmarks/e2e/README.md``.

Each unit of set-up is a fresh child process (``child.py``), and the
children run one after another; this parent only starts them and
reduces their reports to metrics, so it never imports the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import median, percentile, percentile_supported, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: A workload run (all its children) that takes longer than this is killed.
RUN_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(cfg: dict, deadline: float) -> dict:
    """Run one child to completion and return its report (empty when it
    writes none).  A child still running at ``deadline``
    (``time.monotonic()``) is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cfg = dict(cfg, spawn_t=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            stdout=sys.stderr, env=env, timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{cfg['workload']}: child {cfg['child']} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{cfg['workload']}: child {cfg['child']} exited with {proc.returncode}")
    if "report" not in cfg:
        return {}
    with open(cfg["report"], encoding="utf-8") as handle:
        return json.load(handle)


def source_digest() -> str:
    """Digest of the program's sources: a filled store is reused only by
    the code that filled it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prefilled_store(base: dict, deadline: float) -> Path:
    """The workload's half-filled store, made by an untimed child the
    first time a checkout needs it and kept under ``out/``."""
    path = OUT / f"prefilled-{base['workload']}-{source_digest()}"
    if not path.is_dir():
        fresh = OUT / f"{path.name}.{os.getpid()}"
        try:
            run_child(dict(base, prefill=True, child=-1, store_dir=str(fresh)), deadline)
            try:
                fresh.rename(path)
            except OSError:
                pass  # a concurrent run made it first
        finally:
            shutil.rmtree(fresh, ignore_errors=True)
    return path


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> tuple[list[dict], Path | None]:
    """Run every child of one workload; return their reports and, when
    traced, the merged span file."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = OUT / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    base = {"workload": name, "seed": seed, "trace": trace}
    reports: list[dict] = []
    trace_file = OUT / f"trace-{name}-s{seed}.jsonl" if trace else None
    try:
        prefilled = prefilled_store(base, deadline) if workload.store else None
        for child in range(workload.plan(seconds)):
            cfg = dict(base, child=child,
                       report=str(work / f"report-{child}.json"),
                       trace_file=str(work / f"trace-{child}.jsonl"))
            if workload.store:
                cfg["store_dir"] = str(work / f"store-{child}")
                shutil.copytree(prefilled, cfg["store_dir"])
            reports.append(run_child(cfg, deadline))
        if trace_file is not None:
            with open(trace_file, "w", encoding="utf-8") as merged:
                for child in range(len(reports)):
                    merged.write((work / f"trace-{child}.jsonl").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reports, trace_file


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reports: list[dict]) -> tuple[dict[str, float], int]:
    """The user-visible metrics of one run, and the latency sample count.

    Each request is one latency sample, already scaled to reference
    speed by its child (``calibrate.py``); throughput is requests over
    their summed latency.  Set-up and memory are medians over the child
    processes.
    """
    latencies = [lat for r in reports for lat in r["latencies"]]
    return {
        "setup_s": median([r["setup_s"] for r in reports]),
        "scenarios_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p98_ms": 1e3 * percentile(latencies, 98),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }, len(latencies)


def trace_quality(spans: list[dict]) -> tuple[float, float]:
    """(share of traced request wall time the layer spans cover, traced /
    untraced median request time); zeros where a run has no such spans."""
    traced = [s["end"] - s["start"] for s in spans if s["name"] == "request"]
    untraced = [s["end"] - s["start"] for s in spans if s["name"] == "request.untraced"]
    coverage = 1.0 - self_times(spans)["request"][0] / sum(traced) if traced else 0.0
    overhead = median(traced) / median(untraced) if traced and untraced else 0.0
    return coverage, overhead


def per_layer(reports: list[dict], spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Times are as measured, not scaled (``calibrate.probe_ms`` gives the
    machine's speed).  Set-up layers are span self times per child and
    call layers mean self times per call.  Counts are per child: spans,
    the store and exact-route provenance the program returns, and the
    collections ``gc.callbacks`` saw during the timed requests.
    """
    own = self_times(spans)
    children = len(reports)

    def per_child(name: str) -> float:
        return own.get(name, (0.0, 0))[0] / children

    def per_call(name: str, scale: float) -> float:
        total, count = own.get(name, (0.0, 0))
        return scale * total / count if count else 0.0

    counters = [r["counters"] for r in reports]

    def per_child_count(key: str) -> float:
        return sum(c.get(key, 0) for c in counters) / children

    optimal = per_child_count("optimal_solves")
    hits, misses = per_child_count("store_hits"), per_child_count("store_misses")
    coverage, overhead = trace_quality(spans)
    return {
        "import_s": per_child("import"),
        "experiments.context_build_s": per_child("experiments.context_build"),
        "perf.coefficients.table_build_s": per_child("perf.coefficients.table_build"),
        "perf.store.open_s": per_child("perf.store.open"),
        "fmssm.build.instance_ms": per_call("fmssm.build.instance", 1e3),
        "fmssm.build.instance_count": own.get("fmssm.build.instance", (0, 0))[1] / children,
        "perf.kernels.prepare_ms": per_call("perf.kernels.prepare", 1e3),
        "pm.solve_ms": per_call("pm.solve", 1e3),
        "baselines.retroflow.solve_ms": per_call("baselines.retroflow.solve", 1e3),
        "baselines.pg.solve_ms": per_call("baselines.pg.solve", 1e3),
        "fmssm.optimal.solve_s": per_call("fmssm.optimal.solve", 1.0),
        "fmssm.evaluation.evaluate_ms": per_call("fmssm.evaluation.evaluate", 1e3),
        "fmssm.optimal.route.precert": per_child_count("optimal_route_precert"),
        "fmssm.optimal.route.highs-lp": per_child_count("optimal_route_highs-lp"),
        "fmssm.optimal.route.highs": per_child_count("optimal_route_highs"),
        "fmssm.optimal.route.bnb": per_child_count("optimal_route_bnb"),
        "fmssm.optimal.certificate_rate":
            per_child_count("optimal_certified") / optimal if optimal else 0.0,
        "runtime.gc_pause_s": per_child_count("gc_pause_s"),
        "runtime.gc_gen2_count": per_child_count("gc_gen2_count"),
        "runtime.gc_max_pause_ms": 1e3 * max(c.get("gc_max_pause_s", 0.0) for c in counters),
        "perf.sweep.request_ms": per_call("perf.sweep", 1e3),
        "perf.store.hits": hits,
        "perf.store.misses": misses,
        "perf.store.dedup": per_child_count("store_dedup"),
        "perf.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "perf.store.decoded_hits": per_child_count("store_decoded_hits"),
        "perf.store.bytes_written": per_child_count("store_bytes_written"),
        "calibrate.probe_ms": 1e3 * median([r["probe_s"] for r in reports]),
        "trace.request_coverage": coverage,
        "trace.overhead_ratio": overhead,
    }


def load_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def units_of() -> dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object ``run.py`` prints."""
    reports, trace_file = run_workload(name, seed, seconds, trace)
    units = units_of()
    if trace:
        metrics = per_layer(reports, load_spans([trace_file]))
        print(f"# {name}: spans in {trace_file.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics, samples = end_to_end(reports)
        note = "" if percentile_supported(samples, 98) else " (fewer than 10 beyond p98)"
        probe_ms = 1e3 * median([r["probe_s"] for r in reports])
        print(f"# {name}: {samples} latency samples{note}, {len(reports)} child processes, "
              f"median probe {probe_ms:.2f} ms", file=sys.stderr)
    for report in reports:
        for reason in report["reasons"]:
            print(f"# {name}: FAILED {reason}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def summarize(paths: list[str]) -> None:
    """Print each workload's layer self times and the tracing overhead."""
    spans = load_spans(paths)
    for name in sorted({s["workload"] for s in spans}):
        mine = [s for s in spans if s["workload"] == name]
        own = self_times(mine)
        total = sum(t for t, _ in own.values())
        print(f"\n{name}: self time by layer ({total:.3f} s in spans)")
        print(f"  {'layer':<34}{'self s':>10}{'share':>8}{'calls':>8}")
        for layer, (seconds, count) in sorted(own.items(), key=lambda kv: -kv[1][0]):
            print(f"  {layer:<34}{seconds:>10.3f}{seconds / total:>8.1%}{count:>8}")
        coverage, overhead = trace_quality(mine)
        if overhead:
            print(f"  traced / untraced median request: {overhead:.3f}"
                  f"  (layer spans cover {coverage:.1%} of traced requests)")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["summarize"]:
        summarize(argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name:<20} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
