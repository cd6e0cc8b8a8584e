"""Diff a fresh ``BENCH_headline.json`` against the committed baseline.

CI runs the quick-bench job on shared virtualized runners, so stage wall
clocks jitter by several multiples between runs — absolute thresholds
would be permanently flaky.  Instead this checker compares each stage of
a freshly produced ``BENCH_headline.json`` against the committed
``benchmarks/BENCH_baseline.json`` with a *generous* per-stage tolerance
(default 10×) and fails only on order-of-magnitude regressions: the kind
a code change causes and machine noise does not.

Rules
-----
* A stage present in both files fails when
  ``current > tolerance * max(baseline, floor)`` — the absolute floor
  (default 50 ms) keeps microsecond-scale stages (e.g. ``pm_n40_s``)
  from tripping on scheduler noise.
* A stage present in the baseline but missing from the current run fails
  (a silently dropped benchmark looks like a perf win).
* New stages in the current run pass (they become baseline next refresh).
* Degraded solves (``degraded_solves`` section: answers of
  ``solve_optimal``'s PM or seed fallback) may exceed the baseline total by at most ``--degraded-slack``
  (default 5).  A solver change that silently mass-degrades to the PM
  heuristic would otherwise read as a massive speedup.
* Store-hit replay is a *same-run* invariant, immune to runner speed:
  ``sweep_exact_memo_hit_s`` (re-sweeping a store populated moments
  earlier) must be at most ``sweep_exact_reuse_s / 5``, and the
  headline's ``store`` section must show the memo stages actually
  hitting (nonzero hits, zero misses) — a replay that quietly
  re-solved everything would otherwise time the solver and call it a
  cache.

Usage::

    python benchmarks/check_headline.py \
        [--current BENCH_headline.json] \
        [--baseline benchmarks/BENCH_baseline.json] \
        [--tolerance 10.0] [--floor-s 0.05] [--degraded-slack 5]

Refresh the baseline by copying a representative ``BENCH_headline.json``
over ``benchmarks/BENCH_baseline.json`` and committing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_headline.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"

#: Regressions smaller than this factor are treated as machine noise.
DEFAULT_TOLERANCE = 10.0
#: Stages faster than this (in either file) are compared against the
#: floor instead — sub-50 ms timings are dominated by scheduler jitter.
DEFAULT_FLOOR_S = 0.05
#: How many more degraded solves than the baseline are acceptable (a
#: genuinely hard instance may time out on a slow runner; dozens doing
#: so means the exact solver is broken).
DEFAULT_DEGRADED_SLACK = 5


def load_headline(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if payload.get("schema") != 1 or payload.get("unit") != "seconds":
        raise SystemExit(f"{path}: unsupported headline schema: {payload!r}")
    return payload


def load_stages(path: Path) -> dict[str, float]:
    payload = load_headline(path)
    stages = payload.get("stages")
    if not isinstance(stages, dict) or not stages:
        raise SystemExit(f"{path}: stages must be a non-empty mapping")
    return {name: float(seconds) for name, seconds in stages.items()}


def load_degraded(path: Path) -> dict[str, int]:
    """The ``degraded_solves`` section; empty for pre-section headlines."""
    degraded = load_headline(path).get("degraded_solves", {})
    if not isinstance(degraded, dict):
        raise SystemExit(f"{path}: degraded_solves must be a mapping")
    return {name: int(count) for name, count in degraded.items()}


def compare_degraded(
    current: dict[str, int],
    baseline: dict[str, int],
    slack: int = DEFAULT_DEGRADED_SLACK,
) -> list[str]:
    """Failure messages when solves silently mass-degraded to fallbacks."""
    current_total = sum(current.values())
    baseline_total = sum(baseline.values())
    if current_total > baseline_total + slack:
        detail = ", ".join(
            f"{name}={count}" for name, count in sorted(current.items()) if count
        ) or "none attributed"
        return [
            f"degraded solves: {current_total} exceeds baseline "
            f"{baseline_total} + slack {slack} ({detail}) — the exact solver "
            f"is silently falling back to heuristics"
        ]
    return []


#: The store-hit replay must beat the warm executor sweep by this factor.
MEMO_HIT_SPEEDUP = 5.0


def compare_memo_hit(
    current: dict[str, float], speedup: float = MEMO_HIT_SPEEDUP
) -> list[str]:
    """Failure messages when store-hit replay stopped paying off.

    ``sweep_exact_memo_hit_s`` replays the very sweep
    ``sweep_exact_reuse_s`` solves on a warm executor in the same run,
    so this is a same-run invariant immune to runner speed: replaying
    solved records from the solve store must beat re-solving them —
    even on a warm pool — by a wide margin, or the memo layer is just
    overhead.  Runs without either stage pass vacuously.
    """
    hit_s = current.get("sweep_exact_memo_hit_s")
    reuse_s = current.get("sweep_exact_reuse_s")
    if hit_s is None or reuse_s is None:
        return []
    if hit_s > reuse_s / speedup:
        return [
            f"sweep_exact_memo_hit_s: {hit_s:.4f}s is not {speedup:g}x faster "
            f"than the same run's warm sweep_exact_reuse_s {reuse_s:.4f}s — "
            f"store-hit replay has regressed to re-solving cost"
        ]
    return []


def load_store(path: Path) -> dict[str, object]:
    """The ``store`` section; empty for pre-section headlines."""
    store = load_headline(path).get("store", {})
    if not isinstance(store, dict):
        raise SystemExit(f"{path}: store must be a mapping")
    return store


def compare_store_visibility(
    stages: dict[str, float], store: dict[str, object]
) -> list[str]:
    """Failure messages when the memo stages' hits went dark.

    The hit-replay benchmark re-sweeps a store it just populated, so
    every solve must be a hit and none a miss; a headline that times the
    stage but counts zero hits (or any miss) means the sweep quietly
    re-solved everything — the timing would measure solver speed, not
    replay, and the speedup guard above would pass on a lie.  Same for
    the shared-store campaign rerun.
    """
    failures = []
    checks = (
        ("sweep_exact_memo_hit_s", "memo_hits", "memo_misses"),
        ("campaign_shared_store_s", "campaign_hits", "campaign_misses"),
    )
    for stage, hits_key, misses_key in checks:
        if stage not in stages:
            continue
        hits = store.get(hits_key)
        misses = store.get(misses_key)
        if not hits:
            failures.append(
                f"{stage}: the stage ran but the store section counts no "
                f"{hits_key} — the replay sweep is not hitting the store"
            )
        if misses:
            failures.append(
                f"{stage}: the store section counts {misses} {misses_key} "
                f"on a store the same run just populated — scenario "
                f"fingerprints are no longer stable across sweeps"
            )
    return failures


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    floor_s: float = DEFAULT_FLOOR_S,
) -> list[str]:
    """Human-readable failure messages; empty when the run is acceptable."""
    failures = []
    for stage, base_s in sorted(baseline.items()):
        cur_s = current.get(stage)
        if cur_s is None:
            failures.append(f"{stage}: missing from current run (baseline {base_s:.4f}s)")
            continue
        limit = tolerance * max(base_s, floor_s)
        if cur_s > limit:
            failures.append(
                f"{stage}: {cur_s:.4f}s exceeds {tolerance:g}x baseline "
                f"(baseline {base_s:.4f}s, limit {limit:.4f}s)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=Path, default=DEFAULT_CURRENT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--floor-s", type=float, default=DEFAULT_FLOOR_S)
    parser.add_argument(
        "--degraded-slack", type=int, default=DEFAULT_DEGRADED_SLACK
    )
    args = parser.parse_args(argv)

    current = load_stages(args.current)
    baseline = load_stages(args.baseline)
    failures = compare(current, baseline, args.tolerance, args.floor_s)
    failures += compare_memo_hit(current)
    cur_store = load_store(args.current)
    failures += compare_store_visibility(current, cur_store)
    if cur_store:
        print(
            "store: "
            + " ".join(f"{k}={v}" for k, v in sorted(cur_store.items()))
        )
    cur_degraded = load_degraded(args.current)
    failures += compare_degraded(
        cur_degraded, load_degraded(args.baseline), args.degraded_slack
    )
    if sum(cur_degraded.values()):
        detail = ", ".join(
            f"{name}={count}" for name, count in sorted(cur_degraded.items()) if count
        )
        print(f"degraded solves: {detail}")

    width = max(len(s) for s in sorted(set(current) | set(baseline)))
    for stage in sorted(set(current) | set(baseline)):
        cur = current.get(stage)
        base = baseline.get(stage)
        cur_txt = f"{cur:.4f}s" if cur is not None else "missing"
        base_txt = f"{base:.4f}s" if base is not None else "new stage"
        ratio = f"{cur / base:6.2f}x" if cur is not None and base else "      -"
        print(f"{stage:<{width}}  current {cur_txt:>9}  baseline {base_txt:>9}  {ratio}")

    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: all stages within {args.tolerance:g}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
