"""Self-tests of the end-to-end benchmark harness (no workload runs).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import re
from types import SimpleNamespace

import pytest

import run
from calibrate import NEAREST, PROBE_REF_S, WINDOW_S, scale
from spans import Tracer, percentile, percentile_supported, self_times
from workloads import WAN_NODES, WORKLOADS, answer, count_failures

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- percentiles -----------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 98) == 98
    assert percentile([7.0], 98) == 7.0


@pytest.mark.parametrize("n, supported", [(500, True), (499, False), (510, True), (48, False)])
def test_percentile_needs_ten_samples_beyond(n, supported):
    assert percentile_supported(n, 98) is supported


@pytest.mark.parametrize("name", ["wan-recover", "wan-recover-store"])
def test_recover_plan_supports_p98(name):
    workload = WORKLOADS[name]
    controllers = WAN_NODES // 8
    sets = sum(math.comb(controllers, k) for k in workload.failures)
    assert percentile_supported(workload.plan(SPEC["run_seconds"]) * workload.passes * sets, 98)


def test_inputs_are_seeded_orders_of_the_whole_universe():
    universe = list(range(175))
    workload = WORKLOADS["att-paper"]
    first, second = (workload.inputs(universe, seed, 0) for seed in (1, 2))
    assert len(first) == workload.passes
    for passes in (first, second):
        assert all(sorted(order) == universe for order in passes)
    assert first != second
    assert workload.inputs(universe, 1, 0) == first
    assert workload.inputs(universe, 1, 1) != first


# -- calibration -----------------------------------------------------------
def test_scale_divides_by_the_median_of_the_probes_around_each_interval():
    probes = [(t / 10, 0.002) for t in range(100)] + [(20 + t / 10, 0.004) for t in range(100)]
    probes.append((4.55, 1.0))  # one outlier in the window does not move the median
    slow, fast = scale([(25.0, 25.1), (4.5, 4.6)], probes)
    assert slow == pytest.approx(0.1 * PROBE_REF_S / 0.004)
    assert fast == pytest.approx(0.1 * PROBE_REF_S / 0.002)


def test_scale_falls_back_to_the_nearest_probes():
    # No probe within the window of a long request: the nearest ones on
    # both sides of it scale it.
    probes = [(0.0, 0.002), (5.0, 0.002), (16.0, 0.004), (30.0, 0.009)]
    start, end = 5.0 + 2 * WINDOW_S, 16.0 - 2 * WINDOW_S
    assert NEAREST == 3
    assert scale([(start, end)], probes) == [pytest.approx((end - start) * PROBE_REF_S / 0.002)]


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "att-paper", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


# -- failure counting ------------------------------------------------------
def _solution(plan: int, **meta):
    return SimpleNamespace(
        mapping={1: plan}, sdn_pairs={(1, (0, 1))}, pair_controller={}, meta=meta
    )


def _evaluation(least: int = 2, total: int = 10):
    return SimpleNamespace(
        feasible=True, least_programmability=least, total_programmability=total,
        objective=least + 0.01 * total,
    )


def _result(solution, evaluation, degraded=False):
    return SimpleNamespace(
        solutions={"pm": solution}, evaluations={"pm": evaluation}, meta={},
        degradation=SimpleNamespace(degraded=degraded),
    )


def test_count_failures_flags_wrong_raised_and_degraded():
    names = ["(1)", "(2)", "(3)", "(4)", "(5)"]
    scenarios = [SimpleNamespace(name=n) for n in names]
    good = answer("pm", _solution(3), _evaluation())
    expected = {"pm": {n: good for n in names}}
    outcomes = [
        (scenarios[0], _result(_solution(3), _evaluation())),            # correct
        (scenarios[1], _result(_solution(4), _evaluation())),            # wrong plan
        (scenarios[2], RuntimeError("boom")),                            # raised
        (scenarios[3], _result(_solution(3, degraded=True), _evaluation())),  # degraded
        (scenarios[4], _result(_solution(3), _evaluation(), degraded=True)),  # route fell back
    ]
    attempted, failed, reasons = count_failures(outcomes, ("pm",), expected, lambda *a: True)
    assert (attempted, failed) == (5, 4)
    assert any("raised" in r for r in reasons) and any("degraded" in r for r in reasons)


def test_count_failures_counts_validator_rejections():
    scenario = SimpleNamespace(name="(1)")
    expected = {"pm": {"(1)": answer("pm", _solution(3), _evaluation())}}
    outcomes = [(scenario, _result(_solution(3), _evaluation()))]
    assert count_failures(outcomes, ("pm",), expected, lambda *a: False)[:2] == (1, 1)


# -- spans -------------------------------------------------------------------
def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "workload": "w", "child": 0}


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, None, "request", 0.0, 10.0),
        _span(2, 1, "build", 1.0, 4.0),
        _span(3, 2, "runtime.gc", 2.0, 3.0),
        _span(4, 1, "solve", 5.0, 6.0),
        _span(5, None, "request", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own["request"] == (pytest.approx(7.0), 2)
    assert own["build"] == (pytest.approx(2.0), 1)
    assert own["runtime.gc"] == (pytest.approx(1.0), 1)
    assert own["solve"] == (pytest.approx(1.0), 1)


def test_tracer_nests_spans_under_one_trace():
    tracer = Tracer()
    with tracer.span("request"):
        with tracer.span("inner"):
            pass
    with tracer.span("request"):
        pass
    inner, first, second = tracer.spans
    assert inner["parent"] == first["id"] and inner["trace"] == first["trace"]
    assert second["parent"] is None and second["trace"] != first["trace"]


# -- emitted names -------------------------------------------------------------
def _reports():
    counters = {"sweeps": 1, "wall_s": 2.0, "solve_busy_s": 1.0, "store_hits": 3,
                "store_misses": 1, "optimal_solves": 2, "optimal_certified": 1,
                "optimal_route_precert": 1, "optimal_route_highs": 1}
    return [{"setup_s": 1.0 + i, "latencies": [0.03] * 20 + [2.0], "probe_s": 0.005,
             "peak_rss_mb": 100.0, "counters": counters} for i in range(3)]


def test_emitted_names_match_benchmark_json():
    spans = [_span(1, None, "request", 0.0, 1.0), _span(2, 1, "pm.solve", 0.1, 0.9),
             _span(3, None, "request.untraced", 2.0, 2.9)]
    e2e, _ = run.end_to_end(_reports())
    layers = run.per_layer(_reports(), spans)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for name in list(e2e) + list(layers) + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert all(v > 0 for v in e2e.values())
    assert layers["trace.request_coverage"] == pytest.approx(0.8)
