"""Cross-run solve store: fingerprints, records, dedup, concurrency.

The contract (docs/performance.md §store): a :class:`~repro.perf.store.
SolveStore` hit must replay a solve **bit-identically** — the same
mapping, pairs, loads and evaluation a fresh solve of that scenario
would produce — and the store must survive hostile filesystems: torn
writer crashes, corrupted records, concurrent parent processes and GC
racing readers all degrade to cache misses, never to wrong answers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_perf_parallel_sweep import assert_sweeps_identical

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario
from repro.experiments.scenarios import custom_context
from repro.geo import GeoPoint
from repro.perf.store import (
    SolveStore,
    canonical_instance,
    canonical_solution,
    instance_fingerprint,
    solution_from_canonical,
    solve_key,
    topology_fingerprint,
)
from repro.perf.sweep import parallel_sweep, store_summary
from repro.resilience import chaos
from repro.resilience.chaos import Fault
from repro.topology.graph import Topology

FAST_ALGORITHMS = ("pm", "retroflow", "pg", "nearest")

CONTROLLERS = (0, 3, 7)


@pytest.fixture(scope="module")
def ring_context():
    from repro.topology.generators import ring_topology

    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=CONTROLLERS,
        capacity=160,
    )


@pytest.fixture(scope="module")
def ring_scenarios():
    return tuple(FailureScenario(frozenset({c})) for c in CONTROLLERS)


@pytest.fixture(scope="module")
def ring_serial(ring_context, ring_scenarios):
    return parallel_sweep(ring_context, ring_scenarios, FAST_ALGORITHMS)


def twin_star_context():
    """A hub with two *identical* arms — the symmetry-dedup fixture.

    Failing the arm-A controller and failing the arm-B controller induce
    structurally equivalent FMSSM instances whose canonical relabelings
    are order-preserving, so their fingerprints collide and the sweep
    solves one representative.
    """
    point = GeoPoint(10.0, 20.0)
    nodes = {i: (f"s{i}", point) for i in range(7)}
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
    topology = Topology("twinstar", nodes, edges)
    domains = {0: (0,), 1: (1, 2, 3), 4: (4, 5, 6)}
    return custom_context(
        topology, controller_sites=[0, 1, 4], capacity=100, domains=domains
    )


# ----------------------------------------------------------------------
# Canonical fingerprints
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic_across_groundings(self, ring_context):
        scenario = FailureScenario(frozenset({3}))
        a = instance_fingerprint(ring_context.instance(scenario))
        b = instance_fingerprint(ring_context.instance(scenario))
        assert a == b
        assert len(a) == 32

    def test_distinguishes_scenarios(self, ring_context, ring_scenarios):
        fingerprints = {
            instance_fingerprint(ring_context.instance(s))
            for s in ring_scenarios
        }
        assert len(fingerprints) == len(ring_scenarios)

    def test_twin_arms_collide(self):
        context = twin_star_context()
        a = instance_fingerprint(context.instance(FailureScenario(frozenset({1}))))
        b = instance_fingerprint(context.instance(FailureScenario(frozenset({4}))))
        assert a == b

    def test_cached_on_the_instance(self, ring_context):
        instance = ring_context.instance(FailureScenario(frozenset({0})))
        canon = canonical_instance(instance)
        assert canonical_instance(instance) is canon

    def test_solve_key_separates_algorithms_and_params(self):
        fp = "ab" * 16
        assert solve_key(fp, "pm", 300.0) == solve_key(fp, "pm", 10.0)
        assert solve_key(fp, "pm", 300.0) != solve_key(fp, "retroflow", 300.0)
        # Heavy algorithms key on their solve parameters too.
        assert solve_key(fp, "optimal", 300.0) != solve_key(fp, "optimal", 10.0)

    def test_golden_keys(self):
        """Keys already on disk must keep matching.

        A solve store, a sweep checkpoint and a campaign journal written
        by an earlier build are found again only if these hashes never
        move; the values below were written when the compile route was
        still a sweep parameter (always ``"sparse"``).
        """
        from repro.resilience.checkpoint import sweep_fingerprint

        assert (
            solve_key("ab" * 16, "optimal", 300.0)
            == "abababababababababababababababab:optimal:38c090b6e474"
        )
        assert (
            sweep_fingerprint(["(3,)", "(7,)"], ("optimal", "pm"), 300.0)
            == "876fb37f96365e3d"
        )

    def test_topology_fingerprint_stable(self, ring_context):
        assert topology_fingerprint(ring_context.topology) == topology_fingerprint(
            ring_context.topology
        )


# ----------------------------------------------------------------------
# Canonical solution round-trip
# ----------------------------------------------------------------------

class TestCanonicalRoundTrip:
    def _assert_round_trip(self, instance, solution):
        canon = canonical_instance(instance)
        payload = canonical_solution(solution, canon)
        json.dumps(payload)  # must be JSON-safe
        restored = solution_from_canonical(payload, canon)
        assert restored.algorithm == solution.algorithm
        assert restored.mapping == solution.mapping
        assert restored.sdn_pairs == solution.sdn_pairs
        assert restored.pair_controller == solution.pair_controller
        assert restored.load_override == solution.load_override
        assert restored.extra_overhead_ms == solution.extra_overhead_ms
        assert restored.feasible == solution.feasible
        assert restored.meta == solution.meta

    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
    def test_heuristics_round_trip(self, small_instance, algorithm):
        solution = get_algorithm(algorithm)(small_instance)
        self._assert_round_trip(small_instance, solution)

    def test_optimal_round_trips(self, small_instance):
        from repro.fmssm.optimal import solve_optimal

        solution = solve_optimal(small_instance, time_limit_s=30.0)
        self._assert_round_trip(small_instance, solution)

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        failed=st.sets(st.sampled_from(CONTROLLERS), min_size=1, max_size=2),
        algorithm=st.sampled_from(FAST_ALGORITHMS),
    )
    def test_property_round_trip(self, ring_context, failed, algorithm):
        instance = ring_context.instance(FailureScenario(frozenset(failed)))
        solution = get_algorithm(algorithm)(instance)
        self._assert_round_trip(instance, solution)


# ----------------------------------------------------------------------
# The record store itself
# ----------------------------------------------------------------------

class TestRecordStore:
    def test_put_get_round_trip(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get("k") is None
        assert store.put("k", {"x": 1})
        assert store.get("k") == {"x": 1}
        assert store.stats["writes"] == 1

    def test_put_if_absent(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.put("k", {"x": 1})
        assert not store.put("k", {"x": 2})
        assert store.get("k") == {"x": 1}

    def test_put_many_batches_and_dedupes(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put("a", {"v": 0})
        written = store.put_many([
            ("a", {"v": 99}),  # already present: skipped
            ("b", {"v": 1}),
            ("b", {"v": 2}),  # duplicate within the batch: skipped
            ("c", {"v": 3}),
        ])
        assert written == 2
        assert store.get("a") == {"v": 0}
        assert store.get("b") == {"v": 1}
        assert store.get("c") == {"v": 3}

    def test_second_handle_sees_writes(self, tmp_path):
        writer = SolveStore(tmp_path)
        reader = SolveStore(tmp_path)
        assert reader.get("k") is None
        writer.put("k", {"x": 1})
        assert reader.get("k") == {"x": 1}

    def test_corrupt_record_skipped(self, tmp_path):
        store = SolveStore(tmp_path, shards=1)
        store.put("good", {"x": 1})
        with open(store._shard_path(0), "ab") as fh:
            fh.write(b'{"v":1,"key":"bad","sha":"0000000000000000","payload":{}}\n')
            fh.write(b"not json at all\n")
        fresh = SolveStore(tmp_path, shards=1)
        assert fresh.get("bad") is None
        assert fresh.get("good") == {"x": 1}
        assert fresh.stats["corrupt"] >= 2

    def test_torn_write_recovered(self, tmp_path):
        store = SolveStore(tmp_path, shards=1)
        store.put("first", {"x": 1})
        with open(store._shard_path(0), "ab") as fh:
            fh.write(b'{"v":1,"key":"torn","sha":"dead')  # crashed writer
        fresh = SolveStore(tmp_path, shards=1)
        assert fresh.get("first") == {"x": 1}
        assert fresh.get("torn") is None
        # An append after the torn tail isolates the fragment on its own
        # line; the new record and the old one both survive.
        victim = SolveStore(tmp_path, shards=1)
        victim.put("second", {"x": 2})
        final = SolveStore(tmp_path, shards=1)
        assert final.get("second") == {"x": 2}
        assert final.get("first") == {"x": 1}

    def test_gc_drops_oldest_records(self, tmp_path):
        store = SolveStore(tmp_path, shards=1)
        for n in range(12):
            store.put(f"k{n}", {"n": n, "pad": "x" * 64})
        budget = store.record_bytes() // 3
        dropped = store.gc(max_bytes=budget)
        assert dropped > 0
        assert store.record_bytes() <= budget
        # Newest records survive, oldest go first.
        assert store.get("k11") == {"n": 11, "pad": "x" * 64}
        assert store.get("k0") is None

    def test_gc_under_warm_reader(self, tmp_path):
        writer = SolveStore(tmp_path, shards=1)
        reader = SolveStore(tmp_path, shards=1)
        for n in range(12):
            writer.put(f"k{n}", {"n": n, "pad": "x" * 64})
        assert reader.get("k0") == {"n": 0, "pad": "x" * 64}  # warm index
        writer.gc(max_bytes=writer.record_bytes() // 3)
        # The reader's stat-validated index notices the rewrite: dropped
        # records read as misses, survivors still hit.
        assert reader.get("k0") is None
        assert reader.get("k11") == {"n": 11, "pad": "x" * 64}

    def test_artifact_round_trip(self, tmp_path):
        import numpy as np

        store = SolveStore(tmp_path)
        arrays = {"a": np.arange(6, dtype=np.int64).reshape(2, 3),
                  "b": np.array([1.5, 2.5])}
        assert store.put_arrays("prep-test", arrays)
        assert not store.put_arrays("prep-test", arrays)  # already there
        out = SolveStore(tmp_path).get_arrays("prep-test")
        assert out is not None
        assert np.array_equal(out["a"], arrays["a"])
        assert np.array_equal(out["b"], arrays["b"])

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        import numpy as np

        store = SolveStore(tmp_path)
        store.put_arrays("prep-bad", {"a": np.arange(3)})
        path = store._artifact_path("prep-bad")
        path.write_bytes(b"\x00" * 16)
        fresh = SolveStore(tmp_path)
        assert fresh.get_arrays("prep-bad") is None
        assert fresh.stats["corrupt"] >= 1

    def test_summary_is_json_safe(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put("k", {"x": 1})
        store.get("k")
        store.get("missing")
        summary = store.summary()
        assert json.dumps(summary)
        assert summary["writes"] == 1
        assert summary["hits"] == 1
        assert summary["misses"] == 1


# ----------------------------------------------------------------------
# Sweep integration: hits replay bit-identically
# ----------------------------------------------------------------------

class TestSweepIntegration:
    def test_second_run_hits_and_is_identical(
        self, tmp_path, ring_context, ring_scenarios, ring_serial
    ):
        cold = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        assert_sweeps_identical(ring_serial, cold)
        warm = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        assert_sweeps_identical(ring_serial, warm)
        summary = store_summary(warm)
        assert summary["hits"] == len(ring_scenarios) * len(FAST_ALGORITHMS)
        assert summary["misses"] == 0
        for result in warm:
            stamp = result.meta["store"]
            assert sorted(stamp["hits"]) == sorted(FAST_ALGORITHMS)
            assert stamp["misses"] == []
            assert len(stamp["fingerprint"]) == 32

    def test_store_provenance_on_cold_run(
        self, tmp_path, ring_context, ring_scenarios
    ):
        cold = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        summary = store_summary(cold)
        assert summary["hits"] == 0
        assert summary["misses"] == len(ring_scenarios) * len(FAST_ALGORITHMS)
        assert store_summary([]) is None

    def test_no_store_means_no_stamps(self, ring_serial):
        assert store_summary(ring_serial) is None

    def test_exact_solver_hits_are_identical(self, tmp_path, small_context):
        scenarios = tuple(
            FailureScenario(frozenset({c})) for c in CONTROLLERS
        )
        algorithms = ("optimal", "pm")
        serial = parallel_sweep(
            small_context, scenarios, algorithms,
            max_workers=1, optimal_time_limit_s=30.0,
        )
        cold = parallel_sweep(
            small_context, scenarios, algorithms,
            max_workers=1, optimal_time_limit_s=30.0,
            store=SolveStore(tmp_path),
        )
        warm = parallel_sweep(
            small_context, scenarios, algorithms,
            max_workers=1, optimal_time_limit_s=30.0,
            store=SolveStore(tmp_path),
        )
        assert_sweeps_identical(serial, cold)
        assert_sweeps_identical(serial, warm)
        assert store_summary(warm)["hits"] == len(scenarios) * len(algorithms)

    def test_hits_replay_under_validation(
        self, tmp_path, ring_context, ring_scenarios, ring_serial
    ):
        parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        # validate=True routes every hit through the independent
        # validator (the policy fresh solves get): all hits survive.
        warm = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path), validate=True,
        )
        assert_sweeps_identical(ring_serial, warm)
        summary = store_summary(warm)
        assert summary["hits"] == len(ring_scenarios) * len(FAST_ALGORITHMS)
        assert summary["misses"] == 0

    def test_symmetric_scenarios_dedupe_to_one_solve(self, tmp_path):
        context = twin_star_context()
        scenarios = tuple(
            FailureScenario(frozenset({c})) for c in (0, 1, 4)
        )
        serial = parallel_sweep(context, scenarios, FAST_ALGORITHMS, max_workers=1)
        deduped = parallel_sweep(
            context, scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        assert_sweeps_identical(serial, deduped)
        summary = store_summary(deduped)
        assert summary["dedup"] == 1
        stamps = {r.name: r.meta["store"] for r in deduped}
        assert stamps["(4)"]["dedup_of"] == "(1)"
        assert "dedup_of" not in stamps["(1)"]

    def test_chaos_bypasses_the_store(
        self, tmp_path, ring_context, ring_scenarios
    ):
        store = SolveStore(tmp_path)
        # An armed-but-never-firing plan still marks the run chaotic.
        with chaos.inject(Fault("sweep.task", "raise-error", at_call=10**9)):
            results = parallel_sweep(
                ring_context, ring_scenarios, FAST_ALGORITHMS,
                max_workers=1, store=store,
            )
        assert all("store" not in r.meta for r in results)
        assert store.record_bytes() == 0
        assert store.stats["writes"] == 0

    def test_different_time_limits_do_not_cross_hit(
        self, tmp_path, small_context
    ):
        scenarios = (FailureScenario(frozenset({3})),)
        first = parallel_sweep(
            small_context, scenarios, ("optimal",),
            max_workers=1, optimal_time_limit_s=30.0,
            store=SolveStore(tmp_path),
        )
        second = parallel_sweep(
            small_context, scenarios, ("optimal",),
            max_workers=1, optimal_time_limit_s=29.0,
            store=SolveStore(tmp_path),
        )
        assert store_summary(first)["misses"] == 1
        assert store_summary(second)["misses"] == 1  # distinct solve keys

    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        failed=st.lists(
            st.sets(st.sampled_from(CONTROLLERS), min_size=1, max_size=2),
            min_size=1, max_size=3, unique_by=lambda s: frozenset(s),
        ),
        algorithms=st.sets(
            st.sampled_from(FAST_ALGORITHMS), min_size=1, max_size=4
        ),
    )
    def test_property_hits_equal_cold_solves(
        self, ring_context, failed, algorithms
    ):
        scenarios = tuple(FailureScenario(frozenset(f)) for f in failed)
        algorithms = tuple(sorted(algorithms))
        with tempfile.TemporaryDirectory() as root:
            cold = parallel_sweep(
                ring_context, scenarios, algorithms,
                max_workers=1, store=SolveStore(root),
            )
            warm = parallel_sweep(
                ring_context, scenarios, algorithms,
                max_workers=1, store=SolveStore(root),
            )
        assert_sweeps_identical(cold, warm)
        assert store_summary(warm)["misses"] == 0


# ----------------------------------------------------------------------
# Concurrency: parent processes racing on one store directory
# ----------------------------------------------------------------------

_CHILD_SWEEP = """
import json, sys
from repro.control.failures import FailureScenario
from repro.experiments.scenarios import custom_context
from repro.perf.store import SolveStore
from repro.perf.sweep import parallel_sweep, store_summary
from repro.topology.generators import ring_topology

context = custom_context(
    ring_topology(10, chords=5, seed=7),
    controller_sites=(0, 3, 7), capacity=160,
)
scenarios = tuple(FailureScenario(frozenset({c})) for c in (0, 3, 7))
store = SolveStore(sys.argv[1])
results = parallel_sweep(
    context, scenarios, ("pm", "retroflow", "pg", "nearest"),
    max_workers=1, store=store,
)
print(json.dumps({
    "summary": store_summary(results),
    "loads": {
        r.name: sorted(r.evaluations["pm"].controller_load.items())
        for r in results
    },
}))
"""


def _spawn_child(root):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_SWEEP, str(root)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )


class TestConcurrency:
    def test_two_parents_share_one_store(self, tmp_path, ring_serial):
        first = _spawn_child(tmp_path)
        second = _spawn_child(tmp_path)
        outs = []
        for child in (first, second):
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            outs.append(json.loads(out.splitlines()[-1]))
        # Both children saw identical answers through the shared store.
        assert outs[0]["loads"] == outs[1]["loads"]
        # No duplicate records despite the race: every key is unique.
        store = SolveStore(tmp_path)
        keys = []
        for shard in range(store.shards):
            keys.extend(store._shard_records(shard))
        assert len(keys) == len(set(keys))
        # A third parent gets pure hits.
        third = _spawn_child(tmp_path)
        out, err = third.communicate(timeout=300)
        assert third.returncode == 0, err
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["misses"] == 0
        assert summary["hits"] == 12

    def test_racing_writers_never_duplicate_keys(self, tmp_path):
        script = """
import sys
from repro.perf.store import SolveStore
store = SolveStore(sys.argv[1], shards=2)
for n in range(60):
    store.put(f"key-{n}", {"n": n})
store.put_many([(f"batch-{n}", {"n": n}) for n in range(60)])
print(store.stats["writes"])
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, text=True,
            )
            for _ in range(2)
        ]
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
        store = SolveStore(tmp_path, shards=2)
        keys = []
        for shard in range(store.shards):
            keys.extend(store._shard_records(shard))
        assert sorted(keys) == sorted(
            [f"key-{n}" for n in range(60)] + [f"batch-{n}" for n in range(60)]
        )


# ----------------------------------------------------------------------
# Decoded-object cache: LRU bound, stats, sweep visibility
# ----------------------------------------------------------------------

class TestDecodedCache:
    def _record(self, instance, canon):
        solution = get_algorithm("pm")(instance)
        return {"solution": canonical_solution(solution, canon)}

    def test_lru_evicts_past_cap_and_counts(self):
        from conftest import make_tiny_instance
        from repro.perf.store import (
            decode_record,
            decoded_cache_stats,
            set_decoded_cache_cap,
        )

        # A fresh instance: its canonical form starts with an empty
        # decoded cache, so the counter deltas are exact.
        instance = make_tiny_instance()
        canon = canonical_instance(instance)
        record = self._record(instance, canon)
        old_cap = set_decoded_cache_cap(2)
        before = decoded_cache_stats()
        try:
            for sha in ("a", "b", "c"):  # third insert evicts "a"
                decode_record(record, canon, instance, "pm", sha=sha)
            decode_record(record, canon, instance, "pm", sha="b")  # hit
            decode_record(record, canon, instance, "pm", sha="a")  # miss
        finally:
            set_decoded_cache_cap(old_cap)
        delta = {
            k: decoded_cache_stats()[k] - before[k] for k in before
        }
        assert delta == {"hits": 1, "misses": 4, "evictions": 2}

    def test_cap_clamps_to_one(self):
        from repro.perf.store import DECODED_CACHE_CAP, set_decoded_cache_cap

        old_cap = set_decoded_cache_cap(0)
        try:
            from repro.perf import store as store_mod

            assert store_mod.DECODED_CACHE_CAP == 1
        finally:
            set_decoded_cache_cap(old_cap)

    def test_hits_return_independent_clones(self):
        from conftest import make_tiny_instance
        from repro.perf.store import decode_record

        instance = make_tiny_instance()
        canon = canonical_instance(instance)
        record = self._record(instance, canon)
        first, _ = decode_record(record, canon, instance, "pm", sha="x")
        second, _ = decode_record(record, canon, instance, "pm", sha="x")
        assert first is not second
        assert first.mapping is not second.mapping
        first.mapping[999] = 999
        assert 999 not in second.mapping

    def test_sweep_surfaces_decoded_counters(
        self, tmp_path, ring_context, ring_scenarios
    ):
        """A hot replay stamps the per-sweep decoded-cache delta (with a
        cap of 1, forced evictions) on every scenario and in the
        sweep-level summary."""
        from repro.perf.store import set_decoded_cache_cap

        parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        old_cap = set_decoded_cache_cap(1)
        try:
            warm = parallel_sweep(
                ring_context, ring_scenarios, FAST_ALGORITHMS,
                max_workers=1, store=SolveStore(tmp_path),
            )
        finally:
            set_decoded_cache_cap(old_cap)
        summary = store_summary(warm)
        decoded = summary["decoded"]
        assert decoded["evictions"] > 0
        assert decoded["misses"] > 0
        for result in warm:
            assert result.meta["store"]["decoded"] == decoded
