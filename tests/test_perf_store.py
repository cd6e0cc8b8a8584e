"""Cross-run solve store: scenario keys, records, concurrency.

The contract (docs/performance.md §store): a :class:`~repro.perf.store.
SolveStore` hit must replay a solve **bit-identically** — the same
mapping, pairs, loads and evaluation a fresh solve of that scenario
would produce — without grounding the scenario; a store written for
another network or by other code must miss; and the store must survive
hostile filesystems: torn writer crashes, corrupted records, concurrent
parent processes and GC racing readers all degrade to cache misses,
never to wrong answers.
"""

from __future__ import annotations

import copy
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
from repro.experiments.scenarios import (
    ExperimentContext,
    custom_context,
    default_att_context,
)
from repro.fmssm.evaluation import evaluate_solution
from repro.fmssm.solution import RecoverySolution
from repro.perf import store as store_mod
from repro.perf.store import (
    SolveStore,
    decode_result,
    encode_result,
    network_key,
    scenario_key,
    solve_key,
)
from repro.perf.sweep import parallel_sweep, store_summary
from repro.resilience import chaos
from repro.resilience.chaos import Fault

FAST_ALGORITHMS = ("pm", "retroflow", "pg", "nearest")

CONTROLLERS = (0, 3, 7)


@pytest.fixture(scope="module")
def ring_context():
    return ring_with_sites(CONTROLLERS)


@pytest.fixture(scope="module")
def ring_scenarios():
    return tuple(FailureScenario(frozenset({c})) for c in CONTROLLERS)


@pytest.fixture(scope="module")
def ring_serial(ring_context, ring_scenarios):
    return parallel_sweep(ring_context, ring_scenarios, FAST_ALGORITHMS)


def ring_with_sites(sites):
    from repro.topology.generators import ring_topology

    return custom_context(
        ring_topology(10, chords=5, seed=7), controller_sites=sites, capacity=160,
    )


@pytest.fixture
def fixed_identity(monkeypatch):
    """Pin the code identity; returns a setter that "patches the code"."""
    monkeypatch.setattr(store_mod, "code_identity", lambda: "0" * 32)

    def patch_code(identity: str) -> None:
        monkeypatch.setattr(store_mod, "code_identity", lambda: identity)

    return patch_code


_DIGEST_CHILD = """
import json
from repro.experiments.scenarios import custom_context, default_att_context
from repro.perf.store import network_key
from repro.topology.generators import ring_topology

ring = custom_context(
    ring_topology(10, chords=5, seed=7), controller_sites=(0, 3, 7), capacity=160,
)
print(json.dumps([network_key(default_att_context()).digest, network_key(ring).digest]))
"""


def _child_env(**extra):
    env = dict(os.environ, **extra)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# Scenario keys
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic_across_groundings(self, ring_context):
        scenario = FailureScenario(frozenset({3}))
        rebuilt = ring_with_sites(CONTROLLERS)
        a = scenario_key(ring_context, scenario)
        assert a == scenario_key(ring_context, FailureScenario(frozenset({3})))
        assert a == scenario_key(rebuilt, scenario)
        assert len(a) == 32
        assert not rebuilt._instances  # keys ground no scenario

    def test_distinguishes_scenarios(self, ring_context, ring_scenarios):
        keys = {scenario_key(ring_context, s) for s in ring_scenarios}
        assert len(keys) == len(ring_scenarios)

    def test_network_digest_ignores_the_hash_seed(self, ring_context):
        digests = {
            tuple(json.loads(subprocess.run(
                [sys.executable, "-c", _DIGEST_CHILD],
                capture_output=True, text=True, check=True, timeout=300,
                env=_child_env(PYTHONHASHSEED=seed),
            ).stdout.splitlines()[-1]))
            for seed in ("1", "4242")
        }
        assert digests == {(
            network_key(default_att_context()).digest,
            network_key(ring_context).digest,
        )}

    def test_network_digest_separates_grounding_inputs(self):
        contexts = [
            default_att_context(),
            default_att_context(capacity=900),
            default_att_context(counter_strategy="bounded"),
            default_att_context(flow_weight="delay"),
            default_att_context(delay_mode="routed"),
            ring_with_sites((0, 3, 7)),
            ring_with_sites((1, 4, 8)),
        ]
        digests = [network_key(context).digest for context in contexts]
        assert len(set(digests)) == len(contexts)

    def test_network_key_is_cached_and_not_pickled(self, ring_context):
        import pickle

        key = network_key(ring_context)
        assert network_key(ring_context) is key
        clone = pickle.loads(pickle.dumps(ring_context))
        assert clone._network_key is None
        assert network_key(clone) == key

    def test_solve_key_separates_algorithms_and_params(self):
        fp = "ab" * 16
        assert solve_key(fp, "pm", 300.0) == solve_key(fp, "pm", 10.0)
        assert solve_key(fp, "pm", 300.0) != solve_key(fp, "retroflow", 300.0)
        # Heavy algorithms key on their solve parameters too.
        assert solve_key(fp, "optimal", 300.0) != solve_key(fp, "optimal", 10.0)

    def test_golden_keys(self, fixed_identity):
        """The key layout, pinned under a fixed code identity.

        Real keys also move with every edit to the source (the code
        identity), so a store written by other code never replays; these
        values move only when the layout of the network digest, the
        scenario key or the solve key changes.
        """
        context = default_att_context()
        keys = [
            scenario_key(context, FailureScenario(frozenset(failed)))
            for failed in ({13}, {13, 20})
        ]
        assert network_key(context).digest == "2814b619930381b3260c7bcadede0e01"
        assert keys == [
            "72cb574bd7e07102f93c6a018e06fc90",
            "f242b0936e454a514e52b2b08e5971ee",
        ]
        assert (
            solve_key(keys[1], "optimal", 300.0)
            == f"{keys[1]}:optimal:a970559125d5"
        )


class TestCodeIdentity:
    def test_identity_is_stable_within_a_process(self):
        identity = store_mod.code_identity()
        assert len(identity) == 32
        assert store_mod.code_identity() == identity

    def test_patched_code_misses_the_store(
        self, fixed_identity, tmp_path, ring_context, ring_scenarios
    ):
        """A patched PM tie-break changes the code identity: a store a
        campaign wrote before must miss, so the patched code re-solves
        instead of resuming from foreign answers."""
        from repro.perf.executor import SweepExecutor

        store = SolveStore(tmp_path / "store")
        with SweepExecutor(max_workers=1) as executor:
            for sweep in (ring_scenarios[:2], ring_scenarios[2:]):
                parallel_sweep(
                    ring_context, sweep, ("pm",), executor=executor,
                    max_workers=1, store=store,
                )
        replay = parallel_sweep(
            ring_context, ring_scenarios, ("pm",), store=SolveStore(tmp_path / "store"),
        )
        assert store_summary(replay)["misses"] == 0
        fixed_identity("1" * 32)
        patched = parallel_sweep(
            ring_context, ring_scenarios, ("pm",), store=SolveStore(tmp_path / "store"),
        )
        assert store_summary(patched)["hits"] == 0
        assert store_summary(patched)["misses"] == len(ring_scenarios)


# ----------------------------------------------------------------------
# Record codec round-trip (positions of the context's network frame)
# ----------------------------------------------------------------------

#: The codec's record set: (context name, failures, algorithms).  Exact
#: solves that need the MILP are dict-built answers; of the four on ATT
#: two-failure scenarios only the quickest, (5, 20) at ~2 s, is kept
#: (the other three take ~33 s together).
CODEC_CASES = (
    ("att", 1, FAST_ALGORITHMS + ("optimal",)),
    ("att", 2, FAST_ALGORITHMS + ("optimal",)),
    ("wan", 1, FAST_ALGORITHMS),
    ("wan", 2, FAST_ALGORITHMS),
)


@pytest.fixture(scope="module")
def codec_records(att_context):
    """``(context, solution, evaluation, record)`` for every case of
    :data:`CODEC_CASES`; the solutions and evaluations are the fresh,
    positional ones (tests read their views only through copies)."""
    from test_grounding_index import wan72_context

    from repro.control.failures import enumerate_failure_scenarios

    from repro.fmssm.optimal import _seed

    contexts = {"att": att_context, "wan": wan72_context()}
    out = []
    for name, failures, algorithms in CODEC_CASES:
        context = contexts[name]
        for scenario in enumerate_failure_scenarios(context.plane, failures):
            instance = context.instance(scenario)
            for algorithm in algorithms:
                if algorithm == "optimal" and not (
                    _seed(instance, True, True).precert or scenario.failed == {5, 20}
                ):
                    continue
                solution = get_algorithm(algorithm)(instance)
                evaluation = evaluate_solution(instance, solution)
                record = json.loads(json.dumps(encode_result(context, solution, evaluation)))
                out.append((context, solution, evaluation, record))
    return out


def replay_views(context, solution, evaluation) -> tuple:
    """The dict views a replay lists, in their iteration order.

    The view-order rule, stated independently of the codec: switches
    and controllers by id; pairs flow-major, by (flow position in the
    context's population, switch); flows by population position.
    Read through copies, so positional arguments stay positional.
    """
    solution, evaluation = copy.copy(solution), copy.copy(evaluation)
    flow_pos = {flow.flow_id: k for k, flow in enumerate(context.flows)}

    def pair_key(pair):
        return flow_pos[pair[1]], pair[0]

    return (
        sorted(solution.mapping.items()),
        list(set(sorted(solution.sdn_pairs, key=pair_key))),
        sorted(solution.pair_controller.items(), key=lambda item: pair_key(item[0])),
        sorted(evaluation.programmability.items(), key=lambda item: flow_pos[item[0]]),
        list(frozenset(sorted(evaluation._recoverable_set, key=flow_pos.__getitem__))),
    )


def views_of(solution, evaluation) -> tuple:
    """``solution``'s and ``evaluation``'s dict views as iterated."""
    return (
        list(solution.mapping.items()),
        list(solution.sdn_pairs),
        list(solution.pair_controller.items()),
        list(evaluation.programmability.items()),
        list(evaluation._recoverable_set),
    )


class TestCanonicalRoundTrip:
    """A record decodes to exactly the solution and evaluation encoded."""

    def _assert_round_trip(self, context, instance, solution):
        evaluation = evaluate_solution(instance, solution)
        record = json.loads(json.dumps(encode_result(context, solution, evaluation)))
        restored, restored_eval = decode_result(context, record)
        assert restored == solution
        assert restored_eval == evaluation
        assert restored_eval._recoverable_set == evaluation._recoverable_set
        again, _ = decode_result(context, record)
        assert again is not restored and again.sdn_pairs is not restored.sdn_pairs

    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
    def test_heuristics_round_trip(self, att_context, algorithm):
        for failed in ({13, 20}, {5, 13, 20}):
            instance = att_context.instance(FailureScenario(frozenset(failed)))
            solution = get_algorithm(algorithm)(instance)
            self._assert_round_trip(att_context, instance, solution)

    def test_optimal_round_trips(self, small_context, small_instance):
        from repro.fmssm.optimal import solve_optimal

        solution = solve_optimal(small_instance, time_limit_s=30.0)
        self._assert_round_trip(small_context, small_instance, solution)

    def test_infeasible_round_trips(self, att_context):
        instance = att_context.instance(FailureScenario(frozenset({5, 13, 20})))
        solution = RecoverySolution(
            algorithm="optimal", feasible=False, solve_time_s=0.25,
            meta={"status": "infeasible"},
        )
        self._assert_round_trip(att_context, instance, solution)

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        failed=st.sets(st.sampled_from(CONTROLLERS), min_size=1, max_size=2),
        algorithm=st.sampled_from(FAST_ALGORITHMS + ("optimal",)),
    )
    def test_property_round_trip(self, ring_context, failed, algorithm):
        from repro.fmssm.optimal import solve_optimal

        instance = ring_context.instance(FailureScenario(frozenset(failed)))
        solution = (
            solve_optimal(instance, time_limit_s=30.0)
            if algorithm == "optimal"
            else get_algorithm(algorithm)(instance)
        )
        self._assert_round_trip(ring_context, instance, solution)

    def test_wan_record_stays_compact(self):
        """A WAN PM record is a few kilobytes, not the ~100 KB a plain
        JSON listing of its flow-indexed fields would cost."""
        from test_grounding_index import wan72_context

        context = wan72_context()
        sites = context.plane.controller_ids
        instance = context.instance(FailureScenario(frozenset(sites[:2])))
        solution = get_algorithm("pm")(instance)
        evaluation = evaluate_solution(instance, solution)
        line = SolveStore._encode_line(
            "k" * 32, encode_result(context, solution, evaluation)
        )
        assert len(solution.sdn_pairs) > 1000
        assert len(line) < 10_000

    def test_record_length_ignores_wall_clocks(self, small_context, small_instance):
        """Both wall clocks are written at a fixed width, so equal
        results give records of equal length however long they took,
        and the clocks still replay exactly."""
        solution = get_algorithm("pm")(small_instance)
        lines = []
        for seconds in (0.001234, 0.1):
            timed = copy.copy(solution)
            timed.solve_time_s = seconds
            evaluation = evaluate_solution(small_instance, timed)
            record = encode_result(small_context, timed, evaluation)
            lines.append(SolveStore._encode_line("k" * 32, record))
            restored, restored_eval = decode_result(small_context, json.loads(json.dumps(record)))
            assert restored.solve_time_s == restored_eval.solve_time_s == seconds
        assert len(lines[0]) == len(lines[1])

    def test_decoded_stays_positional_until_read(self, codec_records):
        for context, solution, evaluation, record in codec_records:
            restored, restored_eval = decode_result(context, record)
            assert restored.positions() is not None
            assert restored_eval.positions() is not None
            assert restored == copy.copy(solution)  # equality reads every view
            assert restored.positions() is None
            assert restored_eval.positions() is not None
            assert views_of(restored, restored_eval) == replay_views(
                context, solution, evaluation
            ), solution.algorithm
            assert restored_eval == copy.copy(evaluation)
            assert restored_eval.positions() is None

    def test_reencoding_a_replay_is_the_identity(self, codec_records):
        for context, _, _, record in codec_records:
            restored, restored_eval = decode_result(context, record)
            again = json.loads(json.dumps(encode_result(context, restored, restored_eval)))
            assert again == record
            # Reading the views does not change what is stored either.
            assert views_of(restored, restored_eval) == replay_views(
                context, restored, restored_eval
            )
            again = json.loads(json.dumps(encode_result(context, restored, restored_eval)))
            assert again == record

    def test_dict_twin_encodes_alike(self, codec_records):
        from test_fmssm_positions import dict_copy

        for context, solution, evaluation, record in codec_records:
            positions = solution.positions()  # None for a MILP answer
            twin, twin_eval = dict_copy(solution), copy.copy(evaluation)
            assert twin.positions() is None and twin_eval.positions() is None
            assert json.loads(json.dumps(encode_result(context, twin, twin_eval))) == record
            assert solution.positions() is positions
            restored = decode_result(context, record)
            assert views_of(*restored) == replay_views(context, twin, twin_eval)

    def test_mutated_view_is_stored_not_stale_positions(self, codec_records):
        mutated_any = False
        for context, solution, evaluation, record in codec_records:
            restored, restored_eval = decode_result(context, record)
            if not restored.sdn_pairs:
                continue
            # The read dropped the positions; drop one served pair.
            pair = min(restored.sdn_pairs)
            restored.sdn_pairs.discard(pair)
            restored.pair_controller.pop(pair, None)
            if not any(s == pair[0] for s, _ in restored.sdn_pairs):
                restored.mapping.pop(pair[0], None)
            stored = json.loads(json.dumps(encode_result(context, restored, restored_eval)))
            assert stored["solution"] != record["solution"]
            assert stored["evaluation"] == record["evaluation"]
            replayed = decode_result(context, stored)
            assert views_of(*replayed) == replay_views(context, restored, restored_eval)
            assert replayed[0] == restored
            mutated_any = True
        assert mutated_any


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

    def test_put_many_keeps_the_shard_index(self, tmp_path, monkeypatch):
        # After an append the shard is the records read under the lock
        # plus the lines written, so a get on it parses nothing more.
        store = SolveStore(tmp_path, shards=1)
        store.put("a", {"v": 0})
        parsed = []
        parse = SolveStore._parse_lines

        def counting(self, data):
            parsed.append(data)
            return parse(self, data)

        monkeypatch.setattr(SolveStore, "_parse_lines", counting)
        assert store.put_many([("b", {"v": [1, 2]}), ("c", {"v": (3,)})]) == 2
        assert store.get("a") == {"v": 0}
        assert store.get("b") == {"v": [1, 2]}
        assert store.get("c") == {"v": [3]}  # as the line reads back
        assert parsed == []  # the index was current under the lock too
        fresh = SolveStore(tmp_path, shards=1)
        assert {key: fresh.get(key) for key in "abc"} == {key: store.get(key) for key in "abc"}

    def test_single_writer_parses_each_shard_once(self, tmp_path, monkeypatch):
        # A shard is re-read under the lock only when its stat moved, so
        # a lone writer's batches parse each shard once: on first sight.
        SolveStore(tmp_path, shards=4).put_many([(f"old{n}", {"n": n}) for n in range(8)])
        store = SolveStore(tmp_path, shards=4)
        parsed = []
        parse = SolveStore._parse_lines

        def counting(self, data):
            parsed.append(data)
            return parse(self, data)

        monkeypatch.setattr(SolveStore, "_parse_lines", counting)
        keys = [f"new{batch}-{n}" for batch in range(5) for n in range(6)]
        for batch in range(5):
            assert store.put_many([(key, {"n": 0}) for key in keys[6 * batch : 6 * batch + 6]]) == 6
        on_disk = {store._shard_of(f"old{n}") for n in range(8)}
        assert len(parsed) == len(on_disk & {store._shard_of(key) for key in keys})
        fresh = SolveStore(tmp_path, shards=4)
        assert all(fresh.get(key) == {"n": 0} for key in keys)
        # Another handle's write moves the stat: the kept index notices.
        SolveStore(tmp_path, shards=4).put("other", {"n": 1})
        parsed.clear()
        assert not store.put("other", {"n": 2})
        assert len(parsed) == 1

    def test_second_handle_sees_writes(self, tmp_path):
        writer = SolveStore(tmp_path)
        reader = SolveStore(tmp_path)
        assert reader.get("k") is None
        writer.put("k", {"x": 1})
        assert reader.get("k") == {"x": 1}

    def test_corrupt_record_skipped(self, tmp_path):
        store = SolveStore(tmp_path, shards=1)
        store.put("good", {"x": 1})
        with open(store._shard_paths[0], "ab") as fh:
            fh.write(b'{"v":1,"key":"bad","sha":"0000000000000000","payload":{}}\n')
            fh.write(b"not json at all\n")
        fresh = SolveStore(tmp_path, shards=1)
        assert fresh.get("bad") is None
        assert fresh.get("good") == {"x": 1}
        assert fresh.stats["corrupt"] >= 2

    def test_torn_write_recovered(self, tmp_path):
        store = SolveStore(tmp_path, shards=1)
        store.put("first", {"x": 1})
        with open(store._shard_paths[0], "ab") as fh:
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

    def test_gc_keeps_the_newest_records_across_shards(self, tmp_path):
        """Every shard gives up its oldest lines, in proportion to its
        bytes: GC does not empty the low shards first."""
        store = SolveStore(tmp_path, shards=2)
        for n in range(40):
            store.put(f"k{n}", {"n": n, "pad": "x" * 64})
        budget = store.record_bytes() // 2
        assert store.gc(max_bytes=budget) > 0
        assert store.record_bytes() <= budget
        assert store.get("k39") == {"n": 39, "pad": "x" * 64}
        assert store.get("k0") is None
        fresh = SolveStore(tmp_path, shards=2)
        survivors = [f"k{n}" for n in range(40) if fresh.get(f"k{n}") is not None]
        assert {fresh._shard_of(key) for key in survivors} == {0, 1}

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

    def test_writes_keep_the_store_within_max_bytes(self, tmp_path):
        """A write past ``max_bytes`` collects at once: no caller has to
        run :meth:`SolveStore.gc`."""
        unbounded = SolveStore(tmp_path / "unbounded", shards=1)
        for n in range(12):
            unbounded.put(f"k{n}", {"n": n, "pad": "x" * 64})
        budget = unbounded.record_bytes() // 3
        store = SolveStore(tmp_path / "bounded", shards=1, max_bytes=budget)
        for n in range(12):
            store.put(f"k{n}", {"n": n, "pad": "x" * 64})
            assert store.record_bytes() <= budget
        assert store.stats["gc_dropped"] > 0
        assert store.get("k11") == {"n": 11, "pad": "x" * 64}
        assert store.get("k0") is None

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
            assert len(stamp["key"]) == 32

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

    def test_plain_sweep_keeps_the_store_within_max_bytes(
        self, tmp_path, ring_context, ring_scenarios, ring_serial
    ):
        """A sweep on a store with a tiny ``max_bytes`` (no campaign, no
        explicit GC) leaves the store within it, and its answers are
        unchanged."""
        unbounded = SolveStore(tmp_path / "unbounded")
        parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=unbounded,
        )
        budget = unbounded.record_bytes() // 4
        store = SolveStore(tmp_path / "bounded", max_bytes=budget)
        results = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=store,
        )
        assert_sweeps_identical(ring_serial, results)
        assert 0 < store.record_bytes() <= budget
        assert store.stats["gc_dropped"] > 0

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

    def test_two_stage_replays_under_validation(
        self, tmp_path, small_context, monkeypatch
    ):
        """A validated two-stage solve is stored, and replays as a hit
        that is held to the delay bound as the fresh solve was."""
        from repro.resilience import validate as validate_mod

        delay_flags = []
        validate = validate_mod.validate_solution

        def spy(instance, solution, enforce_delay=True, **kwargs):
            delay_flags.append(enforce_delay)
            return validate(instance, solution, enforce_delay=enforce_delay, **kwargs)

        monkeypatch.setattr(validate_mod, "validate_solution", spy)
        scenarios = (FailureScenario(frozenset({3})),)

        def sweep():
            return parallel_sweep(
                small_context, scenarios, ("optimal-two-stage",),
                max_workers=1, store=SolveStore(tmp_path), validate=True,
            )

        cold = sweep()
        assert store_summary(cold) == {"scenarios": 1, "hits": 0, "misses": 1}
        solution = cold[0].solutions["optimal-two-stage"]
        evaluation = cold[0].evaluations["optimal-two-stage"]
        assert solution.algorithm == "two-stage"
        assert solution.meta["objective"] == evaluation.objective
        assert solution.meta["solver_objective"] == evaluation.total_programmability
        warm = sweep()
        assert store_summary(warm) == {"scenarios": 1, "hits": 1, "misses": 0}
        assert_sweeps_identical(cold, warm)
        assert warm[0].solutions["optimal-two-stage"].meta == solution.meta
        assert delay_flags == [True, True]  # the fresh solve, then the hit

    def test_all_hit_replay_never_grounds(
        self, tmp_path, ring_context, ring_scenarios, ring_serial, monkeypatch
    ):
        parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )

        def refuse(self, scenario):
            raise AssertionError(f"a store hit grounded {scenario.name}")

        monkeypatch.setattr(ExperimentContext, "instance", refuse)
        warm = parallel_sweep(
            ring_context, ring_scenarios, FAST_ALGORITHMS,
            max_workers=1, store=SolveStore(tmp_path),
        )
        assert_sweeps_identical(ring_serial, warm)
        assert store_summary(warm)["misses"] == 0

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
    env = _child_env()
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
        env = _child_env()
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
