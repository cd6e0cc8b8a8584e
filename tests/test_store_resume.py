"""Resume tests: a killed sweep or campaign re-runs on its solve store.

The store is the only persistent state.  A sweep writes each completed
scenario's clean solves to it (at most one batch per
``repro.perf.sweep._SETTLE_INTERVAL_S``, and flushed when the sweep
returns or raises), so running the same sweep again on the same store
replays what was written and solves only the rest — bit-identically to
an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.perf.executor import SweepExecutor, run_campaign
from repro.perf.store import SolveStore
from repro.perf.sweep import _SweepRunner, parallel_sweep, store_summary

ALGORITHMS = ("optimal", "pm", "retroflow")

#: Builds the ring context the tests share; the hard-kill child runs it too.
CONTEXT_SOURCE = """
from repro.control.failures import FailureScenario
from repro.experiments.scenarios import custom_context
from repro.topology.generators import ring_topology

context = custom_context(
    ring_topology(10, chords=5, seed=7), controller_sites=(0, 3, 7), capacity=160,
)
scenarios = tuple(
    FailureScenario(frozenset(failed))
    for failed in ({0}, {3}, {7}, {0, 3}, {3, 7})
)
"""


@pytest.fixture(scope="module")
def ring():
    namespace: dict = {}
    exec(CONTEXT_SOURCE, namespace)
    return namespace


@pytest.fixture(scope="module")
def sweep_context(ring):
    return ring["context"]


@pytest.fixture(scope="module")
def sweep_scenarios(ring):
    return ring["scenarios"]


@pytest.fixture(scope="module")
def uninterrupted(sweep_context, sweep_scenarios):
    return parallel_sweep(
        sweep_context, sweep_scenarios, ALGORITHMS,
        max_workers=1, optimal_time_limit_s=60.0,
    )


def assert_bit_identical(expected, actual):
    """Everything except wall clocks must match exactly (no tolerances)."""
    assert len(expected) == len(actual)
    for exp, act in zip(expected, actual):
        assert exp.scenario == act.scenario
        assert sorted(exp.solutions) == sorted(act.solutions)
        for name, exp_sol in exp.solutions.items():
            act_sol = act.solutions[name]
            assert exp_sol.algorithm == act_sol.algorithm
            assert exp_sol.mapping == act_sol.mapping
            assert exp_sol.sdn_pairs == act_sol.sdn_pairs
            assert exp_sol.pair_controller == act_sol.pair_controller
            assert exp_sol.load_override == act_sol.load_override
            assert exp_sol.extra_overhead_ms == act_sol.extra_overhead_ms
            assert exp_sol.feasible == act_sol.feasible
            assert exp_sol.meta == act_sol.meta
            exp_eval = dataclasses.asdict(exp.evaluations[name])
            act_eval = dataclasses.asdict(act.evaluations[name])
            exp_eval.pop("solve_time_s", None)
            act_eval.pop("solve_time_s", None)
            assert exp_eval == act_eval


def stored_records(root: Path) -> int:
    """Records a fresh handle on the store at ``root`` can read."""
    store = SolveStore(root)
    return sum(len(store._shard_records(shard)) for shard in range(store.shards))


#: The child settles every scenario as it completes, then stalls after
#: its first write, so the parent's SIGKILL lands mid-sweep every time.
CHILD_SOURCE = CONTEXT_SOURCE + """
import sys
import time

from repro.perf import sweep
from repro.perf.store import SolveStore

sweep._SETTLE_INTERVAL_S = 0.0
put_many = SolveStore.put_many


def put_many_then_stall(self, items):
    written = put_many(self, items)
    time.sleep(600)
    return written


SolveStore.put_many = put_many_then_stall
sweep.parallel_sweep(
    context, scenarios, ("optimal", "pm", "retroflow"),
    max_workers=1, optimal_time_limit_s=60.0, store=SolveStore(sys.argv[1]),
)
"""


class TestHardKill:
    def test_killed_serial_sweep_resumes_bit_identically(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        """SIGKILL mid-sweep, then the same sweep on the same store:
        bit-identical, and it hits exactly what the store held."""
        root = tmp_path / "store"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SOURCE, str(root)], env=env,
        )
        try:
            deadline = time.monotonic() + 60.0
            while child.poll() is None and time.monotonic() < deadline:
                if root.exists() and stored_records(root):
                    break
                time.sleep(0.02)
            assert child.poll() is None, "the child must still be mid-sweep"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        at_kill = stored_records(root)
        assert 0 < at_kill < len(sweep_scenarios) * len(ALGORITHMS)

        resumed = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=1, optimal_time_limit_s=60.0, store=SolveStore(root),
        )
        assert_bit_identical(uninterrupted, resumed)
        summary = store_summary(resumed)
        assert summary["hits"] == at_kill
        assert summary["hits"] + summary["misses"] == len(sweep_scenarios) * len(ALGORITHMS)
        assert stored_records(root) == len(sweep_scenarios) * len(ALGORITHMS)


class Interrupted(Exception):
    """Raised in the parent to cut a sweep short."""


def interrupt_after(monkeypatch, k: int) -> set[int]:
    """Make the next sweep raise in the parent once ``k`` scenarios are
    complete; returns the set that will hold their indices."""
    original = _SweepRunner._store
    done: set[int] = set()

    def store_until_k(self, *row):
        if len(self.completed) >= k:
            done.update(self.completed)
            raise Interrupted
        original(self, *row)

    monkeypatch.setattr(_SweepRunner, "_store", store_until_k)
    return done


def run_interrupted_pool_sweep(
    context, scenarios, uninterrupted, root, monkeypatch
):
    """Cut a pool sweep short in the parent after 2 scenarios, check
    they are in the store (written on the way out), and that the re-run
    on the same executor replays them bit-identically."""
    k = 2
    options = dict(max_workers=2, optimal_time_limit_s=60.0)
    with SweepExecutor(max_workers=2) as executor:
        done = interrupt_after(monkeypatch, k)
        with pytest.raises(Interrupted):
            parallel_sweep(
                context, scenarios, ALGORITHMS,
                executor=executor, store=SolveStore(root), **options,
            )
        monkeypatch.undo()
        assert len(done) == k
        assert stored_records(root) == k * len(ALGORITHMS)

        resumed = parallel_sweep(
            context, scenarios, ALGORITHMS,
            executor=executor, store=SolveStore(root), **options,
        )
    assert_bit_identical(uninterrupted, resumed)
    for index, result in enumerate(resumed):
        stamp = result.meta["store"]
        assert (stamp["misses"] == []) == (index in done)
    assert store_summary(resumed)["hits"] == k * len(ALGORITHMS)


class TestInterruptedPoolSweep:
    def test_interrupted_warm_sweep_resumes(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path, monkeypatch
    ):
        run_interrupted_pool_sweep(
            sweep_context, sweep_scenarios, uninterrupted,
            tmp_path / "store", monkeypatch,
        )


class TestReplay:
    def test_fully_stored_sweep_returns_without_solving(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path, monkeypatch
    ):
        """Once every task is in the store, re-running the sweep solves
        nothing: any solver call would raise."""
        from repro.perf import sweep

        root = tmp_path / "store"
        options = dict(max_workers=1, optimal_time_limit_s=60.0)
        parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            store=SolveStore(root), **options,
        )

        def no_solve(*args, **kwargs):
            raise AssertionError("a fully stored sweep must not solve")

        monkeypatch.setattr(sweep, "_solve", no_solve)
        replayed = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            store=SolveStore(root), **options,
        )
        assert_bit_identical(uninterrupted, replayed)
        summary = store_summary(replayed)
        assert summary["misses"] == 0
        assert summary["hits"] == len(sweep_scenarios) * len(ALGORITHMS)


class TestCampaignResume:
    def test_rerun_campaign_replays_completed_sweeps(
        self, sweep_context, sweep_scenarios, tmp_path
    ):
        """A campaign cut after two of its sweeps, re-run on the same
        store: those two replay without a single solve."""
        sweeps = [sweep_scenarios[:2], sweep_scenarios[2:4], sweep_scenarios[4:]]
        options = dict(max_workers=1, optimal_time_limit_s=60.0)
        reference = [
            parallel_sweep(sweep_context, sweep, ALGORITHMS, **options)
            for sweep in sweeps
        ]
        root = tmp_path / "store"
        with SweepExecutor(max_workers=1) as executor:
            stream = run_campaign(
                sweep_context, sweeps, ALGORITHMS, executor=executor,
                store=SolveStore(root), **options,
            )
            first = [next(stream), next(stream)]
            stream.close()
            resumed = dict(run_campaign(
                sweep_context, sweeps, ALGORITHMS, executor=executor,
                store=SolveStore(root), **options,
            ))
        assert [index for index, _ in first] == [0, 1]
        assert sorted(resumed) == [0, 1, 2]
        for index, results in enumerate(reference):
            assert_bit_identical(results, resumed[index])
        for index in (0, 1):
            assert store_summary(resumed[index])["misses"] == 0
        assert store_summary(resumed[2])["hits"] == 0


class TestSettling:
    @pytest.fixture()
    def put_calls(self, monkeypatch):
        """Sizes of the ``put_many`` batches the next sweeps write."""
        calls: list[int] = []
        put_many = SolveStore.put_many

        def counting(self, items):
            calls.append(len(items))
            return put_many(self, items)

        monkeypatch.setattr(SolveStore, "put_many", counting)
        return calls

    def test_a_quick_sweep_writes_one_batch(
        self, sweep_context, sweep_scenarios, put_calls, tmp_path
    ):
        """Within the settle interval a sweep writes once, at its end; a
        one-scenario request writes once per miss and never on a hit."""
        store = SolveStore(tmp_path / "store")
        parallel_sweep(sweep_context, sweep_scenarios, ("pm",), store=store)
        assert put_calls == [len(sweep_scenarios)]
        extra = sweep_scenarios[:1]
        parallel_sweep(sweep_context, extra, ("retroflow",), store=store)
        parallel_sweep(sweep_context, extra, ("retroflow",), store=store)
        assert put_calls == [len(sweep_scenarios), 1]

    def test_zero_interval_settles_each_scenario(
        self, sweep_context, sweep_scenarios, put_calls, tmp_path, monkeypatch
    ):
        from repro.perf import sweep

        monkeypatch.setattr(sweep, "_SETTLE_INTERVAL_S", 0.0)
        parallel_sweep(
            sweep_context, sweep_scenarios, ("pm", "retroflow"),
            store=SolveStore(tmp_path / "store"),
        )
        assert put_calls == [2] * len(sweep_scenarios)
