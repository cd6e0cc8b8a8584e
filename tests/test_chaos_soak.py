"""Seeded chaos soak: a pool campaign under compound injected faults.

A campaign is several sweeps over one context, run as a loop over
``parallel_sweep`` on one warm executor.  The acceptance bar for the
pool's fault policy (docs/robustness.md): a ``kill-worker`` + ``hang``
chaos schedule over such a campaign must complete with results
*bit-identical* to the fault-free run, every task the pool could not
finish recorded on its result with a typed cause (``pool-crash`` or
``deadline``), and nothing written to the campaign's solve store.  A chaotic run bypasses the store, so it is never resumed;
the fault-free campaign, cut short, resumes bit-identically on its
store.

The schedule is seeded per sweep rather than one flat plan: chaos call
counters are per *process*, and both ``kill-worker`` and a preempted
``hang`` end the process that would have advanced the counter — a fault
positioned "after" one of those in the same plan can never fire, it
just respawns into a fresh counter.  One fault family per sweep keeps
every injected fault reachable and the whole soak deterministic.

Bit-identity under chaos is not luck: ``kill-worker`` and ``hang`` only
fire in pool workers, and the tasks a broken or recycled pool leaves run
once in the parent, where both actions are no-ops by construction.  The
time limit is small so that the hang's deadline
(:func:`~repro.perf.sweep.task_deadline_s`) comes within seconds; every
exact solve here certifies from its seed or is proven infeasible in
milliseconds, so no answer depends on it.

This file is the CI ``chaos-soak`` job's payload; it stays seeded and
bounded so it can also ride in tier-1.
"""

from __future__ import annotations

import json
import random
import time
import warnings

import pytest

from test_perf_parallel_sweep import assert_sweeps_identical

from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning
from repro.experiments.scenarios import custom_context
from repro.perf.executor import SweepExecutor
from repro.perf.store import SolveStore
from repro.perf.sweep import parallel_sweep, store_summary, task_deadline_s
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan, Fault
from repro.topology.generators import ring_topology

#: One exact algorithm so the sweeps fan out and the validator engages.
SOAK_ALGORITHMS = ("pm", "retroflow", "optimal")

#: The exact solver's time limit: a pool task's deadline is 3× this
#: plus 5 s.
SOAK_TIME_LIMIT_S = 0.25

SOAK_SEED = 2026


@pytest.fixture(scope="module")
def soak_context():
    """Controller 7 is capacity-starved, so ``fail(0, 3)`` is infeasible
    under full recovery: HiGHS proves it."""
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity={0: 200, 3: 200, 7: 30},
    )


@pytest.fixture(scope="module")
def soak_sweeps():
    fail = lambda *c: FailureScenario(frozenset(c))  # noqa: E731
    return [
        (fail(0), fail(3)),
        (fail(0, 3),),
        (fail(0), fail(0, 3)),
    ]


@pytest.fixture(scope="module")
def soak_reference(soak_context, soak_sweeps):
    """The fault-free answers, computed serially."""
    return [
        parallel_sweep(
            soak_context, sweep, SOAK_ALGORITHMS,
            optimal_time_limit_s=SOAK_TIME_LIMIT_S,
        )
        for sweep in soak_sweeps
    ]


@pytest.fixture(autouse=True)
def _clean_up():
    yield
    chaos.uninstall()


def soak_schedule(seed: int = SOAK_SEED) -> list[ChaosPlan]:
    """Per-sweep fault plans: kill sweep, hang sweep, fault-free sweep."""
    rng = random.Random(seed)
    return [
        ChaosPlan((
            Fault("sweep.task", "kill-worker", at_call=rng.randint(1, 3),
                  count=1),
        )),
        ChaosPlan((
            Fault("sweep.task", "hang", at_call=rng.randint(1, 2), count=1,
                  seconds=60.0),
        )),
        ChaosPlan(()),
    ]


def _soak_sweep(context, sweep, store, executor):
    return parallel_sweep(
        context, sweep, SOAK_ALGORITHMS,
        optimal_time_limit_s=SOAK_TIME_LIMIT_S, max_workers=2,
        executor=executor, store=store,
    )


def _run_soak_campaign(context, sweeps, store, plans):
    """Run the sweeps in order on one executor, each of the first
    ``len(plans)`` under its plan and the rest fault-free; returns the
    results, the executor's stats and each chaotic sweep's wall time."""
    collected, elapsed = [], []
    with SweepExecutor(max_workers=2) as executor:
        try:
            for index, sweep in enumerate(sweeps):
                chaotic = index < len(plans)
                if chaotic:
                    chaos.install(plans[index])
                else:
                    chaos.uninstall()
                start = time.monotonic()
                collected.append(_soak_sweep(context, sweep, store, executor))
                if chaotic:
                    elapsed.append(time.monotonic() - start)
        finally:
            chaos.uninstall()
        stats = dict(executor.stats)
    return collected, stats, elapsed


class TestChaosSoak:
    def test_campaign_under_compound_chaos_is_bit_identical(
        self, soak_context, soak_sweeps, soak_reference, tmp_path
    ):
        store = SolveStore(tmp_path / "store")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            collected, stats, elapsed = _run_soak_campaign(
                soak_context, soak_sweeps, store, soak_schedule(),
            )

        # 1. Bit-identical to the fault-free run, sweep by sweep.
        assert len(collected) == len(soak_sweeps)
        for index, reference in enumerate(soak_reference):
            assert_sweeps_identical(reference, collected[index])

        # 2. Every injected fault family is accounted for, with its
        # typed cause on the results of the sweep it hit.
        causes = [
            {
                event.action
                for result in collected[index]
                for event in result.degradation.events
                if event.action != "mode"
            }
            for index in range(len(soak_sweeps))
        ]
        assert causes == [{"pool-crash"}, {"deadline"}, set()]
        late = [
            event.reason
            for result in collected[1]
            for event in result.degradation.events
            if event.action == "deadline"
        ]
        assert any("ran past" in reason for reason in late)
        assert stats["preempts"] == 1, "hang must trip the deadline"
        assert stats["respawns"] == 2, "each fault's next sweep respawns"
        messages = [
            str(w.message) for w in caught
            if issubclass(w.category, DegradedResultWarning)
        ]
        assert any("process pool broke" in m for m in messages)
        assert any("deadline" in m for m in messages)
        # The hang sweep ends at its deadline, not at the hang's end.
        deadline = task_deadline_s(SOAK_TIME_LIMIT_S)
        assert deadline < elapsed[1] < deadline + 10.0

        # 3. Each degraded result says so, and the diagnostics stay
        # JSON-safe.
        results = [result for sweep in collected for result in sweep]
        assert sum(result.degradation.degraded for result in results) >= 2
        assert json.dumps([result.meta for result in results])

        # 4. Chaos bypasses the store: a faulted run records nothing.
        assert store.record_bytes() == 0
        assert all(store_summary(sweep) is None for sweep in collected)

    def test_soaked_campaign_resumes_bit_identically_after_hard_kill(
        self, soak_context, soak_sweeps, soak_reference, tmp_path
    ):
        """The soak campaign, fault-free on a store, is cut after two
        sweeps — a hard kill there leaves the same store, since each
        sweep settles before it returns.  The re-run on that store is
        bit-identical, and the two completed sweeps replay without a
        solve.  (Under chaos the store is bypassed, so only a fault-free
        campaign resumes.)"""
        root = tmp_path / "store"
        with SweepExecutor(max_workers=2) as executor:
            store = SolveStore(root)
            first = [
                _soak_sweep(soak_context, sweep, store, executor)
                for sweep in soak_sweeps[:2]
            ]
        resumed, _, _ = _run_soak_campaign(
            soak_context, soak_sweeps, SolveStore(root), plans=(),
        )
        for index, reference in enumerate(soak_reference):
            if index < len(first):
                assert_sweeps_identical(reference, first[index])
            assert_sweeps_identical(reference, resumed[index])
        for index in range(len(first)):
            assert store_summary(resumed[index])["misses"] == 0


class TestWarmExecutorFaults:
    def test_hang_and_kill_with_solver_errors_match_serial(
        self, soak_context
    ):
        """A hang sweep, a kill sweep and a re-run with the kill still
        armed share one warm executor, while every exact solve raises.
        Each sweep answers as the serial run under the same solver
        fault: PM's fallback answer travels through the pool and through
        the parent's re-run alike, and each pool fault leaves its typed
        cause."""
        scenarios = (
            FailureScenario(frozenset({0})),
            FailureScenario(frozenset({3})),
        )
        solver_error = Fault("optimal.solve", "raise-timeout", count=None)
        options = dict(optimal_time_limit_s=SOAK_TIME_LIMIT_S)
        with chaos.inject(solver_error), warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            reference = parallel_sweep(
                soak_context, scenarios, SOAK_ALGORITHMS, **options,
            )
        assert all(
            result.solutions["optimal"].meta["fallback"] == "solver-error"
            for result in reference
        )
        faults = [
            ("deadline", Fault("sweep.task", "hang", count=1, seconds=60.0)),
            ("pool-crash", Fault("sweep.task", "kill-worker", count=1)),
            ("pool-crash", Fault("sweep.task", "kill-worker", count=1)),
        ]
        with SweepExecutor(max_workers=2) as executor:
            for cause, fault in faults:
                with chaos.inject(fault, solver_error), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegradedResultWarning)
                    chaotic = parallel_sweep(
                        soak_context, scenarios, SOAK_ALGORITHMS,
                        max_workers=2, executor=executor, **options,
                    )
                assert_sweeps_identical(reference, chaotic)
                assert any(
                    event.action == cause
                    for result in chaotic
                    for event in result.degradation.events
                ), f"a {fault.action} sweep must record {cause}"
            stats = dict(executor.stats)
        assert stats["preempts"] == 1
        assert stats["respawns"] == 2, "each fault's next sweep respawns"


class TestEvictionTelemetry:
    """Satellite: layered-LRU eviction counters surface end to end."""

    def test_worker_cache_stats_shape(self):
        from repro.perf.executor import worker_cache_stats

        stats = worker_cache_stats()
        assert set(stats["evictions"]) == {"context", "plan", "chaos_nonce"}
        assert all(count >= 0 for count in stats["evictions"].values())

    def test_fanout_meta_omits_zero_eviction_counters(
        self, soak_context, soak_sweeps
    ):
        with SweepExecutor(max_workers=2) as executor:
            results = parallel_sweep(
                soak_context, soak_sweeps[0], SOAK_ALGORITHMS,
                optimal_time_limit_s=SOAK_TIME_LIMIT_S,
                max_workers=2, executor=executor,
            )
        for result in results:
            fanout = result.meta.get("fanout")
            assert fanout is not None
            # Warm workers with room to spare evict nothing — the dict is
            # omitted entirely rather than reported as zeros.
            evictions = fanout.get("evictions", {})
            assert all(count > 0 for count in evictions.values())

    def test_chaos_nonce_eviction_counted_across_chaotic_sweeps(
        self, soak_context, soak_sweeps
    ):
        """Two chaotic sweeps on one warm pool: the second sweep's plan
        install replaces the first's chaos slot, which is an eviction."""
        scenarios = soak_sweeps[0]
        benign = ChaosPlan((
            Fault("sweep.task", "raise-error", at_call=10**9),
        ))
        with SweepExecutor(max_workers=2) as executor:
            for _ in range(2):
                chaos.install(benign)
                try:
                    results = parallel_sweep(
                        soak_context, scenarios, SOAK_ALGORITHMS,
                        optimal_time_limit_s=SOAK_TIME_LIMIT_S, max_workers=2,
                        executor=executor,
                    )
                finally:
                    chaos.uninstall()
            evictions = results[0].meta["fanout"].get("evictions", {})
        assert evictions.get("chaos_nonce", 0) >= 1
