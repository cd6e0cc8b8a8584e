"""Seeded chaos soak: a supervised campaign under compound injected faults.

The acceptance bar for the supervision layer (docs/robustness.md): a
``kill-worker`` + ``hang`` + ``raise-timeout`` chaos schedule over a
multi-sweep campaign must complete with results *bit-identical* to the
fault-free run, every fault that fired accounted for in
``ScenarioResult.meta`` / the supervisor summary, and nothing written to
the campaign's solve store.  A chaotic run bypasses the store, so it is
never resumed; the fault-free campaign and a supervised ladder sweep,
cut short, resume bit-identically on their store.

The schedule is seeded per sweep rather than one flat plan: chaos call
counters are per *process*, and both ``kill-worker`` and a preempted
``hang`` end the process that would have advanced the counter — a fault
positioned "after" one of those in the same plan can never fire, it
just respawns into a fresh counter.  One fault family per sweep keeps
every injected fault reachable and the whole soak deterministic.

Bit-identity under chaos is not luck — each fault composes with
machinery that provably converges back to the fault-free answer:

* ``kill-worker``/``hang`` only fire in pool workers; preemption and
  quarantine re-run the charged scenarios serially in the parent, where
  both actions are no-ops by construction.
* ``raise-timeout`` on the first exact solve of a process fails the
  exact rung's first attempt; the ladder's one retry re-runs the same
  exact solve and returns the fault-free answer, with the retry on the
  result's ladder trail.  (A demotion would land on the PM rung, whose
  answer is not the optimum: ``tests/test_resilience_ladder.py`` and
  ``tests/test_resilience_chaos.py`` cover that path, and a corrupted
  HiGHS vector the validator rejects.  No exact solve of these scenarios
  hands HiGHS's vector back — they certify from their seed, or are
  infeasible — so the soak injects no ``corrupt-solution``.)

This file is the CI ``chaos-soak`` job's payload; it stays seeded and
bounded so it can also ride in tier-1.
"""

from __future__ import annotations

import json
import random
import warnings

import pytest

from test_perf_parallel_sweep import assert_sweeps_identical
from test_store_resume import Interrupted, interrupt_after

from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning
from repro.experiments.scenarios import custom_context
from repro.perf.executor import (
    SweepExecutor,
    campaign_summary,
    close_default_executor,
    run_campaign,
)
from repro.perf.store import SolveStore
from repro.perf.sweep import parallel_sweep, store_summary
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan, Fault
from repro.resilience.degradation import default_ladder
from repro.resilience.supervisor import SupervisorPolicy, SweepSupervisor
from repro.topology.generators import ring_topology

#: One exact algorithm so the ladder, validator and breakers all engage.
SOAK_ALGORITHMS = ("pm", "retroflow", "optimal")

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
def soak_ladder():
    # One retry absorbs each process's injected timeout on the exact
    # rung, so the answer is the fault-free one.
    return default_ladder(time_limit_s=30.0, retries=1)


@pytest.fixture(scope="module")
def soak_reference(soak_context, soak_sweeps, soak_ladder):
    """The fault-free answers, computed serially."""
    return [
        parallel_sweep(
            soak_context, sweep, SOAK_ALGORITHMS,
            optimal_time_limit_s=30.0, ladder=soak_ladder,
        )
        for sweep in soak_sweeps
    ]


@pytest.fixture(autouse=True)
def _clean_up():
    yield
    chaos.uninstall()
    close_default_executor()


#: The exact-solver fault rides every sweep: each process's first exact
#: solve times out, and the ladder's retry answers.
_SOLVER_FAULTS = (
    Fault("optimal.solve", "raise-timeout", at_call=1, count=1),
)


def soak_schedule(seed: int = SOAK_SEED) -> list[ChaosPlan]:
    """Per-sweep fault plans: kill sweep, hang sweep, solver-fault sweep."""
    rng = random.Random(seed)
    return [
        ChaosPlan((
            Fault("sweep.task", "kill-worker", at_call=rng.randint(1, 3),
                  count=1),
            *_SOLVER_FAULTS,
        )),
        ChaosPlan((
            Fault("sweep.task", "hang", at_call=rng.randint(1, 2), count=1,
                  seconds=20.0),
            *_SOLVER_FAULTS,
        )),
        ChaosPlan(_SOLVER_FAULTS),
    ]


def _soak_policy() -> SupervisorPolicy:
    return SupervisorPolicy(
        task_deadline_s=4.0, poll_interval_s=0.1, max_task_retries=1,
    )


def _soak_campaign(context, sweeps, ladder, store, supervisor, executor):
    return run_campaign(
        context, sweeps, SOAK_ALGORITHMS,
        executor=executor, max_workers=2,
        optimal_time_limit_s=30.0, ladder=ladder,
        store=store, supervisor=supervisor,
    )


def _run_soak_campaign(context, sweeps, ladder, store, supervisor, plans):
    """Drive the campaign sweep by sweep, installing that sweep's plan."""
    collected = {}
    with SweepExecutor(max_workers=2) as executor:
        stream = _soak_campaign(context, sweeps, ladder, store, supervisor, executor)
        try:
            for plan in plans:
                chaos.install(plan)
                index, results = next(stream)
                collected[index] = results
            chaos.uninstall()
            for index, results in stream:  # drain the fault-free rest
                collected[index] = results
        finally:
            chaos.uninstall()
    return collected


class TestChaosSoak:
    def test_campaign_under_compound_chaos_is_bit_identical(
        self, soak_context, soak_sweeps, soak_ladder, soak_reference, tmp_path
    ):
        supervisor = SweepSupervisor(_soak_policy())
        store = SolveStore(tmp_path / "store")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            collected = _run_soak_campaign(
                soak_context, soak_sweeps, soak_ladder, store,
                supervisor, soak_schedule(),
            )

        # 1. Bit-identical to the fault-free run, sweep by sweep.
        assert sorted(collected) == [0, 1, 2]
        for index, reference in enumerate(soak_reference):
            assert_sweeps_identical(reference, collected[index])

        # 2. Every injected fault family is accounted for.
        stats = supervisor.stats
        assert stats["supervised_sweeps"] == len(soak_sweeps)
        assert stats["pool_crashes"] >= 1, "kill-worker must surface"
        assert stats["preemptions"] >= 1, "hang must trip the watchdog"
        assert stats["quarantined"] >= 1, "repeat offenders must quarantine"
        meta_actions = {
            event["action"]
            for _, results in collected.items()
            for result in results
            for event in result.meta.get("supervisor", {}).get("events", ())
        }
        assert "pool-crash" in meta_actions
        assert "preempted" in meta_actions
        assert "quarantine" in meta_actions
        # The timeout's retry is on the ladder trail of at least one
        # result (whichever scenario each process hit first).
        retried_rungs = {
            event.rung
            for _, results in collected.items()
            for result in results
            for event in result.degradation.events
            if event.action == "retry"
        }
        assert "sparse+warm" in retried_rungs, "injected timeout must show"

        # 3. The campaign summary rolls all of it up, JSON-safe.
        summary = campaign_summary(collected, supervisor=supervisor)
        assert summary["sweeps"] == len(soak_sweeps)
        assert summary["quarantined"] >= 1
        assert summary["supervisor"]["stats"]["pool_crashes"] >= 1
        assert json.dumps(summary)

        # 4. Chaos bypasses the store: a faulted run records nothing.
        assert store.record_bytes() == 0
        assert summary["store_hits"] == summary["store_misses"] == 0

    def test_soaked_campaign_resumes_bit_identically_after_hard_kill(
        self, soak_context, soak_sweeps, soak_ladder, soak_reference, tmp_path
    ):
        """The soak campaign, fault-free on a store, is cut after two
        sweeps — a hard kill there leaves the same store, since each
        sweep settles before it returns.  The re-run on that store is
        bit-identical, and the two completed sweeps replay without a
        solve.  (Under chaos the store is bypassed, so only a fault-free
        campaign resumes.)"""
        root = tmp_path / "store"
        with SweepExecutor(max_workers=2) as executor:
            stream = _soak_campaign(
                soak_context, soak_sweeps, soak_ladder, SolveStore(root),
                SweepSupervisor(_soak_policy()), executor,
            )
            first = dict([next(stream), next(stream)])
            stream.close()
        resumed = _run_soak_campaign(
            soak_context, soak_sweeps, soak_ladder, SolveStore(root),
            SweepSupervisor(_soak_policy()), plans=(),
        )
        assert sorted(first) == [0, 1]
        for index, reference in enumerate(soak_reference):
            if index in first:
                assert_sweeps_identical(reference, first[index])
            assert_sweeps_identical(reference, resumed[index])
        for index in first:
            assert store_summary(resumed[index])["misses"] == 0


class TestLadderInsideWarmExecutor:
    """Satellite: ladder retries + quarantine + resume, one scenario set."""

    def test_ladder_demotes_and_quarantines_under_kill_and_hang(
        self, soak_context, soak_ladder
    ):
        """Two chaotic sweeps on one warm executor: a hang sweep (the
        watchdog preempts) then a kill sweep (the pool crashes), both
        with the injected-timeout ladder retry in the mix, both
        resolving through quarantine to the fault-free answers."""
        scenarios = (
            FailureScenario(frozenset({0})),
            FailureScenario(frozenset({3})),
        )
        reference = parallel_sweep(
            soak_context, scenarios, SOAK_ALGORITHMS,
            optimal_time_limit_s=30.0, ladder=soak_ladder,
        )
        faults = {
            "hang": Fault("sweep.task", "hang", at_call=1, count=1,
                          seconds=20.0),
            "kill": Fault("sweep.task", "kill-worker", at_call=1, count=1),
        }
        supervisors = {kind: SweepSupervisor(_soak_policy()) for kind in faults}
        with SweepExecutor(max_workers=2) as executor:
            for kind, fault in faults.items():
                with chaos.inject(
                    fault,
                    Fault("optimal.solve", "raise-timeout", at_call=1,
                          count=1),
                ), warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegradedResultWarning)
                    chaotic = parallel_sweep(
                        soak_context, scenarios, SOAK_ALGORITHMS,
                        optimal_time_limit_s=30.0, ladder=soak_ladder,
                        max_workers=2,
                        executor=executor, supervisor=supervisors[kind],
                    )
                assert_sweeps_identical(reference, chaotic)
                assert any(
                    result.meta.get("supervisor", {}).get("quarantined")
                    for result in chaotic
                ), f"{kind} sweep must quarantine its poisoned scenarios"
                assert any(
                    event.action == "retry"
                    for result in chaotic
                    for event in result.degradation.events
                ), f"{kind} sweep must carry the ladder retry trail"
            assert supervisors["hang"].stats["preemptions"] >= 1
            assert supervisors["kill"].stats["pool_crashes"] >= 1

            # Known-poison scenarios bypass the pool in later sweeps of
            # the same supervisor: with the kill fault still armed, the
            # re-run quarantines upfront and nothing ever reaches a
            # worker — no further pool crash.
            survivor = supervisors["kill"]
            crashes_before = survivor.stats["pool_crashes"]
            with chaos.inject(faults["kill"]), warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                rerun = parallel_sweep(
                    soak_context, scenarios, SOAK_ALGORITHMS,
                    optimal_time_limit_s=30.0, ladder=soak_ladder,
                    max_workers=2,
                    executor=executor, supervisor=survivor,
                )
            assert_sweeps_identical(reference, rerun)
            assert survivor.stats["pool_crashes"] == crashes_before
            assert all(
                result.meta["supervisor"]["quarantined"] for result in rerun
            )

    def test_interrupted_supervised_sweep_resumes_bit_identically(
        self, soak_context, soak_ladder, tmp_path, monkeypatch
    ):
        """A supervised ladder sweep that raises in the parent after its
        first scenario completes resumes on its store: the completed
        scenario replays, the other is solved, and the answers are the
        fault-free ones."""
        scenarios = (
            FailureScenario(frozenset({0})),
            FailureScenario(frozenset({3})),
        )
        reference = parallel_sweep(
            soak_context, scenarios, SOAK_ALGORITHMS,
            optimal_time_limit_s=30.0, ladder=soak_ladder,
        )
        root = tmp_path / "store"
        supervisor = SweepSupervisor(_soak_policy())
        with SweepExecutor(max_workers=2) as executor:
            options = dict(
                optimal_time_limit_s=30.0, ladder=soak_ladder,
                max_workers=2,
                executor=executor, supervisor=supervisor,
            )
            interrupt_after(monkeypatch, 1)
            with pytest.raises(Interrupted):
                parallel_sweep(
                    soak_context, scenarios, SOAK_ALGORITHMS,
                    store=SolveStore(root), **options,
                )
            monkeypatch.undo()
            resumed = parallel_sweep(
                soak_context, scenarios, SOAK_ALGORITHMS,
                store=SolveStore(root), **options,
            )
        assert_sweeps_identical(reference, resumed)
        assert store_summary(resumed)["hits"] == len(SOAK_ALGORITHMS)


class TestEvictionTelemetry:
    """Satellite: layered-LRU eviction counters surface end to end."""

    def test_worker_cache_stats_shape(self):
        from repro.perf.executor import worker_cache_stats

        stats = worker_cache_stats()
        assert set(stats["evictions"]) == {"context", "plan", "chaos_nonce"}
        assert all(count >= 0 for count in stats["evictions"].values())

    def test_fanout_meta_omits_zero_eviction_counters(
        self, soak_context, soak_sweeps, soak_ladder
    ):
        with SweepExecutor(max_workers=2) as executor:
            results = parallel_sweep(
                soak_context, soak_sweeps[0], SOAK_ALGORITHMS,
                optimal_time_limit_s=30.0, ladder=soak_ladder,
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
                        optimal_time_limit_s=30.0, max_workers=2,
                        executor=executor,
                    )
                finally:
                    chaos.uninstall()
            evictions = results[0].meta["fanout"].get("evictions", {})
        assert evictions.get("chaos_nonce", 0) >= 1

    def test_campaign_summary_folds_eviction_telemetry(
        self, soak_context, soak_sweeps, soak_ladder
    ):
        with SweepExecutor(max_workers=2) as executor:
            collected = dict(run_campaign(
                soak_context, soak_sweeps, SOAK_ALGORITHMS,
                executor=executor, max_workers=2,
                optimal_time_limit_s=30.0, ladder=soak_ladder,
            ))
        summary = campaign_summary(collected)
        assert "evictions" in summary
        assert all(count > 0 for count in summary["evictions"].values())
