"""Process-pool execution of failure sweeps, with a resilience layer.

A sweep is embarrassingly parallel across scenarios × algorithms: every
task grounds its instance from the same shared data (topology, flows,
the context's grounding index) and writes to a disjoint result slot.  This module
fans those tasks over a :class:`~repro.perf.executor.SweepExecutor` —
the caller's, or one scoped to the call and closed before it returns —
and merges results back in deterministic (scenario, algorithm) order,
so the output is indistinguishable from the serial sweep apart from
wall-clock time.

Only sweeps that hold an exact solve (:data:`_HEAVY_ALGORITHMS`) fan
out.  A heuristic task takes well under a millisecond, so a
heuristic-only sweep loses to the serial path on every pool route,
warm or fresh, whatever its size; it runs serially.

Every submission carries a small :class:`~repro.perf.executor.
WarmHeader`: the pickled context (without its grounding index, which
each worker rebuilds from the model) plus a pickle of the per-sweep
parameters.  Workers decode each layer once and cache it, so a pool
pays for the context once per worker, not once per task.

Resilience (all opt-in, zero overhead when unused):

* Any failure to parallelize — payloads that refuse to pickle, a
  platform without working process pools, a pool that dies mid-sweep —
  degrades to the serial path for the *remaining* tasks, keeping every
  result already computed.  The cause is surfaced through a
  :class:`~repro.resilience.degradation.DegradationReport` on each
  :class:`ScenarioResult` and a
  :class:`~repro.exceptions.DegradedResultWarning` instead of silence.
* ``ladder=`` routes ``optimal`` solves through a degradation ladder
  (:func:`repro.resilience.degradation.solve_with_ladder`) so a dead or
  lying solver rung demotes instead of crashing the sweep.
* ``validate=True`` re-checks every heuristic solution against the
  instance's constraints (:mod:`repro.resilience.validate`).
* ``store=`` is the sweep's only persistent state: clean solves are
  written to the :class:`~repro.perf.store.SolveStore` as scenarios
  complete, so a killed sweep resumes by running again on the same
  store — bit-identically to an uninterrupted run.

Every scenario is solved on its own, exactly as the paper solves
FMSSM once per failure combination: one producer,
:func:`_scenario_rows`, grounds and prepares each scenario once, runs
its algorithms and evaluates their solutions in one batch — the serial
path and every pool worker run it, so no answer depends on which
scenario ran before it or on how many workers ran the sweep.

Fault-injection sites (``sweep.task``, ``sweep.payload``) are threaded
through the hot paths; see :mod:`repro.resilience.chaos`.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import time
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.baselines import get_algorithm
from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning
from repro.fmssm.arrays import Frame
from repro.fmssm.evaluation import RecoveryEvaluation, evaluate_batch, rebase
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.solution import RecoverySolution
from repro.perf.kernels import prepare_instance
from repro.resilience import chaos
from repro.perf.store import (
    SolveStore,
    decode_result,
    encode_result,
    scenario_key,
    solve_key,
)
from repro.resilience.degradation import (
    DegradationReport,
    LadderPolicy,
    solve_with_ladder,
)

__all__ = [
    "SweepPlan",
    "parallel_sweep",
    "store_summary",
]


@dataclass
class SweepPlan:
    """Everything a worker needs to run any (scenario, algorithm) task.

    A worker builds the plan once per sweep from its cached context and
    the sweep's parameters (:func:`repro.perf.executor._warm_plan`), then
    indexes into it by task; the serial path builds one in-process.  The
    active chaos plan (if any) rides along so fault injection reaches
    worker processes.
    """

    context: "ExperimentContext"  # noqa: F821 - imported lazily (cycle)
    scenarios: tuple[FailureScenario, ...]
    optimal_time_limit_s: float = 300.0
    ladder: LadderPolicy | None = None
    validate: bool = False
    chaos_plan: "chaos.ChaosPlan | None" = field(default=None)
    #: Instances grounded through :meth:`instance`, by scenario index.
    _instances: dict[int, FMSSMInstance] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def instance(self, index: int) -> FMSSMInstance:
        """The instance of scenario ``index``, held for the plan's life.

        The context holds instances only weakly, and a worker runs a
        scenario's algorithms as separate tasks; this hold keeps one
        grounding per scenario for as long as the worker keeps the plan.
        """
        instance = self._instances.get(index)
        if instance is None:
            instance = self.context.instance(self.scenarios[index])
            self._instances[index] = instance
        return instance


#: Exact solves of P′: their answers must honor the delay bound (Eq. 14),
#: which flow-level heuristics legitimately trade off.  Decided from the
#: requested algorithm (a two-stage answer is named ``"two-stage"``).
_EXACT_ALGORITHMS = frozenset({"optimal", "optimal-two-stage"})

#: Algorithms whose per-task cost dwarfs pool overhead (exact solves).
#: Only a sweep that holds one of them fans out.
_HEAVY_ALGORITHMS = _EXACT_ALGORITHMS | {"retroflow-ip"}

#: Shortest time between two of a sweep's writes to its store.  A
#: scenario that completes this long after the previous write (or the
#: sweep's start) is written at once, with whatever earlier completions
#: are still buffered: one ``put_many`` (one fsync per shard written)
#: per batch rather than per scenario.  A hard kill loses only what is
#: buffered, which a re-run on the same store solves again.
_SETTLE_INTERVAL_S = 1.0


@dataclass
class FanoutStats:
    """Observable cost of shipping one sweep to the pool workers.

    ``payload_bytes`` is the size of one submission's header (pickled
    context plus per-sweep parameters).  ``encode_s`` is the parent's
    encode time (near zero when the executor's context cache hits).
    ``worker_init_s`` is the slowest worker's cache-miss plan build, 0.0
    when every worker hit its plan cache.  ``evictions`` holds the
    worst-worker cache-eviction counts per LRU layer
    (``context``/``plan``/``chaos_nonce``), since any worker's eviction
    means a future re-decode; layers that evicted nothing are omitted.
    """

    payload_bytes: int
    encode_s: float = 0.0
    worker_init_s: float = 0.0
    evictions: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form for result meta and bench records."""
        out = {
            "payload_bytes": self.payload_bytes,
            "encode_s": self.encode_s,
            "worker_init_s": self.worker_init_s,
        }
        if self.evictions:
            out["evictions"] = dict(self.evictions)
        return out


def _solve(
    instance: FMSSMInstance,
    algorithm: str,
    time_limit_s: float,
    ladder: LadderPolicy | None = None,
    validate: bool = False,
) -> tuple[RecoverySolution, DegradationReport | None]:
    """Run one algorithm on one instance (same routing as the serial path).

    With a ladder, ``optimal`` solves walk the rung chain and return
    their degradation trail; heuristics optionally pass through the
    independent validator.
    """
    if algorithm == "optimal":
        if ladder is not None:
            return solve_with_ladder(instance, ladder)
        return solve_optimal(instance, time_limit_s=time_limit_s), None
    solution = get_algorithm(algorithm)(instance)
    if validate:
        from repro.resilience.validate import check_solution

        check_solution(instance, solution, enforce_delay=algorithm in _EXACT_ALGORITHMS)
    return solution, None


#: One finished task: (scenario index, algorithm, solution, evaluation,
#: degradation dict).  Pool workers append a sixth element — the
#: worker's cache telemetry snapshot
#: (:func:`repro.perf.executor.worker_cache_stats`).
_TaskResult = tuple[int, str, RecoverySolution, RecoveryEvaluation, "dict | None"]


def _scenario_rows(
    plan: SweepPlan,
    tasks: Sequence[tuple[int, str]],
    instance_of=None,
    network: Frame | None = None,
) -> Iterator[_TaskResult]:
    """Solve + evaluate ``tasks`` of ``plan``, yielding their rows.

    Consecutive tasks of one scenario share one grounding and kernel
    prep, and their solutions are evaluated in one
    :func:`~repro.fmssm.evaluation.evaluate_batch` call.  Every task
    passes the ``sweep.task`` chaos site once.  ``instance_of``
    overrides instance grounding (the runner passes its store-probe
    cache).  With ``network`` (the parent's), rows are kept as its
    positions (:func:`~repro.fmssm.evaluation.rebase`); a pool worker's
    rows travel as dicts.  Rows are yielded scenario by scenario, so the
    serial path settles each one in the store as it completes.
    """
    if instance_of is None:
        instance_of = plan.instance
    for index, group in itertools.groupby(tasks, key=lambda t: t[0]):
        instance = instance_of(index)
        prepare_instance(instance)
        solved = []
        for _, algorithm in group:
            chaos.check("sweep.task")
            solution, report = _solve(
                instance,
                algorithm,
                plan.optimal_time_limit_s,
                plan.ladder,
                plan.validate,
            )
            solved.append((algorithm, solution, report))
        solutions = [sol for _, sol, _ in solved]
        evaluations = evaluate_batch(instance, solutions)
        if network is not None:
            rebase(instance, solutions, evaluations, network)
        for (algorithm, solution, report), evaluation in zip(solved, evaluations):
            yield (
                index, algorithm, solution, evaluation,
                None if report is None else report.to_dict(),
            )


class _SweepRunner:
    """One sweep execution: slots, store settling, and degradation audit."""

    def __init__(
        self,
        context: "ExperimentContext",  # noqa: F821
        scenarios: tuple[FailureScenario, ...],
        algorithms: tuple[str, ...],
        optimal_time_limit_s: float,
        ladder: LadderPolicy | None,
        validate: bool,
        store: SolveStore | None = None,
    ) -> None:
        from repro.experiments.runner import ScenarioResult

        self.context = context
        self.scenarios = scenarios
        self.algorithms = algorithms
        self.optimal_time_limit_s = optimal_time_limit_s
        self.ladder = ladder
        self.validate = validate
        self.store = store
        #: Instances the store probe grounded to validate hits, by
        #: scenario index; the solve reuses them.
        self._grounded: dict[int, FMSSMInstance] = {}
        #: Per-scenario store provenance stamped on ``meta["store"]``.
        self._provenance: dict[int, dict] = {}
        #: Clean records of completed scenarios not yet written, and
        #: when the sweep last wrote (:meth:`_settle`).
        self._unsettled: list[tuple[str, dict]] = []
        self._written_at = time.monotonic()
        #: Fan-out stats of the last pool launch, if any.
        self.fanout: FanoutStats | None = None
        self.results = [
            ScenarioResult(scenario=scenario, degradation=DegradationReport())
            for scenario in scenarios
        ]
        #: Scenario indices fully solved (all algorithms present).
        self.completed: set[int] = set()

    def _scenario_done(self, index: int) -> None:
        """Mark a scenario complete and settle its fresh solves.

        Every route — serial, fresh pool, warm and supervised — stores
        its rows in the parent through :meth:`_store`, which lands here
        once a scenario holds all its algorithms.
        """
        self.completed.add(index)
        if self.store is not None:
            self._settle(index)

    # -- bookkeeping ---------------------------------------------------
    def record_mode(self, reason: str, degraded: bool = False) -> None:
        """Stamp the execution mode onto every not-yet-completed result."""
        action = "serial-fallback" if degraded else "mode"
        for index, result in enumerate(self.results):
            if index not in self.completed:
                result.degradation.record("sweep", action, reason)

    def _store(
        self,
        index: int,
        algorithm: str,
        solution: RecoverySolution,
        evaluation: RecoveryEvaluation,
        report_dict: dict | None,
        worker_stats: dict | None = None,
    ) -> None:
        if worker_stats is not None and self.fanout is not None:
            # Worst-worker semantics: the slowest cache-miss plan build,
            # and any worker's eviction is a future re-decode somewhere
            # in the pool.
            self.fanout.worker_init_s = max(
                self.fanout.worker_init_s, worker_stats["plan_build_s"]
            )
            for layer, count in worker_stats["evictions"].items():
                if count > self.fanout.evictions.get(layer, 0):
                    self.fanout.evictions[layer] = count
        result = self.results[index]
        result.solutions[algorithm] = solution
        result.evaluations[algorithm] = evaluation
        if report_dict is not None:
            task_report = DegradationReport.from_dict(report_dict)
            result.degradation.events.extend(task_report.events)
            if task_report.rung_used is not None:
                result.degradation.rung_used = task_report.rung_used
        if len(result.solutions) == len(self.algorithms):
            self._scenario_done(index)

    def pending_tasks(self) -> list[tuple[int, str]]:
        """Remaining (scenario index, algorithm) tasks, deterministic order."""
        return [
            (index, algorithm)
            for index in range(len(self.scenarios))
            if index not in self.completed
            for algorithm in self.algorithms
            if algorithm not in self.results[index].solutions
        ]

    # -- cross-run store ------------------------------------------------
    @functools.cached_property
    def keys(self) -> list[str]:
        """Each scenario's :func:`~repro.perf.store.scenario_key`."""
        return [scenario_key(self.context, s) for s in self.scenarios]

    def _instance(self, index: int) -> FMSSMInstance:
        """Ground scenario ``index`` (reusing the store probe's instance)."""
        cached = self._grounded.get(index)
        if cached is not None:
            return cached
        return self.context.instance(self.scenarios[index])

    def _probe_instance(self, index: int) -> FMSSMInstance:
        """Ground scenario ``index`` and hold it for the rest of the sweep."""
        if index not in self._grounded:
            self._grounded[index] = self.context.instance(self.scenarios[index])
        return self._grounded[index]

    def _hit_solution(self, index: int, algorithm: str, solution) -> bool:
        """Whether a store hit passes the independent validator.

        Runs only when the sweep itself runs with ``validate=True`` —
        the exact policy :func:`_solve` applies to fresh solves — and
        only then grounds the scenario.  Keys already pin the network
        and the code, and records are checksummed, so this is the
        caller's extra assurance rather than a guard against a foreign
        store.  Answers of the requested ``algorithm`` are held to the
        delay bound exactly when fresh ones are (:data:`_EXACT_ALGORITHMS`).
        An invalid hit is treated as a miss.
        """
        if not self.validate or not solution.feasible:
            return True
        from repro.resilience.validate import validate_solution

        return validate_solution(
            self._probe_instance(index),
            solution,
            enforce_delay=algorithm in _EXACT_ALGORITHMS,
        ).ok

    def _clean_for_store(self, result, solution) -> bool:
        """Whether ``solution`` equals what a fresh default solve yields.

        Demoted ladder solves and pm-fallback timeouts answer from a
        lower rung — storing them would replay a degraded answer as a
        pristine one — so only undemoted solves are stored.
        """
        if solution.meta.get("degraded"):
            return False
        report = result.degradation
        return report is None or not any(
            e.action == "demote" for e in report.events
        )

    def probe_store(self) -> None:
        """Satisfy from the store whatever it already holds, before fan-out.

        Every pending (scenario, algorithm) task looks up its solve key.
        A hit decodes its record without grounding the scenario — unless
        the sweep validates (:meth:`_hit_solution`).  Stamps per-scenario
        hit/miss provenance for ``meta["store"]``.
        """
        for index, key in enumerate(self.keys):
            if index in self.completed:
                continue
            result = self.results[index]
            pending = [
                a for a in self.algorithms if a not in result.solutions
            ]
            if not pending:
                continue
            provenance = self._provenance.setdefault(
                index, {"key": key, "hits": [], "misses": []}
            )
            for algorithm in pending:
                record = self.store.get(
                    solve_key(key, algorithm, self.optimal_time_limit_s)
                )
                if record is not None:
                    solution, evaluation = decode_result(self.context, record)
                    if self._hit_solution(index, algorithm, solution):
                        provenance["hits"].append(algorithm)
                        self._store(index, algorithm, solution, evaluation,
                                    None)
                        continue
                provenance["misses"].append(algorithm)

    def _settle(self, index: int) -> None:
        """Buffer completed scenario ``index``'s clean solves of probed
        misses; write the buffer once :data:`_SETTLE_INTERVAL_S` has
        passed since the last write."""
        result = self.results[index]
        self._unsettled.extend(
            (
                solve_key(self.keys[index], algorithm, self.optimal_time_limit_s),
                encode_result(
                    self.context, result.solutions[algorithm],
                    result.evaluations[algorithm],
                ),
            )
            for algorithm in self._provenance[index]["misses"]
            if self._clean_for_store(result, result.solutions[algorithm])
        )
        if time.monotonic() - self._written_at >= _SETTLE_INTERVAL_S:
            self.flush_store()

    def flush_store(self) -> None:
        """Write every buffered record with one put-if-absent ``put_many``."""
        if self._unsettled:
            records, self._unsettled = self._unsettled, []
            self.store.put_many(records)
            self._written_at = time.monotonic()

    # -- execution -----------------------------------------------------
    def _as_plan(self) -> SweepPlan:
        """This runner's settings as a :class:`SweepPlan` (serial path)."""
        return SweepPlan(
            self.context,
            self.scenarios,
            self.optimal_time_limit_s,
            self.ladder,
            self.validate,
        )

    def run_serial(self, tasks: Sequence[tuple[int, str]]) -> None:
        """Solve ``tasks`` in-process, in deterministic order."""
        rows = _scenario_rows(
            self._as_plan(), tasks, instance_of=self._instance,
            network=self.context.network_frame(),
        )
        for row in rows:
            self._store(*row)

    # -- pool execution ------------------------------------------------
    def _warm_header(self, executor) -> tuple[object, FanoutStats]:
        """Encode this sweep for ``executor`` (header + fan-out stats).

        The heavy context payload comes from the executor's cache —
        near-free on every sweep after the first over a context — and
        only the light per-sweep parameters are serialized fresh; the
        ``sweep.payload`` chaos site applies to that fresh blob.
        """
        from repro.perf import executor as executor_mod

        start = time.perf_counter()
        entry = executor.encode_context(self.context)
        chaos_plan = chaos.active_plan()
        blob = pickle.dumps(
            executor_mod._SweepParams(
                scenarios=self.scenarios,
                optimal_time_limit_s=self.optimal_time_limit_s,
                ladder=self.ladder,
                validate=self.validate,
                chaos_plan=chaos_plan,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = chaos.transform("sweep.payload", blob)
        header = executor_mod.WarmHeader(
            plan_key=executor.plan_key(entry, blob, chaotic=chaos_plan is not None),
            context_key=(executor.id, entry.generation),
            context_payload=entry.payload,
            sweep_blob=blob,
        )
        stats = FanoutStats(
            payload_bytes=len(entry.payload) + len(blob),
            encode_s=time.perf_counter() - start,
        )
        return header, stats

    def run_warm(self, tasks: Sequence[tuple[int, str]], executor) -> bool:
        """Fan ``tasks`` over ``executor``'s pool, one submission per
        task; True when all completed.

        False keeps every received result and sends the caller to the
        serial path: the pool broke, or a payload or result refused to
        (un)pickle.  A broken pool is flagged for transparent respawn on
        the executor's next sweep.  Task-level exceptions (solver bugs,
        validation failures without a ladder, injected
        :class:`~repro.exceptions.ChaosError`) propagate unchanged,
        exactly as the serial path would raise them.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.perf.executor import _warm_run_task

        try:
            header, stats = self._warm_header(executor)
        except Exception as exc:  # unpicklable context: stay serial
            self._warn_fallback(f"sweep plan failed to encode ({exc!r})")
            return False
        self.fanout = stats
        executor.stats["sweeps"] += 1
        try:
            pool = executor.pool()
            pending = {
                pool.submit(_warm_run_task, header, task) for task in tasks
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    self._store(*future.result())
        except (OSError, pickle.PickleError, BrokenProcessPool) as exc:
            # A worker killed mid-task or a payload/result that refuses
            # (un)pickling: keep what we have, finish serially, and let
            # the executor respawn its pool lazily.
            executor.mark_broken()
            self._warn_fallback(f"process pool failed ({exc!r})")
            return False
        return True

    # -- supervised execution ------------------------------------------
    def _supervisor_meta(self, index: int) -> dict:
        """The per-result supervisor audit dict (created on first use)."""
        return self.results[index].meta.setdefault(
            "supervisor", {"events": [], "quarantined": False}
        )

    def _run_quarantined(self, index: int, q_report, supervisor) -> None:
        """Solve one quarantined scenario serially through the ladder.

        Runs in the parent, where ``kill-worker`` and ``hang`` chaos are
        no-ops by construction, and deliberately skips the ``sweep.task``
        chaos site — the terminal fallback must always complete.  Exact
        solves go through the sweep's ladder (or the default one) so a
        genuinely broken solver still degrades to the PM rung instead of
        wedging the campaign.
        """
        from repro.resilience.degradation import default_ladder

        result = self.results[index]
        ladder = self.ladder or default_ladder(self.optimal_time_limit_s)
        instance = self._instance(index)
        prepare_instance(instance)
        solved = []
        for algorithm in self.algorithms:
            if algorithm in result.solutions:
                continue
            solution, report = _solve(
                instance,
                algorithm,
                self.optimal_time_limit_s,
                ladder,
                self.validate,
            )
            solved.append((algorithm, solution, report))
        solutions = [sol for _, sol, _ in solved]
        evaluations = evaluate_batch(instance, solutions)
        rebase(instance, solutions, evaluations, self.context.network_frame())
        result.degradation.record(
            "supervisor",
            "quarantine",
            f"retry budget exhausted after {q_report.charges} "
            f"{q_report.cause} charge(s); solved serially via the ladder",
        )
        meta = self._supervisor_meta(index)
        meta["quarantined"] = True
        meta["events"].append({"action": "quarantine", **q_report.to_dict()})
        for (algorithm, solution, report), evaluation in zip(solved, evaluations):
            self._store(
                index, algorithm, solution, evaluation,
                None if report is None else report.to_dict(),
            )

    def _quarantine_over_budget(self, supervisor) -> None:
        """Quarantine + serially solve every over-budget scenario.

        Covers both *fresh* decisions (this sweep's charges crossed the
        budget) and scenarios already quarantined by an earlier sweep of
        the same campaign: known-poison work never reaches the pool
        again, it goes straight to the parent-serial ladder.
        """
        open_indices = {
            self.scenarios[i].name: i
            for i in range(len(self.scenarios))
            if i not in self.completed
        }
        reports = {
            q_report.scenario: q_report
            for q_report in supervisor.quarantine_decisions(
                list(open_indices), self.algorithms
            )
        }
        for q_report in supervisor.quarantines:
            if q_report.scenario in open_indices:
                reports.setdefault(q_report.scenario, q_report)
        for name, q_report in reports.items():
            self._run_quarantined(open_indices[name], q_report, supervisor)

    def run_supervised(self, tasks: Sequence[tuple[int, str]], executor,
                       supervisor) -> bool:
        """Warm fan-out under a :class:`~repro.resilience.supervisor.
        SweepSupervisor`; True when all tasks completed.

        Same submissions and result contract as :meth:`run_warm` —
        fault-free, the two are byte-for-byte identical (the supervisor's
        hooks all return their inputs unchanged) — plus four layers of
        supervision, re-submitted in *rounds* until nothing is pending:

        * The wait loop doubles as the watchdog: it wakes every
          ``poll_interval_s``, stamps a deadline on each task when it is
          first observed *running*, and hard-kills the pool
          (:meth:`~repro.perf.executor.SweepExecutor.preempt`) when a
          task overstays — charging only the overdue tasks' scenarios.
        * A :class:`~repro.exceptions.ChaosError` escaping a task is a
          *task fault*: its scenario is charged and the task requeued.
          Any other task exception propagates unchanged, exactly as the
          unsupervised routes raise it.
        * Scenarios charged past the retry budget are quarantined and
          solved serially in the parent before the next round.
        * Each round submits under the breaker-effective ladder; a
          breaker state change mid-round cancels the not-yet-running
          remainder so it requeues under the new ladder.

        Pool crashes (``BrokenProcessPool`` and kin) charge the scenarios
        of the tasks last observed running — the likely culprits — or of
        all unfinished ones when nothing was seen running.  A failure
        charges each scenario once, however many of its tasks it hit.
        After ``max_pool_restarts`` of them the sweep falls back to
        serial like :meth:`run_warm` does on its first crash.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.exceptions import ChaosError
        from repro.perf.executor import _warm_run_task

        policy = supervisor.policy
        supervisor.stats["supervised_sweeps"] += 1
        executor.stats["sweeps"] += 1
        base_ladder = self.ladder
        pool_restarts = 0
        # One header per effective ladder for the whole sweep.
        # Rebuilding per requeue round would mint a fresh chaos nonce
        # each time (``SweepExecutor.plan_key``), resetting the workers'
        # fault counters every round — a one-shot injected fault would
        # then re-fire on every retry instead of being retried past.
        headers: list = []

        try:
            while True:
                self._quarantine_over_budget(supervisor)
                tasks = self.pending_tasks()
                if not tasks:
                    return True

                self.ladder = ladder_round = supervisor.effective_ladder(base_ladder)
                # Re-derived every round: rung-latency EWMAs observed in
                # earlier rounds (and earlier sweeps of the campaign)
                # tighten the watchdog for this one.
                deadline_s = supervisor.task_deadline_s(
                    base_ladder, self.optimal_time_limit_s
                )
                built = next(
                    (built for ladder, built in headers if ladder == ladder_round),
                    None,
                )
                if built is None:
                    try:
                        built = self._warm_header(executor)
                    except Exception as exc:  # unpicklable context: stay serial
                        self._warn_fallback(
                            f"sweep plan failed to encode ({exc!r})"
                        )
                        return False
                    headers.append((ladder_round, built))
                header, self.fanout = built

                submitted: dict = {}
                processed: set = set()
                running_seen: set = set()
                deadlines: dict = {}
                try:
                    pool = executor.pool()
                    for task in tasks:
                        submitted[pool.submit(_warm_run_task, header, task)] = task

                    pending = set(submitted)
                    while pending:
                        done, pending = wait(
                            pending,
                            timeout=policy.poll_interval_s,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            if future.cancelled():
                                continue
                            processed.add(future)
                            try:
                                row = future.result()
                            except ChaosError as exc:
                                supervisor.stats["task_faults"] += 1
                                self._charge(
                                    supervisor, [submitted[future]], "task-fault",
                                    str(exc),
                                )
                                continue
                            self._store(*row)
                            supervisor.observe_report(row[4])
                            if base_ladder is None:
                                # Ladderless sweeps have no rung events;
                                # the solve wall-clock feeds the generic
                                # "task" EWMA instead.
                                supervisor.observe_latency(
                                    "task", row[2].solve_time_s
                                )

                        now = supervisor.clock()
                        for future in pending:
                            if future not in deadlines and future.running():
                                running_seen.add(future)
                                deadlines[future] = now + deadline_s
                        expired = [
                            f for f in pending
                            if f in deadlines and now > deadlines[f]
                        ]
                        if expired:
                            # Hung worker(s): kill the whole pool — a
                            # wedged task cannot be cancelled — charge
                            # only the overdue tasks, requeue the rest.
                            supervisor.stats["preemptions"] += 1
                            pool_restarts += 1
                            executor.preempt()
                            processed.update(expired)
                            names = self._charge(
                                supervisor, [submitted[f] for f in expired],
                                "preempted",
                                f"task exceeded its {deadline_s:.1f}s deadline",
                            )
                            supervisor.events.append({
                                "action": "preempt", "scenarios": sorted(names),
                            })
                            break

                        if supervisor.effective_ladder(base_ladder) != ladder_round:
                            # A breaker opened or half-opened mid-round:
                            # requeue everything not yet running under
                            # the new effective ladder.
                            for future in list(pending):
                                future.cancel()
                except ChaosError as exc:
                    # ``executor.respawn`` chaos: the host cannot fork
                    # replacement workers — only the serial path is left.
                    self._warn_fallback(f"pool respawn failed ({exc!r})")
                    return False
                except (OSError, pickle.PickleError, BrokenProcessPool) as exc:
                    supervisor.stats["pool_crashes"] += 1
                    pool_restarts += 1
                    executor.mark_broken()
                    blamed = [
                        f for f in running_seen if f not in processed
                    ] or [f for f in submitted if f not in processed]
                    processed.update(blamed)
                    self._charge(
                        supervisor, [submitted[f] for f in blamed], "pool-crash",
                        repr(exc),
                    )
                    if pool_restarts > policy.max_pool_restarts:
                        self._warn_fallback(
                            f"process pool failed {pool_restarts} times, "
                            f"exceeding max_pool_restarts="
                            f"{policy.max_pool_restarts} ({exc!r})"
                        )
                        return False
        finally:
            self.ladder = base_ladder

    def _charge(self, supervisor, tasks, cause: str, reason: str) -> list[str]:
        """Charge one failure to the scenarios of ``tasks`` — each
        scenario once, however many of its tasks the failure hit — and
        stamp it on their results; returns the scenarios' names."""
        indices = sorted({index for index, _ in tasks})
        names = [self.scenarios[i].name for i in indices]
        supervisor.charge(names, cause)
        for index in indices:
            self.results[index].degradation.record("supervisor", cause, reason)
            self._supervisor_meta(index)["events"].append({
                "action": cause,
                "reason": reason,
            })
        supervisor.events.append({
            "action": cause,
            "scenarios": names,
            "reason": reason,
        })
        return names

    def _warn_fallback(self, cause: str) -> None:
        reason = f"{cause}; completing remaining tasks serially"
        self.record_mode(reason, degraded=True)
        warnings.warn(DegradedResultWarning(f"parallel sweep degraded: {reason}"),
                      stacklevel=4)

    def finish(self) -> "list[ScenarioResult]":  # noqa: F821
        """The merged results, with their store provenance stamped on
        ``meta["store"]``.

        Solutions/evaluations dicts are put back into the caller's
        algorithm order — pool futures complete in arbitrary order, but
        the output contract is "identical to the serial sweep".
        """
        for index, provenance in self._provenance.items():
            self.results[index].meta["store"] = dict(provenance)
        fanout = None if self.fanout is None else self.fanout.to_dict()
        for result in self.results:
            result.solutions = {
                a: result.solutions[a] for a in self.algorithms if a in result.solutions
            }
            result.evaluations = {
                a: result.evaluations[a]
                for a in self.algorithms
                if a in result.evaluations
            }
            if fanout is not None:
                result.meta["fanout"] = dict(fanout)
        return self.results


def store_summary(results: "Sequence[ScenarioResult]") -> dict[str, object] | None:  # noqa: F821
    """Aggregate store hit/miss provenance of one sweep's results.

    Sums the per-scenario ``meta["store"]`` stamps; ``None`` when the
    sweep ran without a store (or the store was bypassed under chaos).
    """
    hits = misses = stamped = 0
    for result in results:
        stamp = result.meta.get("store")
        if stamp is None:
            continue
        stamped += 1
        hits += len(stamp.get("hits", ()))
        misses += len(stamp.get("misses", ()))
    if stamped == 0:
        return None
    return {"scenarios": stamped, "hits": hits, "misses": misses}


def parallel_sweep(
    context: "ExperimentContext",  # noqa: F821
    scenarios: Sequence[FailureScenario],
    algorithms: Sequence[str],
    optimal_time_limit_s: float = 300.0,
    max_workers: int | None = None,
    ladder: LadderPolicy | None = None,
    validate: bool = False,
    executor: "SweepExecutor | None" = None,  # noqa: F821
    supervisor: "SweepSupervisor | None" = None,  # noqa: F821
    store: SolveStore | None = None,
) -> "list[ScenarioResult]":  # noqa: F821
    """Run ``scenarios`` × ``algorithms`` over a process pool.

    Results are merged in scenario order with per-scenario algorithm
    order preserved, exactly as the serial sweep produces them.

    Only a sweep that holds an exact solve (``optimal``,
    ``optimal-two-stage`` or ``retroflow-ip``, :data:`_HEAVY_ALGORITHMS`)
    fans out, one task per submission, and only when ``max_workers``
    resolves to more than one worker.  Every heuristic-only sweep runs
    serially, whatever its size and whether or not an ``executor`` or
    ``supervisor`` is passed: its sub-millisecond tasks never repay
    shipping them to a pool, warm or fresh.  A pool sweep falls back to
    the serial path when the plan or a result refuses to pickle, or when
    the pool breaks; only the *remaining* tasks are recomputed, and the
    cause is recorded on every affected result's ``degradation`` report
    and raised as a :class:`~repro.exceptions.DegradedResultWarning`.

    Resilience knobs (see :mod:`repro.resilience`): ``ladder`` walks
    ``optimal`` solves down a degradation ladder and ``validate``
    re-checks heuristic solutions.

    Without ``executor`` the sweep runs on a
    :class:`~repro.perf.executor.SweepExecutor` scoped to the call, whose
    workers exit before the call returns.  Passing a warm ``executor``
    keeps its workers across sweeps, together with their decoded
    contexts and plans, so every sweep after the first over a context
    runs near the pure-solve floor.  Results stay bit-identical either
    way, and pool failures degrade to the serial path on both.

    ``supervisor`` wraps the warm route in a
    :class:`~repro.resilience.supervisor.SweepSupervisor`: per-task
    deadlines with hung-worker preemption, retry budgets with poison-
    scenario quarantine to the serial ladder, and circuit breakers
    around the exact rungs.  A sweep that fans out under a supervisor
    takes the warm route (the default executor is used when none is
    passed); with no faults observed the supervised sweep is
    bit-identical to the unsupervised one.

    ``store`` memoizes solves across parent processes and runs through a
    :class:`~repro.perf.store.SolveStore`, keyed by scenario: the
    network's digest, the failed-controller set, the algorithm with its
    parameters and the code's identity.  A recorded task replays its
    stored solution and evaluation without grounding the scenario —
    bit-identical to a fresh solve; with ``validate=True`` the hit is
    also validated against the grounded instance.  Fresh clean solves
    are written back as their scenarios complete, at most one batch per
    :data:`_SETTLE_INTERVAL_S`, and flushed when the sweep returns or
    raises, so the store is also how a killed sweep resumes: run it
    again on the same store and only the unwritten scenarios are
    solved.  Degraded and demoted solves are never stored, so a resumed
    sweep solves them again.  Defaults to the executor's store when one
    is attached.  Under an active chaos plan the store is bypassed
    entirely so fault injection still exercises real solves; a chaotic
    sweep is never resumed.
    """
    if executor is not None and executor.closed:
        raise ValueError("executor is closed; create a new SweepExecutor")
    if supervisor is not None and executor is None:
        from repro.perf.executor import get_default_executor

        executor = get_default_executor(max_workers)
    if store is None and executor is not None:
        store = executor.store
    if store is not None and chaos.active_plan() is not None:
        # Replaying a recorded answer would skip the faulted code paths
        # chaos is trying to exercise — and a faulted solve must never
        # be recorded.  Bypass, don't nonce: the plan's purpose is to
        # observe real solves.
        store = None
    scenarios = tuple(scenarios)
    algorithms = tuple(algorithms)

    runner = _SweepRunner(
        context,
        scenarios,
        algorithms,
        optimal_time_limit_s,
        ladder,
        validate,
        store=store,
    )
    try:
        if store is not None:
            runner.probe_store()
        tasks = runner.pending_tasks()
        if not tasks:
            return runner.finish()
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        workers = min(max_workers, len(tasks))

        if not any(a in _HEAVY_ALGORITHMS for a in algorithms):
            runner.record_mode("serial: heuristic-only sweep")
            runner.run_serial(tasks)
        elif workers <= 1:
            runner.record_mode(f"serial: max_workers={max_workers} resolves to <= 1 worker")
            runner.run_serial(tasks)
        elif executor is not None and supervisor is not None:
            runner.record_mode(
                f"supervised-warm-pool: executor {executor.id}, {workers} workers, "
                f"{len(tasks)} tasks"
            )
            if not runner.run_supervised(tasks, executor, supervisor):
                runner.run_serial(runner.pending_tasks())
        elif executor is not None:
            runner.record_mode(
                f"warm-pool: executor {executor.id}, {workers} workers, "
                f"{len(tasks)} tasks"
            )
            if not runner.run_warm(tasks, executor):
                runner.run_serial(runner.pending_tasks())
        else:
            from repro.perf.executor import SweepExecutor

            runner.record_mode(f"pool: {workers} workers, {len(tasks)} tasks")
            # A pool scoped to this call: closing it shuts the workers down
            # before the serial path picks up whatever the pool left.
            with SweepExecutor(max_workers=workers) as scoped:
                pooled = runner.run_warm(tasks, scoped)
            if not pooled:
                runner.run_serial(runner.pending_tasks())
    finally:
        # Scenarios completed before an exception are written on the
        # way out, so a re-run on the same store resumes after them.
        runner.flush_store()
    return runner.finish()
