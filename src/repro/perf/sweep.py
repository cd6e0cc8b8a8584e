"""Process-pool execution of failure sweeps.

A sweep is embarrassingly parallel across scenarios × algorithms: every
task grounds its instance from the same shared data (topology, flows,
the context's grounding index) and writes to a disjoint result slot.  This module
fans those tasks over a :class:`~repro.perf.executor.SweepExecutor` —
the caller's, or one scoped to the call and closed before it returns —
and merges results back in deterministic (scenario, algorithm) order,
so the output is indistinguishable from the serial sweep apart from
wall-clock time.

This is the one way to run a list of scenarios: figures, the
successive-failure chain and the CLI call :func:`parallel_sweep`, and a
run of many sweeps is a loop over it on one executor.  Serial is
``max_workers=1``.  Only sweeps that hold an exact solve
(:data:`~repro.baselines.TIME_LIMITED_ALGORITHMS`) fan out.  A
heuristic task takes well under a millisecond, so a heuristic-only
sweep loses to the serial path on every pool route, warm or fresh,
whatever its size; it runs serially.

Every submission carries a small :class:`~repro.perf.executor.
WarmHeader`: the pickled context (without its grounding index, which
each worker rebuilds from the model) plus a pickle of the per-sweep
parameters.  Workers decode each layer once and cache it, so a pool
pays for the context once per worker, not once per task.

Pool faults have one policy.  A pool task that runs past its wall
deadline (:func:`task_deadline_s`) has the pool recycled
(:meth:`~repro.perf.executor.SweepExecutor.preempt`); a pool that breaks
(a worker killed mid-task) or a payload that refuses to (un)pickle ends
the pool route the same way.  Either way every result already received
is kept, the remaining tasks run once in the parent, each is recorded on
its result's :class:`~repro.experiments.runner.DegradationReport` with a
typed cause, and a :class:`~repro.exceptions.DegradedResultWarning` is
raised instead of silence.  How an exact solve itself degrades is
decided in one place, :func:`~repro.fmssm.optimal.solve_optimal`; the
sweep records its cause from the answer's ``meta["fallback"]``.

``validate=True`` re-checks every heuristic solution against the
instance's constraints (:mod:`repro.resilience.validate`).  ``store=``
is the sweep's only persistent state: clean solves are written to the
:class:`~repro.perf.store.SolveStore` as scenarios complete, so a killed
sweep resumes by running again on the same store — bit-identically to
an uninterrupted run.

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

from repro.baselines import TIME_LIMITED_ALGORITHMS, run_algorithm
from repro.control.failures import FailureScenario
from repro.exceptions import DegradedResultWarning
from repro.fmssm.arrays import Frame
from repro.fmssm.evaluation import RecoveryEvaluation, evaluate_batch, rebase
from repro.fmssm.instance import FMSSMInstance
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

__all__ = [
    "SweepPlan",
    "parallel_sweep",
    "store_summary",
    "task_deadline_s",
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


#: The pool's wall deadline per task is this many times the exact
#: solver's time limit, plus :data:`_DEADLINE_SLACK_S`: a task marked
#: running may still wait behind one solve on its worker's queue, and a
#: two-stage answer runs two solves of its own.
_DEADLINE_FACTOR = 3.0
#: Seconds on top of the solves: a cache-cold worker decodes the context
#: and builds its plan inside its first task.
_DEADLINE_SLACK_S = 5.0
#: How often the pool route wakes to note tasks that started running and
#: to check their deadlines.
_POLL_S = 0.1


def task_deadline_s(optimal_time_limit_s: float | None) -> float | None:
    """The wall deadline of one pool task, counted from when it starts
    running: ``3 × optimal_time_limit_s + 5 s``, or none without a limit.
    """
    if optimal_time_limit_s is None:
        return None
    return _DEADLINE_FACTOR * optimal_time_limit_s + _DEADLINE_SLACK_S


def _solve(
    instance: FMSSMInstance,
    algorithm: str,
    time_limit_s: float,
    validate: bool = False,
) -> RecoverySolution:
    """Run one algorithm on one instance, as
    :func:`~repro.experiments.runner.run_scenario` does
    (:func:`~repro.baselines.run_algorithm`).

    ``optimal`` validates its own answer and decides its own fallback
    (:func:`~repro.fmssm.optimal.solve_optimal`); every other answer
    optionally passes through the independent validator.
    """
    solution = run_algorithm(instance, algorithm, time_limit_s)
    if algorithm == "optimal":
        return solution
    if validate:
        from repro.resilience.validate import check_solution

        check_solution(instance, solution, enforce_delay=algorithm in _EXACT_ALGORITHMS)
    return solution


#: One finished task: (scenario index, algorithm, solution, evaluation).
#: Pool workers append a fifth element — the worker's cache telemetry
#: snapshot (:func:`repro.perf.executor.worker_cache_stats`).
_TaskResult = tuple[int, str, RecoverySolution, RecoveryEvaluation]


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
        algorithms = []
        solutions = []
        for _, algorithm in group:
            chaos.check("sweep.task")
            algorithms.append(algorithm)
            solutions.append(
                _solve(instance, algorithm, plan.optimal_time_limit_s, plan.validate)
            )
        evaluations = evaluate_batch(instance, solutions)
        if network is not None:
            rebase(instance, solutions, evaluations, network)
        for row in zip(algorithms, solutions, evaluations):
            yield (index, *row)


class _SweepRunner:
    """One sweep execution: slots, store settling, and degradation audit."""

    def __init__(
        self,
        context: "ExperimentContext",  # noqa: F821
        scenarios: tuple[FailureScenario, ...],
        algorithms: tuple[str, ...],
        optimal_time_limit_s: float,
        validate: bool,
        store: SolveStore | None = None,
    ) -> None:
        from repro.experiments.runner import DegradationReport, ScenarioResult

        self.context = context
        self.scenarios = scenarios
        self.algorithms = algorithms
        self.optimal_time_limit_s = optimal_time_limit_s
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

        Every route — serial, fresh pool and warm — stores its rows in
        the parent through :meth:`_store`, which lands here once a
        scenario holds all its algorithms.
        """
        self.completed.add(index)
        if self.store is not None:
            self._settle(index)

    # -- bookkeeping ---------------------------------------------------
    def record_mode(self, reason: str) -> None:
        """Stamp the execution mode onto every not-yet-completed result."""
        for index, result in enumerate(self.results):
            if index not in self.completed:
                result.degradation.record("sweep", "mode", reason)

    def _store(
        self,
        index: int,
        algorithm: str,
        solution: RecoverySolution,
        evaluation: RecoveryEvaluation,
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
        cause = solution.meta.get("fallback")
        if cause is not None:
            result.degradation.record(
                algorithm, cause, solution.meta["fallback_reason"]
            )
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
                        self._store(index, algorithm, solution, evaluation)
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
            # A fallback answer (``solve_optimal``'s PM or seed) is not
            # what a fresh solve yields; storing it would replay it as one.
            if not result.solutions[algorithm].meta.get("degraded")
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
        serial path, which runs the remaining tasks once in the parent:

        * a task ran past its :func:`task_deadline_s`, counted from when
          the pool marked it running — the pool is recycled
          (:meth:`~repro.perf.executor.SweepExecutor.preempt`), since a
          wedged task cannot be cancelled (cause ``deadline``);
        * the pool broke, e.g. a worker was killed mid-task (cause
          ``pool-crash``; the executor respawns it on its next sweep);
        * the plan, a payload or a result refused to (un)pickle (cause
          ``serial-fallback``).

        Task-level exceptions (solver bugs, validation failures,
        injected :class:`~repro.exceptions.ChaosError`) propagate
        unchanged, exactly as the serial path would raise them.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.perf.executor import _warm_run_task

        try:
            header, stats = self._warm_header(executor)
        except Exception as exc:  # unpicklable context: stay serial
            self._fall_back("serial-fallback", f"sweep plan failed to encode ({exc!r})")
            return False
        self.fanout = stats
        executor.stats["sweeps"] += 1
        deadline_s = task_deadline_s(self.optimal_time_limit_s)
        started: dict = {}
        try:
            pool = executor.pool()
            pending = {
                pool.submit(_warm_run_task, header, task): task for task in tasks
            }
            while pending:
                done, _ = wait(pending, timeout=_POLL_S, return_when=FIRST_COMPLETED)
                for future in done:
                    del pending[future]
                    self._store(*future.result())
                if deadline_s is None:
                    continue
                now = time.monotonic()
                for future in pending:
                    if future not in started and future.running():
                        started[future] = now
                late = [
                    task for future, task in pending.items()
                    if now - started.get(future, now) > deadline_s
                ]
                if late:
                    executor.preempt()
                    self._fall_back(
                        "deadline",
                        f"task(s) {late} ran past the {deadline_s:g}s deadline; "
                        "pool recycled",
                    )
                    return False
        except BrokenProcessPool as exc:
            # A worker died mid-task: keep what we have, finish serially,
            # and let the executor respawn its pool lazily.
            executor.mark_broken()
            self._fall_back("pool-crash", f"process pool broke ({exc!r})")
            return False
        except (OSError, pickle.PickleError) as exc:
            executor.mark_broken()
            self._fall_back("serial-fallback", f"process pool failed ({exc!r})")
            return False
        return True

    def _fall_back(self, cause: str, reason: str) -> None:
        """Record ``cause`` on every remaining task's result and warn:
        the serial path runs those tasks next, in the parent."""
        reason = f"{reason}; completing remaining tasks serially"
        for index, algorithm in self.pending_tasks():
            self.results[index].degradation.record(algorithm, cause, reason)
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
    validate: bool = False,
    executor: "SweepExecutor | None" = None,  # noqa: F821
    store: SolveStore | None = None,
) -> "list[ScenarioResult]":  # noqa: F821
    """Run ``scenarios`` × ``algorithms`` over a process pool.

    Results are merged in scenario order with per-scenario algorithm
    order preserved, exactly as the serial sweep produces them.

    Only a sweep that holds an exact solve (``optimal``,
    ``optimal-two-stage`` or ``retroflow-ip``,
    :data:`~repro.baselines.TIME_LIMITED_ALGORITHMS`) fans out, one task
    per submission, and only when ``max_workers`` resolves to more than
    one worker.  Every heuristic-only sweep runs
    serially, whatever its size and whether or not an ``executor`` is
    passed: its sub-millisecond tasks never repay shipping them to a
    pool, warm or fresh.  A pool sweep falls back to the serial path
    when a task runs past its :func:`task_deadline_s`, when the plan or
    a result refuses to pickle, or when the pool breaks; only the
    *remaining* tasks are recomputed, each is recorded with its cause on
    its result's ``degradation`` report, and a
    :class:`~repro.exceptions.DegradedResultWarning` is raised.

    ``optimal_time_limit_s`` bounds every exact solve, and with it each
    pool task's :func:`task_deadline_s`.  ``validate`` re-checks
    heuristic solutions (exact solves always validate their own
    answers).

    Without ``executor`` the sweep runs on a
    :class:`~repro.perf.executor.SweepExecutor` scoped to the call, whose
    workers exit before the call returns.  Passing a warm ``executor``
    keeps its workers across sweeps, together with their decoded
    contexts and plans, so every sweep after the first over a context
    runs near the pure-solve floor.  Results stay bit-identical either
    way, and pool failures degrade to the serial path on both.

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
    solved.  Degraded solves are never stored, so a resumed
    sweep solves them again.  The store keeps itself within its
    ``max_bytes`` as it is written.  Under an active chaos plan the
    store is bypassed entirely so fault injection still exercises real
    solves; a chaotic sweep is never resumed.
    """
    if executor is not None and executor.closed:
        raise ValueError("executor is closed; create a new SweepExecutor")
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

        if not any(a in TIME_LIMITED_ALGORITHMS for a in algorithms):
            runner.record_mode("serial: heuristic-only sweep")
            runner.run_serial(tasks)
        elif workers <= 1:
            runner.record_mode(f"serial: max_workers={max_workers} resolves to <= 1 worker")
            runner.run_serial(tasks)
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
