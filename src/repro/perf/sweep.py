"""Process-pool execution of failure sweeps, with a resilience layer.

A sweep is embarrassingly parallel across scenarios × algorithms: every
task grounds its instance from the same shared data (topology, flows,
the context's grounding index) and writes to a disjoint result slot.  This module
fans those tasks over a :class:`~repro.perf.executor.SweepExecutor` —
the caller's, or one scoped to the call and closed before it returns —
and merges results back in deterministic (scenario, algorithm) order,
so the output is indistinguishable from the serial sweep apart from
wall-clock time.

Every submission carries a small :class:`~repro.perf.executor.
WarmHeader`: the context's encoded payload (on the shm route, with the
grounding index the parent filled, so no worker re-derives a single
p̄) plus a pickle of the per-sweep parameters.  Workers decode each
layer once and cache it, so a pool pays for the context once per
worker, not once per task.

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

Fan-out transports (``transport=``) decide how the context travels:
``"pickle"`` serializes the whole context into the header (workers
rebuild its grounding index from the model); ``"shm"`` strips it down
to the flows and the filled grounding index as arrays, parks the
array buffers in one :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.perf.shm`) and ships only a few kilobytes in band —
workers rebuild the context from read-only views aliasing the segment.
``"auto"`` (default) picks shm when the platform and context support
it and silently degrades otherwise.

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
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
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
from repro.perf.shm import FanoutStats, shm_available
from repro.resilience import chaos
from repro.perf.store import (
    SolveStore,
    decode_result,
    encode_result,
    network_key,
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
    "fanout_summary",
    "store_summary",
]

#: Recognized values of ``parallel_sweep``'s ``transport`` parameter.
_TRANSPORTS = ("auto", "shm", "pickle")


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
_HEAVY_ALGORITHMS = _EXACT_ALGORITHMS | {"retroflow-ip"}

#: Below this many heuristic-only tasks, pool startup cannot pay off.
_MIN_PARALLEL_TASKS = 64

#: The warm-executor threshold is lower: there is no pool to start and
#: (usually) no plan to decode, so fan-out pays off much earlier.
_MIN_PARALLEL_TASKS_WARM = 16

#: Shortest time between two of a sweep's writes to its store.  A
#: scenario that completes this long after the previous write (or the
#: sweep's start) is written at once, with whatever earlier completions
#: are still buffered: one ``put_many`` (one fsync per shard written)
#: per batch rather than per scenario.  A hard kill loses only what is
#: buffered, which a re-run on the same store solves again.
_SETTLE_INTERVAL_S = 1.0


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
        transport: str = "auto",
        store: SolveStore | None = None,
    ) -> None:
        from repro.experiments.runner import ScenarioResult

        self.context = context
        self.scenarios = scenarios
        self.algorithms = algorithms
        self.optimal_time_limit_s = optimal_time_limit_s
        self.ladder = ladder
        self.validate = validate
        self.transport = transport
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
        #: Fan-out transport stats of the last pool launch, if any.
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
        ``sweep.payload`` chaos site applies to that fresh blob.  An
        explicit ``transport="shm"`` that the executor could not honor
        (pickle fallback) says so in a :class:`DegradedResultWarning`.
        """
        from repro.perf import executor as executor_mod

        start = time.perf_counter()
        entry = executor.encode_context(
            self.context, prefer_shm=self.transport != "pickle"
        )
        shm = entry.payload.segment is not None
        if self.transport == "shm" and not shm:
            reason = (
                "the context has no shareable array form"
                if shm_available()
                else "shared memory is unavailable on this platform"
            )
            warnings.warn(
                DegradedResultWarning(
                    f"shm transport requested but {reason}; "
                    f"falling back to the pickle route"
                ),
                stacklevel=4,
            )
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
            transport="shm" if shm else "pickle",
            payload_bytes=entry.payload.inband_bytes + len(blob),
            shared_bytes=entry.payload.shared_bytes,
            encode_s=time.perf_counter() - start,
        )
        return header, stats

    def _submissions(
        self, tasks: Sequence[tuple[int, str]], workers: int
    ) -> list[tuple[tuple[int, str], ...]]:
        """The pool's submission units, each run by one
        :func:`~repro.perf.executor._warm_run_chunk` call.

        Heuristic-only sweeps submit one contiguous scenario-major chunk
        per worker, cut on scenario boundaries, so each worker grounds
        only its own slice of the instances, each once.  Heavy sweeps
        submit one task per unit for dynamic load balancing.
        """
        if not any(a in _HEAVY_ALGORITHMS for a in self.algorithms):
            groups = [
                tuple(group)
                for _, group in itertools.groupby(tasks, key=lambda t: t[0])
            ]
            bounds = [len(groups) * k // workers for k in range(workers + 1)]
            chunks = (
                tuple(itertools.chain.from_iterable(groups[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])
            )
            return [chunk for chunk in chunks if chunk]
        return [(task,) for task in tasks]

    def run_warm(self, tasks: Sequence[tuple[int, str]], workers: int,
                 executor) -> bool:
        """Fan ``tasks`` over ``executor``'s pool; True when all completed.

        False keeps every received result and sends the caller to the
        serial path: the pool broke, or a payload or result refused to
        (un)pickle.  A broken pool is flagged for transparent respawn on
        the executor's next sweep, and the context's segment lease stays
        with the executor (released on eviction or close, not here).
        Task-level exceptions (solver bugs, validation failures without
        a ladder, injected :class:`~repro.exceptions.ChaosError`)
        propagate unchanged, exactly as the serial path would raise them.
        """
        from repro.perf.executor import _warm_run_chunk

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
                pool.submit(_warm_run_chunk, header, unit)
                for unit in self._submissions(tasks, workers)
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for row in future.result():
                        self._store(*row)
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

    def run_supervised(self, tasks: Sequence[tuple[int, str]], workers: int,
                       executor, supervisor) -> bool:
        """Warm fan-out under a :class:`~repro.resilience.supervisor.
        SweepSupervisor`; True when all tasks completed.

        Same submission units and result contract as :meth:`run_warm` —
        fault-free, the two are byte-for-byte identical (the supervisor's
        hooks all return their inputs unchanged) — plus four layers of
        supervision, re-submitted in *rounds* until nothing is pending:

        * The wait loop doubles as the watchdog: it wakes every
          ``poll_interval_s``, stamps a deadline on each submission unit
          when it is first observed *running*, and hard-kills the pool
          (:meth:`~repro.perf.executor.SweepExecutor.preempt`) when a
          unit overstays — charging only that unit's scenarios.
        * A :class:`~repro.exceptions.ChaosError` escaping a task is a
          *task fault*: its unit's scenarios are charged and requeued.
          Any other task exception propagates unchanged, exactly as the
          unsupervised routes raise it.
        * Scenarios charged past the retry budget are quarantined and
          solved serially in the parent before the next round.
        * Each round submits under the breaker-effective ladder and
          transport; a breaker state change mid-round cancels the
          not-yet-running remainder so it requeues under the new route.

        Pool crashes (``BrokenProcessPool`` and kin) charge the units
        last observed running — the likely culprits — or all unfinished
        ones when nothing was seen running; after ``max_pool_restarts``
        of them the sweep falls back to serial like :meth:`run_warm`
        does on its first crash.
        """
        from repro.exceptions import ChaosError
        from repro.perf.executor import _warm_run_chunk

        policy = supervisor.policy
        supervisor.stats["supervised_sweeps"] += 1
        executor.stats["sweeps"] += 1
        base_ladder = self.ladder
        base_transport = self.transport
        pool_restarts = 0
        # One header per effective (ladder, transport) route for the whole
        # sweep.  Rebuilding per requeue round would mint a fresh chaos
        # nonce each time (``SweepExecutor.plan_key``), resetting the
        # workers' fault counters every round — a one-shot injected fault
        # would then re-fire on every retry instead of being retried past.
        headers: list = []

        try:
            while True:
                self._quarantine_over_budget(supervisor)
                tasks = self.pending_tasks()
                if not tasks:
                    return True

                self.ladder = supervisor.effective_ladder(base_ladder)
                self.transport = supervisor.effective_transport(base_transport)
                ladder_round = self.ladder
                # Re-derived every round: rung-latency EWMAs observed in
                # earlier rounds (and earlier sweeps of the campaign)
                # tighten the watchdog for this one.
                deadline_s = supervisor.task_deadline_s(
                    base_ladder, self.optimal_time_limit_s
                )

                def _route_header(transport: str):
                    cached = next(
                        (
                            (h, s)
                            for ladder, tp, h, s in headers
                            if ladder == ladder_round and tp == transport
                        ),
                        None,
                    )
                    if cached is not None:
                        return cached
                    previous = self.transport
                    self.transport = transport
                    try:
                        built = self._warm_header(executor)
                    finally:
                        self.transport = previous
                    headers.append((ladder_round, transport, *built))
                    return built

                try:
                    header, stats = _route_header(self.transport)
                except Exception as exc:  # unpicklable context: stay serial
                    self._warn_fallback(
                        f"sweep plan failed to encode ({exc!r})"
                    )
                    return False
                self.fanout = stats

                # Half-open transport trial: only ``probe_quota`` units
                # ride the shm route; the rest of the round takes the
                # known-good pickle header, bounding a failed trial's
                # blast radius to the probe batch.
                probe_quota = (
                    supervisor.transport_probe_quota()
                    if self.transport != "pickle"
                    and stats.transport == "shm"
                    else None
                )
                fallback_header = header
                if probe_quota is not None:
                    try:
                        fallback_header, _ = _route_header("pickle")
                    except Exception as exc:
                        self._warn_fallback(
                            f"sweep plan failed to encode ({exc!r})"
                        )
                        return False

                units: dict = {}
                processed: set = set()
                running_seen: set = set()
                deadlines: dict = {}
                probe_futures: "set | None" = (
                    None if probe_quota is None else set()
                )
                probe_done: set = set()
                try:
                    pool = executor.pool()
                    for n, unit in enumerate(self._submissions(tasks, workers)):
                        on_probe = probe_quota is None or n < probe_quota
                        future = pool.submit(
                            _warm_run_chunk,
                            header if on_probe else fallback_header,
                            unit,
                        )
                        units[future] = unit
                        if probe_futures is not None and on_probe:
                            probe_futures.add(future)

                    pending = set(units)
                    preempted = False
                    stored_rows = False
                    transport_fault = False
                    while pending:
                        done, pending = wait(
                            pending,
                            timeout=policy.poll_interval_s,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            if future.cancelled():
                                continue
                            try:
                                outcome = future.result()
                            except ChaosError as exc:
                                processed.add(future)
                                if "decode_context" in str(exc):
                                    transport_fault = True
                                self._charge_unit(
                                    supervisor, units[future], "task-fault",
                                    str(exc),
                                )
                                continue
                            processed.add(future)
                            stored_rows = True
                            if probe_futures is not None and future in probe_futures:
                                probe_done.add(future)
                            for row in outcome:
                                self._store(*row)
                                supervisor.observe_report(row[4])
                                if base_ladder is None:
                                    # Ladderless sweeps have no rung
                                    # events; the solve wall-clock feeds
                                    # the generic "task" EWMA instead.
                                    supervisor.observe_latency(
                                        "task", row[2].solve_time_s
                                    )

                        now = supervisor.clock()
                        for future in pending:
                            if future not in deadlines and future.running():
                                running_seen.add(future)
                                deadlines[future] = now + deadline_s * max(
                                    1, len(units[future])
                                )
                        expired = [
                            f for f in pending
                            if f in deadlines and now > deadlines[f]
                        ]
                        if expired:
                            # Hung worker(s): kill the whole pool — a
                            # wedged task cannot be cancelled — charge
                            # only the overdue units, requeue the rest.
                            supervisor.stats["preemptions"] += 1
                            pool_restarts += 1
                            executor.preempt()
                            for future in expired:
                                processed.add(future)
                                budget = deadline_s * max(1, len(units[future]))
                                self._charge_unit(
                                    supervisor, units[future], "preempted",
                                    f"unit exceeded its {budget:.1f}s deadline",
                                )
                            supervisor.events.append({
                                "action": "preempt",
                                "scenarios": sorted({
                                    self.scenarios[i].name
                                    for f in expired
                                    for i, _ in units[f]
                                }),
                            })
                            preempted = True
                            break

                        if supervisor.effective_ladder(base_ladder) != ladder_round:
                            # A breaker opened or half-opened mid-round:
                            # requeue everything not yet running under
                            # the new effective route.
                            for future in list(pending):
                                future.cancel()

                    if probe_futures is not None:
                        # Half-open trial: the probe batch alone decides.
                        # Every probe unit must have returned results over
                        # shm — cancelled/faulted probes don't count.
                        if (
                            not preempted
                            and not transport_fault
                            and probe_futures
                            and probe_done == probe_futures
                        ):
                            supervisor.observe_transport(True)
                    elif (
                        not preempted
                        and not pending
                        and stored_rows
                        and not transport_fault
                        and stats.transport == "shm"
                    ):
                        # Results actually crossed the shm route this
                        # round — that is a transport success (closes a
                        # half-open breaker, resets consecutive counts).
                        supervisor.observe_transport(True)
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
                    ] or [f for f in units if f not in processed]
                    for future in blamed:
                        processed.add(future)
                        self._charge_unit(
                            supervisor, units[future], "pool-crash", repr(exc)
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
            self.transport = base_transport

    def _charge_unit(self, supervisor, unit, cause: str, reason: str) -> None:
        """Charge one failed submission unit's scenarios to the ledger
        and stamp the failure on their results."""
        if cause == "task-fault":
            # Preemptions and pool crashes are counted once at their
            # detection sites; task faults are inherently per-unit.
            supervisor.stats["task_faults"] += 1
            if "decode_context" in reason:
                supervisor.observe_transport(False, reason)
        indices = sorted({i for i, _ in unit})
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


def fanout_summary(results: "Sequence[ScenarioResult]") -> dict[str, object] | None:  # noqa: F821
    """The sweep-level fan-out stats stamped on ``results`` (or ``None``).

    Every result of one sweep carries the same ``meta["fanout"]`` dict;
    this helper surfaces it once for reports and benchmarks.
    """
    for result in results:
        fanout = result.meta.get("fanout")
        if fanout is not None:
            return dict(fanout)
    return None


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
    min_parallel_tasks: int | None = None,
    ladder: LadderPolicy | None = None,
    validate: bool = False,
    transport: str = "auto",
    executor: "SweepExecutor | None" = None,  # noqa: F821
    supervisor: "SweepSupervisor | None" = None,  # noqa: F821
    store: SolveStore | None = None,
) -> "list[ScenarioResult]":  # noqa: F821
    """Run ``scenarios`` × ``algorithms`` over a process pool.

    Results are merged in scenario order with per-scenario algorithm
    order preserved, exactly as the serial sweep produces them.  Falls
    back to the serial path when ``max_workers`` resolves to ≤ 1, when
    the plan or a result refuses to pickle, or when the pool breaks —
    in the latter two cases only the *remaining* tasks are recomputed,
    and the cause is recorded on every affected result's
    ``degradation`` report and raised as a
    :class:`~repro.exceptions.DegradedResultWarning`.

    Small heuristic-only sweeps also stay serial: forking a pool and
    shipping the context costs tens of milliseconds, which a handful of
    sub-millisecond PM/RetroFlow tasks can never repay.  Any algorithm
    in ``_HEAVY_ALGORITHMS`` (exact solves) disables the heuristic, as
    does ``min_parallel_tasks=0``.

    Resilience knobs (see :mod:`repro.resilience`): ``ladder`` walks
    ``optimal`` solves down a degradation ladder and ``validate``
    re-checks heuristic solutions.

    Performance knob: ``transport`` picks how the context reaches
    workers (``"auto"`` prefers the zero-copy shared-memory route and
    degrades to pickle; ``"shm"`` degrades too but warns; ``"pickle"``
    ships the pickled context).  It is a pure execution strategy:
    results are bit-identical to the default, and store keys do not
    depend on it — a sweep may resume under a different transport.

    Without ``executor`` the sweep runs on a
    :class:`~repro.perf.executor.SweepExecutor` scoped to the call, whose
    workers exit before the call returns.  Passing a warm ``executor``
    keeps its workers across sweeps, together with their decoded
    contexts and plans, so every sweep after the first over a context
    runs near the pure-solve floor.  Results stay bit-identical either
    way, and pool failures degrade to the serial path on both.

    ``supervisor`` wraps the warm route in a
    :class:`~repro.resilience.supervisor.SweepSupervisor`: per-unit
    deadlines with hung-worker preemption, retry budgets with poison-
    scenario quarantine to the serial ladder, and circuit breakers
    around the exact rungs and the shm transport.  Implies the warm
    route (the default executor is used when none is passed); with no
    faults observed the supervised sweep is bit-identical to the
    unsupervised one.

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
    if transport not in _TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {_TRANSPORTS}"
        )
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
        transport=transport,
        store=store,
    )
    try:
        if store is not None:
            runner.probe_store()
        tasks = runner.pending_tasks()
        if not tasks:
            return runner.finish()
        if min_parallel_tasks is None:
            min_parallel_tasks = (
                _MIN_PARALLEL_TASKS_WARM if executor is not None else _MIN_PARALLEL_TASKS
            )
        heuristics_only = not any(a in _HEAVY_ALGORITHMS for a in algorithms)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        workers = min(max_workers, len(tasks))

        if heuristics_only and len(tasks) < min_parallel_tasks:
            runner.record_mode(
                f"serial: {len(tasks)} heuristic-only tasks < "
                f"min_parallel_tasks={min_parallel_tasks}"
            )
            runner.run_serial(tasks)
        elif workers <= 1:
            runner.record_mode(f"serial: max_workers={max_workers} resolves to <= 1 worker")
            runner.run_serial(tasks)
        elif executor is not None and supervisor is not None:
            runner.record_mode(
                f"supervised-warm-pool: executor {executor.id}, {workers} workers, "
                f"{len(tasks)} tasks"
            )
            if not runner.run_supervised(tasks, workers, executor, supervisor):
                runner.run_serial(runner.pending_tasks())
        elif executor is not None:
            runner.record_mode(
                f"warm-pool: executor {executor.id}, {workers} workers, "
                f"{len(tasks)} tasks"
            )
            if not runner.run_warm(tasks, workers, executor):
                runner.run_serial(runner.pending_tasks())
        else:
            from repro.perf.executor import SweepExecutor

            runner.record_mode(f"pool: {workers} workers, {len(tasks)} tasks")
            # A pool scoped to this call: closing it shuts the workers down
            # before the context's segment lease is released, and before the
            # serial path picks up whatever the pool left.
            with SweepExecutor(max_workers=workers) as scoped:
                pooled = runner.run_warm(tasks, workers, scoped)
            if not pooled:
                runner.run_serial(runner.pending_tasks())
    finally:
        # Scenarios completed before an exception are written on the
        # way out, so a re-run on the same store resumes after them.
        runner.flush_store()
    return runner.finish()
