"""The sweep process pool: one executor, cross-sweep artifact caching.

Every pool sweep runs on a :class:`SweepExecutor`.
:func:`~repro.perf.sweep.parallel_sweep` opens one scoped to the call
when the caller passes none, and closes it before returning.  A fresh
pool pays the full fan-out bill — spawn the workers, ship the context,
have every worker decode it — even though figure generation,
successive-failure runs and the ablation drivers issue many sweeps over
the *same* topology back to back.  An executor the caller keeps open
amortizes that bill:

:class:`SweepExecutor`
    A context-manager that keeps one process pool alive across sweeps
    (health-checked, transparently respawned after a
    ``BrokenProcessPool``) and caches each context's pickled payload, so
    later sweeps over the same context encode nothing but a small
    per-sweep header.

Worker-side caches
    Warm tasks carry a :class:`WarmHeader` naming the sweep's plan key
    (executor id, context generation and a digest of the sweep's
    parameters, :meth:`SweepExecutor.plan_key`).  A worker that has
    seen the key before skips decoding entirely; otherwise it rebuilds
    the plan from two LRU-cached layers — the heavy context (decoded
    once per *generation*, then shared by every sweep over that
    context, together with all the instances, ``InstanceArrays`` and
    hop-distance state the context caches) and the light per-sweep
    parameters.  Each worker builds the compiler's ``(N, M, P)``
    templates itself, in its process-wide
    :func:`~repro.perf.compile.default_compiler`, which persists across
    sweeps by construction.

Invalidation
    Generations are assigned per (executor, context object): passing a
    *new* context yields a fresh generation, so stale worker caches can
    never serve it.  A context builds its grounding index once and never
    replaces it; in-place mutation of a context is not detected, so
    build a new context (they are cheap) or a fresh executor for that.

Lifecycle
    :meth:`SweepExecutor.close` shuts the pool down and drops the cached
    payloads.

Many sweeps over one context are a loop over
:func:`~repro.perf.sweep.parallel_sweep` on one executor.  Such a loop
resumes after a hard kill the way a sweep does: run it again on the
same :class:`~repro.perf.store.SolveStore`, and every sweep it completed
replays without solving.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.resilience import chaos

__all__ = ["SweepExecutor", "WarmHeader"]


# ----------------------------------------------------------------------
# Parent side: the executor and its context-payload cache
# ----------------------------------------------------------------------
#: Pickled contexts an executor keeps, least recently used evicted first.
_MAX_PAYLOADS = 4

@dataclass
class _ContextEntry:
    """One pickled context, cached for the executor's lifetime.

    Pins a strong reference to the context (so its ``id()`` can never be
    recycled while the entry lives).
    """

    context: object
    generation: int
    payload: bytes


@dataclass(frozen=True)
class WarmHeader:
    """The per-task prefix of a warm submission (small, picklable).

    ``plan_key`` identifies the fully built plan in the worker's cache;
    on a hit nothing below it is touched.  ``context_key`` identifies
    the heavy context layer (shared by every sweep of one generation),
    ``context_payload`` lets a cache-cold worker rebuild it, and
    ``sweep_blob`` pickles the light per-sweep parameters.
    """

    plan_key: str
    context_key: tuple[int, int]
    context_payload: bytes
    sweep_blob: bytes


@dataclass(frozen=True)
class _SweepParams:
    """The per-sweep half of a warm plan (everything but the context)."""

    scenarios: tuple
    optimal_time_limit_s: float
    validate: bool
    chaos_plan: object


class SweepExecutor:
    """A reusable process pool + payload cache for many sweeps.

    Use as a context manager (or call :meth:`close` explicitly)::

        with SweepExecutor(max_workers=8) as executor:
            first = parallel_sweep(context, scenarios, algos, executor=executor)
            again = parallel_sweep(context, scenarios, algos, executor=executor)

    The second sweep reuses the warm workers, the parent-side encoded
    context, and the workers' decoded plan — its cost approaches the
    pure solve time.  Results are bit-identical to serial sweeps (the
    equivalence tests assert it).  A sweep called without an executor
    runs on one of these scoped to the call.

    A sweep that breaks the pool mid-flight keeps its completed results
    and finishes serially; the executor marks itself broken and the
    *next* sweep respawns the pool transparently.
    """

    _ids = itertools.count(1)

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers or os.cpu_count() or 1
        #: Distinguishes this executor's cache keys from any other's
        #: (worker processes can outlive an executor only within one
        #: parent, so a process-local counter suffices).
        self.id = next(SweepExecutor._ids)
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False
        self._closed = False
        # Keyed by context id; an entry pins its context.
        self._contexts: OrderedDict[int, _ContextEntry] = OrderedDict()
        self._generations = itertools.count(1)
        self._chaos_nonces = itertools.count(1)
        #: Observability counters (sweeps, encode hits/misses, respawns,
        #: deadline preemptions).
        self.stats: dict[str, int] = {
            "sweeps": 0,
            "encode_hits": 0,
            "encode_misses": 0,
            "respawns": 0,
            "preempts": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool down and drop the cached payloads.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._contexts.clear()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("SweepExecutor is closed")

    # -- pool health ---------------------------------------------------
    def pool(self) -> ProcessPoolExecutor:
        """The live pool, (re)spawned on first use or after a break."""
        self._require_open()
        if self._pool is not None and self._broken:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._pool is None:
            if self._broken:
                self.stats["respawns"] += 1
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._broken = False
        return self._pool

    def mark_broken(self) -> None:
        """Flag the pool for respawn on the next :meth:`pool` call."""
        self._broken = True

    def preempt(self) -> int:
        """Hard-kill the live pool (hung-worker preemption); returns the
        number of worker processes signalled.

        Unlike :meth:`mark_broken` — which lets in-flight work drain —
        this terminates the workers outright, so a task wedged inside a
        solver cannot stall the sweep past its deadline.  The pool is
        torn down and flagged broken; the next :meth:`pool` call
        respawns it.  Queued futures fail with ``BrokenProcessPool``;
        the sweep runs their tasks in the parent instead.  Cached
        context payloads are untouched, so the respawned pool re-warms
        from the same artifacts.
        """
        self._require_open()
        if self._pool is None:
            return 0
        processes = list(getattr(self._pool, "_processes", {}).values())
        for process in processes:
            process.terminate()
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None
        self._broken = True
        self.stats["preempts"] += 1
        return len(processes)

    # -- context encoding ----------------------------------------------
    def encode_context(self, context: object) -> _ContextEntry:
        """The cached pickled payload of ``context`` (encode on miss).

        A hit requires the same context object.  The payload is the
        context's own pickle (an
        :class:`~repro.experiments.scenarios.ExperimentContext` drops its
        grounding index, which each worker rebuilds from the model).
        Raises whatever the encode raises (unpicklable contexts) —
        callers fall back to serial execution.
        """
        self._require_open()
        key = id(context)
        entry = self._contexts.get(key)
        if entry is not None:
            self._contexts.move_to_end(key)
            self.stats["encode_hits"] += 1
            return entry
        entry = _ContextEntry(
            context=context,
            generation=next(self._generations),
            payload=pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.stats["encode_misses"] += 1
        self._contexts[key] = entry
        while len(self._contexts) > _MAX_PAYLOADS:
            self._contexts.popitem(last=False)
        return entry

    def plan_key(self, entry: _ContextEntry, sweep_blob: bytes,
                 chaotic: bool = False) -> str:
        """The worker-cache key of one sweep's fully built plan.

        Combines this executor's id, the context generation (a new
        context object gets a new one) and a digest of the serialized
        sweep parameters, which pickle the scenarios, the time limit
        and the validation flag; the plan does not depend on
        the algorithms, and the code is fixed within one process.
        Chaotic sweeps get a nonce: a fresh worker-side
        ``chaos.install`` per sweep keeps the fault counters starting
        from zero, matching a fresh worker.
        """
        digest = hashlib.sha256(sweep_blob).hexdigest()[:16]
        key = f"x{self.id}g{entry.generation}:{digest}"
        if chaotic:
            key += f":c{next(self._chaos_nonces)}"
        return key


# ----------------------------------------------------------------------
# Worker side: layered LRU caches and the warm task bodies
# ----------------------------------------------------------------------
#: Decoded contexts by (executor id, generation) — the heavy layer.
#: A context entry keeps its grounding index across sweeps; grounded
#: instances, with their InstanceArrays and list views, are held by the
#: plan that grounded them (:meth:`SweepPlan.instance`), so they live
#: as long as the plan stays in :data:`_PLANS`.
_CONTEXTS: OrderedDict[tuple[int, int], object] = OrderedDict()
_MAX_CONTEXTS = 4

#: Fully built SweepPlans by plan key — the light layer.
_PLANS: OrderedDict[str, object] = OrderedDict()
_MAX_PLANS = 8

#: Plan key whose chaos plan is currently installed (or None).
_CHAOS_KEY: list[str | None] = [None]

#: Lifetime eviction counts of this worker's layered caches — the
#: telemetry that tells a run of sweeps its working set outgrew the LRUs
#: (every eviction is a future re-decode).  Snapshotted onto each warm
#: task's result row; the parent folds per-layer maxima into
#: ``FanoutStats.evictions``.
_EVICTIONS: dict[str, int] = {"context": 0, "plan": 0, "chaos_nonce": 0}


def worker_cache_stats(plan_build_s: float = 0.0) -> dict[str, object]:
    """This worker's cache telemetry (rides each warm result row).

    ``plan_build_s`` is what the task's :func:`_warm_plan` spent building
    its plan, 0.0 on a plan-cache hit; the parent folds the maximum
    into ``FanoutStats.worker_init_s``.
    """
    return {"evictions": dict(_EVICTIONS), "plan_build_s": plan_build_s}


def _sync_chaos(plan_key: str, chaos_plan) -> None:
    """Track the *current* sweep's chaos plan: install it, or clear a
    previous sweep's faults so they cannot leak forward.

    The single-slot key keeps the counters of every task of one sweep
    on one worker, exactly like repeated calls in one process.
    """
    if _CHAOS_KEY[0] == plan_key:
        return
    if _CHAOS_KEY[0] is not None:
        _EVICTIONS["chaos_nonce"] += 1
    if chaos_plan is not None:
        chaos.install(chaos_plan)
    else:
        chaos.uninstall()
    _CHAOS_KEY[0] = plan_key


def _warm_plan(header: WarmHeader):
    """The worker's plan for ``header``, decoding as little as possible.

    Returns ``(plan, seconds spent building it)``; the time is 0.0 when
    the plan came from the worker's cache.
    """
    from repro.perf.sweep import SweepPlan

    plan = _PLANS.get(header.plan_key)
    build_s = 0.0
    if plan is None:
        start = time.perf_counter()
        params: _SweepParams = pickle.loads(header.sweep_blob)
        _sync_chaos(header.plan_key, params.chaos_plan)
        context = _CONTEXTS.get(header.context_key)
        if context is None:
            context = pickle.loads(header.context_payload)
            _CONTEXTS[header.context_key] = context
            while len(_CONTEXTS) > _MAX_CONTEXTS:
                _CONTEXTS.popitem(last=False)
                _EVICTIONS["context"] += 1
        else:
            _CONTEXTS.move_to_end(header.context_key)
        plan = SweepPlan(
            context,
            params.scenarios,
            params.optimal_time_limit_s,
            params.validate,
            params.chaos_plan,
        )
        _PLANS[header.plan_key] = plan
        while len(_PLANS) > _MAX_PLANS:
            _PLANS.popitem(last=False)
            _EVICTIONS["plan"] += 1
        build_s = time.perf_counter() - start
    else:
        _PLANS.move_to_end(header.plan_key)
        _sync_chaos(header.plan_key, plan.chaos_plan)
    return plan, build_s


def _warm_run_task(header: WarmHeader, task: tuple[int, str]):
    """Worker body: the row of one (scenario index, algorithm) task of
    ``header``'s sweep, with the worker's cache telemetry appended."""
    from repro.perf.sweep import _scenario_rows

    plan, build_s = _warm_plan(header)
    (row,) = _scenario_rows(plan, (task,))
    return row + (worker_cache_stats(build_s),)
