"""Fault-injection harness for sweeps and solvers.

The failure paths of a resilient system are only trustworthy if they are
exercised; this module makes them first-class tested code.  A
:class:`ChaosPlan` names *sites* (injection points threaded through
:mod:`repro.perf.sweep`, :mod:`repro.lp.highs` and
:mod:`repro.fmssm.optimal`) and the
*faults* to fire there: raise a :class:`SolverTimeoutError` or
:class:`InfeasibleError` on the Nth call, kill a pool worker, corrupt a
pickled payload, or corrupt a solver's result vector into a subtly
infeasible point.

Instrumented sites
------------------
``sweep.task``
    Entry of a sweep task body (worker or serial).  Supports
    ``kill-worker`` (terminates the *worker process* only — a no-op in
    the parent, so the post-crash serial path survives) and the
    ``raise-*`` actions.
``sweep.payload``
    Transform point over the pickled :class:`SweepPlan` bytes
    (``corrupt-payload`` flips a byte, so workers die unpickling it).
``optimal.solve``
    Entry of :func:`repro.fmssm.optimal.solve_optimal`.
``highs.solve`` / ``highs.relax``
    Entry of the HiGHS MILP and LP-relaxation solves; ``highs.solve.x`` is the
    transform point over the HiGHS result vector (``corrupt-solution``
    activates every pair, which the independent validator must reject).

The ``hang`` action sleeps for ``Fault.seconds`` — long enough to trip a
pool task's deadline (:func:`repro.perf.sweep.task_deadline_s`) — and,
like ``kill-worker``, only fires in worker processes: the parent, which
runs whatever the pool could not finish, is immune by construction.

Counters are **per process** (a worker counts its own calls) and
deliberately simple: deterministic tests install a plan, run, and
uninstall via the :func:`inject` context manager.  When no plan is
installed every hook is a single ``is None`` check — the production hot
path pays nothing measurable.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import ChaosError, InfeasibleError, SolverTimeoutError

__all__ = [
    "Fault",
    "ChaosPlan",
    "install",
    "uninstall",
    "active_plan",
    "reset_counters",
    "check",
    "transform",
    "inject",
]

#: Actions that raise at a check site.
_RAISE_ACTIONS = {
    "raise-timeout": lambda fault, n: SolverTimeoutError(
        f"chaos: injected timeout at {fault.site} call #{n}"
    ),
    "raise-infeasible": lambda fault, n: InfeasibleError(
        f"chaos: injected infeasibility at {fault.site} call #{n}"
    ),
    "raise-error": lambda fault, n: ChaosError(
        f"chaos: injected error at {fault.site} call #{n}"
    ),
}

#: Actions that rewrite a value at a transform site.
_TRANSFORM_ACTIONS = frozenset({"corrupt-payload", "corrupt-solution"})


@dataclass(frozen=True)
class Fault:
    """One fault: fire ``action`` at ``site`` on calls ``at_call ...``.

    ``count`` is how many consecutive calls (starting at ``at_call``,
    1-based, counted per process) the fault fires on; ``None`` means
    every call from ``at_call`` onward.  ``seconds`` is how long the
    ``hang`` action sleeps (ignored by every other action).
    """

    site: str
    action: str
    at_call: int = 1
    count: int | None = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        known = set(_RAISE_ACTIONS) | _TRANSFORM_ACTIONS | {"kill-worker", "hang"}
        if self.action not in known:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.at_call < 1:
            raise ValueError("at_call is 1-based")
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")

    def fires(self, call: int) -> bool:
        """Whether this fault fires on the (1-based) ``call``-th call."""
        if call < self.at_call:
            return False
        return self.count is None or call < self.at_call + self.count


@dataclass(frozen=True)
class ChaosPlan:
    """A picklable set of faults, shippable to pool workers."""

    faults: tuple[Fault, ...]

    def __init__(self, faults: tuple[Fault, ...] | list[Fault]) -> None:
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, Fault):
                raise TypeError(
                    f"ChaosPlan takes Fault objects, got {type(fault).__name__} "
                    f"(note: inject(*faults) takes faults, not a plan)"
                )
        object.__setattr__(self, "faults", faults)

    def at(self, site: str) -> tuple[Fault, ...]:
        """The plan's faults registered for ``site``."""
        return tuple(f for f in self.faults if f.site == site)


#: The installed plan (per process) and per-site call counters.
_ACTIVE: ChaosPlan | None = None
_CALLS: dict[str, int] = {}


def install(plan: ChaosPlan) -> None:
    """Install ``plan`` in this process and reset its counters."""
    global _ACTIVE
    _ACTIVE = plan
    _CALLS.clear()


def uninstall() -> None:
    """Remove any installed plan."""
    global _ACTIVE
    _ACTIVE = None
    _CALLS.clear()


def active_plan() -> ChaosPlan | None:
    """The currently installed plan, if any (shipped to sweep workers)."""
    return _ACTIVE


def reset_counters() -> None:
    """Zero the per-site call counters without uninstalling the plan."""
    _CALLS.clear()


def _in_worker_process() -> bool:
    """True in a multiprocessing child (kill-worker must spare the parent)."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def check(site: str) -> None:
    """Count a call at ``site`` and fire any matching raise/kill fault."""
    if _ACTIVE is None:
        return
    call = _CALLS.get(site, 0) + 1
    _CALLS[site] = call
    for fault in _ACTIVE.at(site):
        if not fault.fires(call):
            continue
        if fault.action == "kill-worker":
            if _in_worker_process():
                os._exit(17)
            continue  # parent processes survive their workers' chaos
        if fault.action == "hang":
            if _in_worker_process():
                import time

                time.sleep(fault.seconds)
            continue  # parents never hang
        maker = _RAISE_ACTIONS.get(fault.action)
        if maker is not None:
            raise maker(fault, call)


def transform(site: str, value):
    """Count a call at ``site`` and return ``value``, possibly corrupted."""
    if _ACTIVE is None:
        return value
    call = _CALLS.get(site, 0) + 1
    _CALLS[site] = call
    for fault in _ACTIVE.at(site):
        if not fault.fires(call):
            continue
        if fault.action == "corrupt-payload":
            value = _corrupt_bytes(value)
        elif fault.action == "corrupt-solution":
            value = _corrupt_vector(value)
    return value


def _corrupt_bytes(payload: bytes) -> bytes:
    """Flip the final byte of a pickled payload — the STOP opcode.

    Flipping a byte in the *middle* of a large payload usually lands
    inside a numpy array's raw buffer and unpickles fine (silently
    corrupted numbers instead of a broken pool).  The trailing STOP
    opcode makes every unpickle fail deterministically, whatever the
    payload size.
    """
    if not isinstance(payload, (bytes, bytearray)) or not payload:
        return payload
    corrupted = bytearray(payload)
    corrupted[-1] ^= 0xFF
    return bytes(corrupted)


def _corrupt_vector(x):
    """Make a solver vector subtly infeasible: activate everything.

    Every zero entry is raised to 1 (within bounds), which in the FMSSM
    form serves every programmable pair under every controller — the
    extracted solution then blows the capacity and/or delay budgets and
    the independent validator must reject it.
    """
    import numpy as np

    if x is None:
        return x
    corrupted = np.asarray(x, dtype=float).copy()
    corrupted[corrupted < 0.5] = 1.0
    return corrupted


@contextmanager
def inject(*faults: Fault) -> Iterator[ChaosPlan]:
    """Install a plan for the duration of a ``with`` block."""
    plan = ChaosPlan(faults)
    install(plan)
    try:
        yield plan
    finally:
        uninstall()
