"""Sweep supervision: deadlines, poison quarantine, circuit breakers.

The PR 3 resilience stack survives faults that *announce* themselves — a
rung that raises, a pool that breaks, a payload that will not unpickle.
This module supervises the faults that do not:

Hung-task preemption
    Every submitted task carries a deadline derived from the ladder's
    rung budgets times :attr:`SupervisorPolicy.deadline_multiplier`.
    The supervised wait loop doubles as a parent-side watchdog: a task
    still running past its deadline gets the pool hard-killed
    (:meth:`~repro.perf.executor.SweepExecutor.preempt`), its scenario
    stamped with a ``preempted`` event, and the unfinished work requeued
    on the respawned pool.  The clock starts when the task is *observed
    running*, so queued work never counts as hung.

Poison quarantine
    A :class:`RetryLedger` charges each preemption or pool crash to the
    scenario of the failed task.  A scenario charged more than
    :attr:`SupervisorPolicy.max_task_retries` times is **quarantined**:
    pulled out of the pool entirely and solved serially in the parent
    through the degradation ladder (terminal PM rung), where
    ``kill-worker``/``hang`` chaos cannot reach.  Each decision is
    surfaced as a structured :class:`QuarantineReport`.

Circuit breakers
    Classic closed → open → half-open :class:`CircuitBreaker`\\ s guard
    the exact-solver rung (``sparse+warm``).  After
    ``breaker_threshold`` *consecutive* failures the breaker opens and
    the supervisor routes around the failing rung — the ladder skips
    straight past it
    (:meth:`~repro.resilience.degradation.LadderPolicy.drop_rungs`) —
    instead of paying the timeout on every scenario.  After
    ``breaker_cooldown_s`` the breaker half-opens and one trial round
    decides whether it closes or re-opens.
    The clock is injected (:attr:`SweepSupervisor.clock`) so tests drive
    transitions deterministically.

The supervisor holds **no execution machinery** of its own: it is the
policy + bookkeeping object that :meth:`repro.perf.sweep._SweepRunner.
run_supervised` consults, and it persists across the sweeps of a
campaign so breaker state and retry ledgers span the whole run.  When no
fault ever fires, every hook returns its input unchanged and the
supervised sweep is byte-for-byte the unsupervised one.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.resilience.degradation import LadderPolicy

__all__ = [
    "BreakerOpenState",
    "CircuitBreaker",
    "SupervisorPolicy",
    "QuarantineReport",
    "RetryLedger",
    "SweepSupervisor",
]

#: Ladder rungs guarded by a circuit breaker.  The terminal ``pm`` rung
#: is deliberately absent: it is the component the others degrade *to*.
BREAKER_RUNGS = ("sparse+warm",)


class BreakerOpenState:
    """Names for the three breaker states (string enum, JSON-friendly)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """One closed/open/half-open breaker with an injected clock.

    ``record_failure``/``record_success`` feed observations;
    ``allow_request`` answers "may the guarded component be tried right
    now?" — ``True`` while closed, ``False`` while open and cooling
    down, and ``True`` again once the cooldown elapses (the half-open
    trial).  A success in half-open closes the breaker; a failure
    re-opens it for another cooldown.  All transitions append to
    :attr:`events` for the audit trail.
    """

    def __init__(
        self,
        name: str,
        threshold: int = 3,
        cooldown_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.name = name
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.failures = 0  # consecutive failures while closed
        self.trips = 0  # times the breaker opened
        self._opened_at: float | None = None
        self._half_open = False
        self.events: list[dict[str, object]] = []

    @property
    def state(self) -> str:
        if self._half_open:
            return BreakerOpenState.HALF_OPEN
        if self._opened_at is not None:
            return BreakerOpenState.OPEN
        return BreakerOpenState.CLOSED

    def _transition(self, state: str, reason: str) -> None:
        self.events.append({
            "breaker": self.name,
            "state": state,
            "reason": reason,
            "at": self.clock(),
        })

    def allow_request(self) -> bool:
        """Whether the guarded component may be tried now (may half-open)."""
        if self._opened_at is None:
            return True
        if self._half_open:
            return True
        if self.clock() - self._opened_at >= self.cooldown_s:
            self._half_open = True
            self._transition(
                BreakerOpenState.HALF_OPEN,
                f"cooldown of {self.cooldown_s:g}s elapsed; trial allowed",
            )
            return True
        return False

    def record_failure(self, reason: str = "") -> None:
        """One failure of the guarded component."""
        if self._half_open or (
            self._opened_at is None and self.failures + 1 >= self.threshold
        ):
            self._half_open = False
            self._opened_at = self.clock()
            self.failures = 0
            self.trips += 1
            self._transition(
                BreakerOpenState.OPEN,
                reason or f"{self.threshold} consecutive failures",
            )
        elif self._opened_at is None:
            self.failures += 1

    def record_success(self) -> None:
        """One success of the guarded component (closes a half-open trial)."""
        self.failures = 0
        if self._half_open or self._opened_at is not None:
            self._half_open = False
            self._opened_at = None
            self._transition(BreakerOpenState.CLOSED, "trial succeeded")

    def to_dict(self) -> dict[str, object]:
        """JSON-safe snapshot for summaries and result meta."""
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "events": list(self.events),
        }


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of one :class:`SweepSupervisor` (picklable, immutable).

    ``task_deadline_s`` overrides the derived per-task deadline; when
    ``None`` the deadline is ``deadline_multiplier`` times the ladder's
    total rung budget (time limits × attempts, plus backoffs), or times
    the sweep's ``optimal_time_limit_s`` for ladderless sweeps, floored
    at ``min_deadline_s``.  A task's deadline counts from the moment
    the task is observed running.

    Observed rung latencies tighten the derivation adaptively: each
    accepted/demoted attempt feeds an EWMA (weight ``ewma_alpha``) per
    rung, and once a rung has an estimate it replaces that rung's static
    time limit in the budget — a 300 s configured limit on solves that
    finish in 2 s no longer inflates the watchdog to minutes.  Deadlines
    stay bounded: never below ``min_deadline_s``, never above
    ``max_deadline_s`` (when set), and an explicit ``task_deadline_s``
    still wins outright.
    """

    deadline_multiplier: float = 3.0
    min_deadline_s: float = 30.0
    task_deadline_s: float | None = None
    #: EWMA weight of the newest rung-latency observation.
    ewma_alpha: float = 0.2
    #: Hard upper bound on the derived deadline (``None`` = unbounded).
    max_deadline_s: float | None = None
    #: Times a scenario may be charged (preempt/crash) before quarantine.
    max_task_retries: int = 2
    #: Pool respawns one sweep may consume before degrading to serial.
    max_pool_restarts: int = 5
    #: Consecutive failures that open a circuit breaker.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before allowing a half-open trial.
    breaker_cooldown_s: float = 60.0
    #: Watchdog granularity: how often the wait loop re-checks deadlines.
    poll_interval_s: float = 0.2


@dataclass
class QuarantineReport:
    """One quarantine decision: which scenario, why, and how it resolved."""

    scenario: str
    algorithms: tuple[str, ...]
    charges: int
    cause: str  # "preempted" | "pool-crash" | "task-fault"
    resolution: str = "serial-ladder"

    def to_dict(self) -> dict[str, object]:
        """JSON-safe form (result meta, campaign summaries)."""
        return {
            "scenario": self.scenario,
            "algorithms": list(self.algorithms),
            "charges": self.charges,
            "cause": self.cause,
            "resolution": self.resolution,
        }


class RetryLedger:
    """Per-scenario charge counts plus per-sweep pool-restart budgets."""

    def __init__(self, max_task_retries: int) -> None:
        self.max_task_retries = max_task_retries
        self.charges: dict[str, int] = {}
        self.causes: dict[str, str] = {}

    def charge(self, scenario: str, cause: str) -> int:
        """Charge one failure to ``scenario``; returns its new count."""
        count = self.charges.get(scenario, 0) + 1
        self.charges[scenario] = count
        self.causes[scenario] = cause
        return count

    def over_budget(self, scenario: str) -> bool:
        """Whether ``scenario`` has exhausted its retry budget."""
        return self.charges.get(scenario, 0) > self.max_task_retries


class SweepSupervisor:
    """Supervision state shared by the sweeps of one run or campaign.

    Construct once, pass to :func:`~repro.perf.sweep.parallel_sweep`
    (``supervisor=``) or :func:`~repro.perf.executor.run_campaign`; the
    breakers, ledger and quarantine log accumulate across every sweep it
    supervises.  ``clock`` defaults to :func:`time.monotonic`; tests
    inject a fake for deterministic breaker transitions.
    """

    def __init__(
        self,
        policy: SupervisorPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self.clock = clock
        self.ledger = RetryLedger(self.policy.max_task_retries)
        self.quarantines: list[QuarantineReport] = []
        self.breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name,
                threshold=self.policy.breaker_threshold,
                cooldown_s=self.policy.breaker_cooldown_s,
                clock=clock,
            )
            for name in (f"rung:{r}" for r in BREAKER_RUNGS)
        }
        #: EWMA of observed per-attempt latencies, keyed by rung name
        #: (``"task"`` for ladderless sweeps).
        self.latency_ewma: dict[str, float] = {}
        self.stats: dict[str, int] = {
            "preemptions": 0,
            "pool_crashes": 0,
            "task_faults": 0,
            "quarantined": 0,
            "breaker_trips": 0,
            "supervised_sweeps": 0,
        }
        #: Flat audit log of supervisor decisions, in order.
        self.events: list[dict[str, object]] = []

    # -- deadlines -----------------------------------------------------
    def observe_latency(self, rung: str, seconds: float) -> None:
        """Feed one observed per-attempt latency into the rung's EWMA."""
        if seconds <= 0:
            return
        alpha = self.policy.ewma_alpha
        previous = self.latency_ewma.get(rung)
        if previous is None:
            self.latency_ewma[rung] = seconds
        else:
            self.latency_ewma[rung] = alpha * seconds + (1.0 - alpha) * previous

    def task_deadline_s(
        self, ladder: LadderPolicy | None, optimal_time_limit_s: float
    ) -> float:
        """The per-task deadline for one sweep's submissions.

        Rungs with an observed-latency EWMA use it in place of their
        static time limit, so the watchdog tightens to how long solves
        *actually* take; unobserved rungs keep the configured budget.
        The result is clamped to ``[min_deadline_s, max_deadline_s]``.
        """
        policy = self.policy
        if policy.task_deadline_s is not None:
            return policy.task_deadline_s
        if ladder is not None:
            budget = 0.0
            for rung in ladder.rungs:
                limit = self.latency_ewma.get(rung.name)
                if limit is None:
                    limit = rung.time_limit_s
                if limit is None:
                    limit = optimal_time_limit_s
                attempts = rung.retries + 1
                budget += limit * attempts
                if rung.backoff_s:
                    budget += sum(
                        rung.backoff_s * (2.0**a) for a in range(rung.retries)
                    )
        else:
            budget = self.latency_ewma.get("task", optimal_time_limit_s)
        deadline = max(policy.min_deadline_s, policy.deadline_multiplier * budget)
        if policy.max_deadline_s is not None:
            deadline = min(deadline, policy.max_deadline_s)
        return deadline

    # -- breakers ------------------------------------------------------
    def effective_ladder(self, ladder: LadderPolicy | None) -> LadderPolicy | None:
        """``ladder`` with open-breaker rungs skipped (identity when closed)."""
        if ladder is None:
            return None
        blocked = {
            rung
            for rung in BREAKER_RUNGS
            if not self.breakers[f"rung:{rung}"].allow_request()
        }
        if not blocked:
            return ladder
        return ladder.drop_rungs(blocked)

    def observe_report(self, report_dict: dict | None) -> None:
        """Feed one task's degradation trail into the rung breakers.

        A ``demote`` event on a guarded rung is a failure; an ``accept``
        is a success.  Called by the supervised runner for every stored
        task row, so "N consecutive failures across scenarios" is
        literal completion order.  Accept/demote/retry events also feed
        their ``elapsed_s`` into the per-rung latency EWMA behind
        :meth:`task_deadline_s`.
        """
        if not report_dict:
            return
        for event in report_dict.get("events", ()):
            rung = event.get("rung")
            action = event.get("action")
            if rung and action in ("accept", "demote", "retry"):
                self.observe_latency(str(rung), float(event.get("elapsed_s", 0.0)))
            breaker = self.breakers.get(f"rung:{rung}")
            if breaker is None:
                continue
            if action == "demote":
                before = breaker.trips
                breaker.record_failure(str(event.get("reason", "")))
                if breaker.trips > before:
                    self.stats["breaker_trips"] += 1
                    self.events.append({
                        "action": "breaker-open",
                        "breaker": breaker.name,
                        "reason": event.get("reason", ""),
                    })
            elif action == "accept":
                if breaker.state != BreakerOpenState.CLOSED:
                    self.events.append({
                        "action": "breaker-close",
                        "breaker": breaker.name,
                    })
                breaker.record_success()

    # -- quarantine ----------------------------------------------------
    def charge(self, scenarios: Iterable[str], cause: str) -> None:
        """Charge one failure of ``cause`` to every scenario named."""
        for name in scenarios:
            self.ledger.charge(name, cause)

    def quarantine_decisions(
        self, scenario_names: Sequence[str], algorithms: Sequence[str]
    ) -> list[QuarantineReport]:
        """Quarantine every over-budget scenario in ``scenario_names``.

        Returns the *new* reports (scenarios already quarantined are not
        re-reported) and appends them to :attr:`quarantines`.
        """
        seen = {report.scenario for report in self.quarantines}
        fresh = []
        for name in scenario_names:
            if name in seen or not self.ledger.over_budget(name):
                continue
            report = QuarantineReport(
                scenario=name,
                algorithms=tuple(algorithms),
                charges=self.ledger.charges[name],
                cause=self.ledger.causes.get(name, "unknown"),
            )
            self.quarantines.append(report)
            fresh.append(report)
            self.stats["quarantined"] += 1
            self.events.append({"action": "quarantine", **report.to_dict()})
        return fresh

    def is_quarantined(self, scenario: str) -> bool:
        """Whether ``scenario`` has already been quarantined."""
        return any(report.scenario == scenario for report in self.quarantines)

    # -- summary -------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """JSON-safe account of everything the supervisor did."""
        return {
            "stats": dict(self.stats),
            "quarantines": [report.to_dict() for report in self.quarantines],
            "breakers": {
                name: breaker.to_dict() for name, breaker in self.breakers.items()
            },
            "events": list(self.events),
        }
