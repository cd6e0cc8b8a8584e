"""Degradation ladder: predictable fallback chains for exact solves.

The paper's recovery philosophy — keep the service alive on a weaker but
predictable path when the primary one fails — applied to the
reproduction's own solver pipeline.  A :class:`LadderPolicy` is an
ordered chain of :class:`Rung`\\ s, each naming a registered solve route
with a per-rung time limit and a retry-with-backoff policy:

``sparse+warm`` → ``pm``

The exact rung is HiGHS on the compiled P′, seeded with PM; the PM
heuristic terminates the chain.

A rung is *demoted* (the ladder moves to the next rung) when its attempt
raises a :class:`SolverError` (timeouts included) after its retries are
exhausted, or when the independent validator rejects its output.  A rung
that *returns* an infeasible solution is accepted as the final answer —
genuine infeasibility under full recovery is a legitimate result (the
paper's "Optimal has no result"), not a failure of the rung.

Every attempt, retry, demotion and acceptance is recorded in a
structured :class:`DegradationReport`, which sweeps attach to their
:class:`~repro.experiments.runner.ScenarioResult`\\ s — so a run that
silently limped through on the heuristic rung is visible in the results,
the headline benchmark JSON, and CI.

Rungs reference solve routes by *name* through a module-level registry
(:data:`RUNG_SOLVERS`) so policies stay picklable and can ship to pool
workers inside a :class:`~repro.perf.sweep.SweepPlan`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from repro.exceptions import DegradedResultWarning, SolverError, ValidationError
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution

__all__ = [
    "DegradationEvent",
    "DegradationReport",
    "Rung",
    "LadderPolicy",
    "RUNG_SOLVERS",
    "default_ladder",
    "solve_with_ladder",
]


@dataclass(frozen=True)
class DegradationEvent:
    """One step in a degraded execution: what happened, where, and why."""

    rung: str
    action: str  # "attempt" | "retry" | "demote" | "accept" | "serial-fallback" | ...
    reason: str
    elapsed_s: float = 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-safe representation (headline payloads)."""
        return {
            "rung": self.rung,
            "action": self.action,
            "reason": self.reason,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "DegradationEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rung=str(payload["rung"]),
            action=str(payload["action"]),
            reason=str(payload["reason"]),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )


@dataclass
class DegradationReport:
    """Structured audit trail of one solve or sweep execution path.

    ``rung_used`` names the rung (or execution mode, for sweeps) that
    produced the final answer; ``degraded`` is True when that differs
    from the primary path.
    """

    events: list[DegradationEvent] = field(default_factory=list)
    rung_used: str | None = None

    @property
    def degraded(self) -> bool:
        """True when anything beyond the primary path happened."""
        return any(
            e.action in (
                "demote", "retry", "serial-fallback",
                # Supervisor verdicts (repro.resilience.supervisor):
                "preempted", "quarantine", "task-fault", "pool-crash",
            )
            for e in self.events
        )

    @property
    def demotions(self) -> tuple[DegradationEvent, ...]:
        """The demotion events, in order."""
        return tuple(e for e in self.events if e.action == "demote")

    def record(
        self, rung: str, action: str, reason: str, elapsed_s: float = 0.0
    ) -> None:
        """Append one :class:`DegradationEvent`."""
        self.events.append(DegradationEvent(rung, action, reason, elapsed_s))

    def summary(self) -> str:
        """One-line human-readable account of the path taken."""
        if not self.events and self.rung_used is None:
            return "no degradation data"
        path = " -> ".join(
            f"{e.rung}:{e.action}" for e in self.events if e.action != "attempt"
        )
        used = self.rung_used or "?"
        return f"rung_used={used}" + (f" [{path}]" if path else "")

    def to_dict(self) -> dict[str, object]:
        """JSON-safe representation (worker transport, headline payloads)."""
        return {
            "rung_used": self.rung_used,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "DegradationReport":
        """Inverse of :meth:`to_dict`."""
        report = cls(rung_used=payload.get("rung_used"))
        for item in payload.get("events", ()):
            report.events.append(DegradationEvent.from_dict(item))
        return report


# ----------------------------------------------------------------------
# Rung solve routes (registered by name so policies pickle)
# ----------------------------------------------------------------------

def _solve_sparse_warm(instance: FMSSMInstance, time_limit_s: float | None) -> RecoverySolution:
    from repro.fmssm.optimal import solve_optimal

    return solve_optimal(
        instance,
        time_limit_s=time_limit_s,
        warm_start="pm",
        raise_on_timeout=True,
    )


def _solve_pm_rung(instance: FMSSMInstance, time_limit_s: float | None) -> RecoverySolution:
    from repro.pm.algorithm import solve_pm

    solution = solve_pm(instance, enforce_delay=True)
    solution.meta["ladder_rung"] = "pm"
    return solution


#: Solve routes a :class:`Rung` may name.  The PM rung is best-effort:
#: it cannot prove infeasibility, so under ``require_full_recovery`` its
#: answer is "keep as many flows programmable as possible" — exactly the
#: graceful-degradation semantics the ladder exists to provide.
RUNG_SOLVERS = {
    "sparse+warm": _solve_sparse_warm,
    "pm": _solve_pm_rung,
}


@dataclass(frozen=True)
class Rung:
    """One rung: a registered solve route plus its guard rails."""

    name: str
    solver: str  # key into RUNG_SOLVERS
    time_limit_s: float | None = None
    retries: int = 0
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.solver not in RUNG_SOLVERS:
            raise ValueError(
                f"unknown rung solver {self.solver!r}; "
                f"known: {sorted(RUNG_SOLVERS)}"
            )


@dataclass(frozen=True)
class LadderPolicy:
    """An ordered, picklable chain of rungs plus validation settings."""

    rungs: tuple[Rung, ...]
    validate: bool = True
    #: PM (the terminal heuristic rung) cannot certify r >= 1, so full
    #: recovery is only asserted on exact rungs.
    require_full_recovery: bool = True

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("a ladder needs at least one rung")

    def drop_rungs(self, names: "set[str] | frozenset[str]") -> "LadderPolicy":
        """This policy without the rungs in ``names`` (breaker skips).

        The terminal rung is never dropped — an open circuit breaker may
        skip a failing rung's timeout, but the ladder must always keep a
        route to an answer.  Returns ``self`` when nothing changes, so
        the fault-free path reuses the identical (cached) policy object.
        """
        kept = tuple(
            rung
            for index, rung in enumerate(self.rungs)
            if rung.name not in names or index == len(self.rungs) - 1
        )
        if len(kept) == len(self.rungs):
            return self
        return LadderPolicy(
            rungs=kept,
            validate=self.validate,
            require_full_recovery=self.require_full_recovery,
        )


def default_ladder(
    time_limit_s: float | None = 300.0,
    validate: bool = True,
    retries: int = 1,
    backoff_s: float = 0.0,
) -> LadderPolicy:
    """The standard two-rung ladder for ``optimal`` solves.

    The exact rung gets the full time limit and ``retries`` attempts,
    and the PM heuristic terminates the chain (it cannot time out and
    needs no solver).
    """
    return LadderPolicy(
        rungs=(
            Rung("sparse+warm", "sparse+warm", time_limit_s, retries, backoff_s),
            Rung("pm", "pm", None, 0, 0.0),
        ),
        validate=validate,
    )


def solve_with_ladder(
    instance: FMSSMInstance,
    policy: LadderPolicy,
    report: DegradationReport | None = None,
) -> tuple[RecoverySolution, DegradationReport]:
    """Run ``instance`` down ``policy``'s rungs until one produces a
    validated answer.

    Returns the solution and the :class:`DegradationReport` describing
    the path taken.  Raises :class:`SolverError` only when *every* rung
    fails — with the PM heuristic as the terminal rung this requires the
    fault injector to be actively hostile.
    """
    from repro.resilience.validate import check_solution

    if report is None:
        report = DegradationReport()
    last_error: Exception | None = None

    for rung_index, rung in enumerate(policy.rungs):
        attempt_fn = RUNG_SOLVERS[rung.solver]
        exact_rung = rung.solver != "pm"
        for attempt in range(rung.retries + 1):
            start = time.perf_counter()
            try:
                solution = attempt_fn(instance, rung.time_limit_s)
                if policy.validate and solution.feasible:
                    check_solution(
                        instance,
                        solution,
                        enforce_delay=True,
                        require_full_recovery=(
                            policy.require_full_recovery and exact_rung
                        ),
                    )
            except ValidationError as exc:
                # A rejected output is deterministic — retrying the same
                # rung would reproduce it, so demote immediately.
                last_error = exc
                report.record(
                    rung.name, "demote", f"validation: {exc}",
                    time.perf_counter() - start,
                )
                break
            except SolverError as exc:
                last_error = exc
                elapsed = time.perf_counter() - start
                if attempt < rung.retries:
                    report.record(rung.name, "retry", str(exc), elapsed)
                    if rung.backoff_s:
                        time.sleep(rung.backoff_s * (2.0**attempt))
                    continue
                report.record(rung.name, "demote", str(exc), elapsed)
                break
            else:
                elapsed = time.perf_counter() - start
                report.rung_used = rung.name
                report.record(
                    rung.name,
                    "accept",
                    "feasible" if solution.feasible else "infeasible (accepted)",
                    elapsed,
                )
                if rung_index > 0:
                    solution.meta["degraded"] = True
                    warnings.warn(
                        DegradedResultWarning(
                            f"optimal solve degraded to rung {rung.name!r}: "
                            f"{report.summary()}"
                        ),
                        stacklevel=2,
                    )
                solution.meta["ladder_rung"] = rung.name
                return solution, report

    message = f"all {len(policy.rungs)} ladder rungs failed: {report.summary()}"
    if last_error is not None:
        raise SolverError(message) from last_error
    raise SolverError(message)
