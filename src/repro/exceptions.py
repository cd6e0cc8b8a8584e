"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so a
caller can catch everything produced by the package with one handler while
still distinguishing finer-grained failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "ParseError",
    "FlowError",
    "RoutingError",
    "DataPlaneError",
    "TableMissError",
    "ForwardingLoopError",
    "ControlPlaneError",
    "CapacityError",
    "ScenarioError",
    "ModelError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "SolverTimeoutError",
    "SolutionError",
    "ValidationError",
    "ChaosError",
    "DegradedResultWarning",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class TopologyError(ReproError):
    """A topology is malformed or an operation on it is invalid."""


class ParseError(TopologyError):
    """A topology file (e.g. Topology Zoo GML) could not be parsed."""


class FlowError(ReproError):
    """A flow definition is invalid (unknown endpoints, empty path, ...)."""


class RoutingError(ReproError):
    """A routing computation failed (no path, bad strategy, ...)."""


class DataPlaneError(ReproError):
    """Base class for data-plane simulation errors."""


class TableMissError(DataPlaneError):
    """A packet matched no entry in any table of a switch pipeline."""


class ForwardingLoopError(DataPlaneError):
    """A packet revisited a switch during forwarding simulation."""


class ControlPlaneError(ReproError):
    """Base class for control-plane errors."""


class CapacityError(ControlPlaneError):
    """A controller's control-resource budget would be exceeded."""


class ScenarioError(ControlPlaneError):
    """A failure scenario is invalid (unknown controller, none active, ...)."""


class ModelError(ReproError):
    """An optimization model is malformed."""


class SolverError(ReproError):
    """Base class for optimization solver failures."""


class InfeasibleError(SolverError):
    """The optimization problem has no feasible solution."""


class UnboundedError(SolverError):
    """The optimization problem is unbounded."""


class SolverTimeoutError(SolverError):
    """The solver hit its time limit before proving optimality."""


class SolutionError(ReproError):
    """A recovery solution violates the FMSSM constraints."""


class ValidationError(SolutionError):
    """The independent validator rejected a solver's solution.

    Raised by :mod:`repro.resilience.validate` when a returned solution
    violates the instance's constraints (Eqs. 2-6 / 12-14) — i.e. "the
    solver said so" failed independent verification.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class ChaosError(ReproError):
    """An error injected on purpose by the fault-injection harness."""


class DegradedResultWarning(UserWarning, ReproError):
    """A result was produced by a degraded execution path.

    Emitted (via :func:`warnings.warn`) when a sweep falls back to serial
    execution, when an exact solve answers with PM or its seed instead,
    and similar events — the result is still correct, but
    produced more slowly or by a weaker method than requested.  Inherits
    from :class:`ReproError` so ``except ReproError`` handlers and the
    hierarchy tests see it, and from :class:`UserWarning` so it works as
    a warning category.
    """
