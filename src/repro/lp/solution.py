"""Solver result types shared by the HiGHS adapter and branch-and-bound."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["SolveStatus", "SolveResult"]


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven (time limit)
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"  # time limit hit with no incumbent
    ERROR = "error"


@dataclass
class SolveResult:
    """Result of solving a model.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value in the *model's* sense (``None`` unless a feasible
        point exists).
    values:
        Variable name → value for the incumbent (empty when none, or
        when the model was solved from an unnamed standard form — use
        ``x`` then).
    x:
        Raw incumbent vector in column order (``None`` when no incumbent
        exists).  Form-level callers that track their own column layout
        read this instead of the name-keyed ``values``.
    solver:
        Which backend produced the result (``"highs"`` or ``"bnb"``).
    wall_time_s:
        Wall-clock seconds spent in the solver.
    gap:
        Relative MIP gap of the incumbent when known, else ``None``.
    nodes:
        Branch-and-bound nodes processed when known.
    message:
        Free-form backend diagnostics.
    """

    status: SolveStatus
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    x: "np.ndarray | None" = None
    solver: str = ""
    wall_time_s: float = 0.0
    gap: float | None = None
    nodes: int | None = None
    message: str = ""

    @property
    def is_feasible(self) -> bool:
        """Whether a usable incumbent exists (optimal or not)."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def value(self, name: str) -> float:
        """Value of variable ``name`` in the incumbent.

        Raises :class:`SolverError` when no incumbent exists or the name
        is unknown.
        """
        if not self.is_feasible:
            raise SolverError(f"no incumbent available (status={self.status.value})")
        try:
            return self.values[name]
        except KeyError:
            raise SolverError(f"unknown variable {name!r}") from None

    def __repr__(self) -> str:
        obj = "None" if self.objective is None else f"{self.objective:.6g}"
        return (
            f"SolveResult(status={self.status.value}, objective={obj}, "
            f"solver={self.solver!r}, time={self.wall_time_s:.3f}s)"
        )
