"""Solver result types of the HiGHS adapter."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    """Result of solving a :class:`~repro.lp.standard_form.StandardForm`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value in the *problem's* sense (``None`` unless a
        feasible point exists).
    x:
        Incumbent vector in the form's column order (``None`` when no
        incumbent exists).
    solver:
        Which route produced the result: ``"highs"``, ``"highs-lp"``
        (a relaxation), or the exact solver's ``"precert"`` and
        ``"pm-fallback"``.
    wall_time_s:
        Wall-clock seconds spent in the solver.
    gap:
        Relative MIP gap of the incumbent when known, else ``None``.
    nodes:
        Branch-and-bound nodes HiGHS processed, when known.
    message:
        Free-form backend diagnostics.
    """

    status: SolveStatus
    objective: float | None = None
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

    def __repr__(self) -> str:
        obj = "None" if self.objective is None else f"{self.objective:.6g}"
        return (
            f"SolveResult(status={self.status.value}, objective={obj}, "
            f"solver={self.solver!r}, time={self.wall_time_s:.3f}s)"
        )
