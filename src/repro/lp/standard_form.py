"""Matrix standard form of a maximizing LP or MILP.

Both problems the package hands HiGHS (P′ from :mod:`repro.perf.compile`,
RetroFlow's assignment IP from :mod:`repro.baselines.retroflow`)
maximize; each is written as the minimization HiGHS solves::

    minimize    c @ x        (c is the negated objective)
    subject to  A_ub @ x <= b_ub
                lb <= x <= ub
                x[i] integer for i in integrality

and its objective is read back in the maximizing sense by
:func:`StandardForm.objective_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = ["StandardForm"]


@dataclass
class StandardForm:
    """Matrix form of a maximization (see module docstring)."""

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # 1.0 where integer, 0.0 where continuous

    @property
    def n_vars(self) -> int:
        """Number of variables."""
        return len(self.c)

    def objective_value(self, minimized_value: float) -> float:
        """The maximized objective of a solver's ``c @ x`` value."""
        return -minimized_value
