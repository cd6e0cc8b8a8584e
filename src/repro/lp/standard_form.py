"""Matrix standard form of an LP or MILP.

The form every exact solve hands to HiGHS is::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lb <= x <= ub
                x[i] integer for i in integrality

A maximization problem is written with ``c`` negated; its objective is
read back in the problem's sense by :func:`StandardForm.objective_value`.
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
    """Matrix form of a problem (see module docstring)."""

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # 1.0 where integer, 0.0 where continuous
    maximize: bool
    objective_constant: float

    @property
    def n_vars(self) -> int:
        """Number of variables."""
        return len(self.c)

    def objective_value(self, minimized_value: float) -> float:
        """Convert the solver's ``c @ x`` value back to the problem's sense.

        ``minimized_value`` excludes the objective constant (linprog/milp
        only see ``c``).  The stored constant is already negated for
        maximization, so adding it and flipping the sign restores the
        problem's objective.
        """
        value = minimized_value + self.objective_constant
        return -value if self.maximize else value
