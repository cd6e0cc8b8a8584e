"""Tests for the HiGHS adapter on small hand-written standard forms.

:func:`dense_form` writes a problem as a
:class:`~repro.lp.standard_form.StandardForm` from dense rows, the way
the package's own problems are written (:mod:`repro.perf.compile`,
:mod:`repro.baselines.retroflow`).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.lp import SolveStatus, StandardForm, solve_form_relaxation, solve_form_with_highs

SOLVERS = ("highs",)


def dense_form(c, a_ub=(), b_ub=(), lb=None, ub=None, integer=None) -> StandardForm:
    """A form maximizing ``c @ x`` from dense rows (``c`` negated here,
    as the package writes it)."""
    n = len(c)
    return StandardForm(
        c=-np.asarray(c, dtype=float),
        a_ub=sparse.csr_matrix(np.asarray(a_ub, dtype=float).reshape(-1, n)),
        b_ub=np.asarray(b_ub, dtype=float),
        lb=np.zeros(n) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float),
        integrality=np.zeros(n) if integer is None else np.asarray(integer, dtype=float),
    )


def knapsack_form() -> tuple[StandardForm, float]:
    """A small knapsack with known optimum 14 (items 0, 1 and 3)."""
    return (
        dense_form(
            [6, 7, 6, 1],
            a_ub=[[3, 4, 4, 1]],
            b_ub=[8],
            ub=np.ones(4),
            integer=np.ones(4),
        ),
        14.0,
    )


@pytest.mark.parametrize("solver", SOLVERS)
class TestBothSolvers:
    def test_pure_lp(self, solver):
        form = dense_form([1, 2], a_ub=[[1, 1]], b_ub=[6], ub=[4, 4])
        result = solve_form_with_highs(form)
        assert result.solver == solver
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(10.0)
        assert result.x[1] == pytest.approx(4.0)

    def test_knapsack_optimum(self, solver):
        form, best = knapsack_form()
        result = solve_form_with_highs(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(best)

    def test_integrality_enforced(self, solver):
        form = dense_form([1], a_ub=[[2]], b_ub=[7], ub=[10], integer=[1])
        result = solve_form_with_highs(form)
        assert result.objective == pytest.approx(3.0)
        assert result.x[0] == pytest.approx(3.0)
        # The relaxation ignores the integrality marker.
        assert solve_form_relaxation(form).objective == pytest.approx(3.5)

    def test_infeasible(self, solver):
        form = dense_form([1], a_ub=[[-1]], b_ub=[-2], ub=[1])
        assert solve_form_with_highs(form).status is SolveStatus.INFEASIBLE
        assert solve_form_relaxation(form).status is SolveStatus.INFEASIBLE

    def test_lower_bound(self, solver):
        form = dense_form([-3], lb=[2], ub=[9])
        result = solve_form_with_highs(form)
        assert result.objective == pytest.approx(-6.0)
        assert result.x[0] == pytest.approx(2.0)


class TestResultSemantics:
    def test_repr(self):
        form, _ = knapsack_form()
        assert "optimal" in repr(solve_form_with_highs(form))
