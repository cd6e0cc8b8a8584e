"""Tests for :class:`~repro.lp.standard_form.StandardForm`."""

from __future__ import annotations

from test_lp_solvers import dense_form


class TestStandardForm:
    def test_objective_value_roundtrip(self):
        form = dense_form([3, 1], ub=[10, 1])
        # The solver reports c @ x of the negated objective: at x=4, y=1
        # that is -(3*4 + 1) = -13, read back as 13.
        assert form.objective_value(-13.0) == 13.0
