"""Tests for :class:`~repro.lp.standard_form.StandardForm`."""

from __future__ import annotations

import pytest

from test_lp_solvers import dense_form


class TestStandardForm:
    def test_objective_value_roundtrip(self):
        form = dense_form([3, 1], ub=[10, 1], maximize=True, constant=7.0)
        # The solver reports c @ x only: at x=4, y=1 that is -(3*4 + 1) =
        # -13; the stored constant (-7, negated for max) restores 20.
        assert form.objective_value(-13.0) == pytest.approx(13.0 + 7.0)

    def test_min_objective_constant(self):
        form = dense_form([1], constant=5.0)
        # minimized value at x=2 is 2 (without the constant); +5 restores it.
        assert form.objective_value(2.0) == pytest.approx(7.0)
