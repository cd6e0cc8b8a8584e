"""Property-based tests for the HiGHS adapter (hypothesis).

Random knapsacks, written as standard forms, are solved by HiGHS and
checked against brute force; the LP relaxation must bound the MILP.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lp import SolveStatus, solve_form_relaxation, solve_form_with_highs
from test_lp_solvers import dense_form

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def knapsack_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    values = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    budget = draw(st.integers(min_value=1, max_value=sum(weights)))
    return values, weights, budget


def build_knapsack(values, weights, budget):
    n = len(values)
    return dense_form(
        values,
        a_ub=[weights],
        b_ub=[budget],
        ub=np.ones(n),
        integer=np.ones(n),
    )


def brute_force_knapsack(values, weights, budget) -> float:
    best = 0
    n = len(values)
    for mask in range(1 << n):
        weight = value = 0
        for i in range(n):
            if mask >> i & 1:
                weight += weights[i]
                value += values[i]
        if weight <= budget:
            best = max(best, value)
    return float(best)


class TestSolverProperties:
    @SETTINGS
    @given(knapsack_instances())
    def test_highs_matches_brute_force(self, instance):
        values, weights, budget = instance
        result = solve_form_with_highs(build_knapsack(values, weights, budget))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(
            brute_force_knapsack(values, weights, budget)
        )

    @SETTINGS
    @given(knapsack_instances())
    def test_incumbent_is_feasible_and_binary(self, instance):
        values, weights, budget = instance
        result = solve_form_with_highs(build_knapsack(values, weights, budget))
        x = np.round(result.x, 6)
        assert set(x.tolist()) <= {0.0, 1.0}
        assert float(np.dot(weights, x)) <= budget + 1e-9

    @SETTINGS
    @given(knapsack_instances())
    def test_lp_relaxation_upper_bounds_milp(self, instance):
        form = build_knapsack(*instance)
        milp = solve_form_with_highs(form)
        relaxed = solve_form_relaxation(form)
        assert relaxed.objective >= milp.objective - 1e-6
