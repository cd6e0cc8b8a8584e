"""Tests of P′ as :mod:`repro.perf.compile` writes it (Section IV-E).

The per-equation row test holds every block of the compiled form to
the documented layout, rebuilt from the paper's equations by
:func:`fmssm_oracle.reference_blocks`; the solved-semantics tests read
HiGHS's answer on the form column by column.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_tiny_instance
from fmssm_oracle import reference_blocks
from repro.lp.highs import solve_form_with_highs
from repro.lp.solution import SolveStatus
from repro.perf.compile import compile_fmssm

#: Row blocks of the form, in row order.
ROW_BLOCKS = ("eq2", "mccormick", "eq12", "eq13", "eq14")


def solved(instance, **flags):
    compiled = compile_fmssm(instance, **flags)
    return compiled, solve_form_with_highs(compiled.form)


def columns(compiled):
    """(x[s,c], y[k], w[k,c]) column index helpers of the layout."""
    m = len(compiled.controllers)

    def x(s, c):
        return compiled.switches.index(s) * m + compiled.controllers.index(c)

    def y(k):
        return compiled.n_x + k * (m + 1)

    def w(k, c):
        return y(k) + 1 + compiled.controllers.index(c)

    return x, y, w


class TestModelShape:
    def test_variable_counts(self, tiny_instance):
        compiled = compile_fmssm(tiny_instance)
        n_pairs = len(tiny_instance.pairs)
        assert compiled.n_x == 2 * 2
        assert compiled.form.n_vars == 4 + n_pairs + 2 * n_pairs + 1  # + r
        assert compiled.r_col == compiled.form.n_vars - 1

    def test_constraint_counts(self, tiny_instance):
        compiled = compile_fmssm(tiny_instance)
        n_pairs = len(tiny_instance.pairs)
        expected = (
            2                    # Eq. (2) per switch
            + 3 * 2 * n_pairs    # McCormick
            + 2                  # Eq. (12) per controller
            + 3                  # Eq. (13) per recoverable flow
            + 1                  # Eq. (14)
        )
        assert compiled.form.a_ub.shape[0] == expected

    def test_delay_constraint_optional(self, tiny_instance):
        with_delay = compile_fmssm(tiny_instance, enforce_delay=True)
        without = compile_fmssm(tiny_instance, enforce_delay=False)
        assert with_delay.form.a_ub.shape[0] == without.form.a_ub.shape[0] + 1

    def test_full_recovery_sets_r_lower_bound(self, tiny_instance):
        compiled = compile_fmssm(tiny_instance, require_full_recovery=True)
        assert compiled.form.lb[compiled.r_col] == 1.0


@pytest.mark.parametrize("require_full_recovery", [False, True])
@pytest.mark.parametrize("enforce_delay", [False, True])
class TestEquationRows:
    """Each block of the compiled form against the documented layout."""

    def test_row_blocks(self, tiny_instance, require_full_recovery, enforce_delay):
        form = compile_fmssm(
            tiny_instance,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
        ).form
        reference = reference_blocks(tiny_instance, require_full_recovery, enforce_delay)
        dense = form.a_ub.toarray()
        start = 0
        for name in ROW_BLOCKS:
            a, b = reference[name]
            stop = start + len(a)
            np.testing.assert_array_equal(dense[start:stop], a, err_msg=name)
            np.testing.assert_array_equal(form.b_ub[start:stop], b, err_msg=name)
            start = stop
        assert start == dense.shape[0]
        assert (len(reference["eq14"][0]) == 1) == enforce_delay

    def test_objective_and_bounds(self, tiny_instance, require_full_recovery, enforce_delay):
        compiled = compile_fmssm(
            tiny_instance,
            require_full_recovery=require_full_recovery,
            enforce_delay=enforce_delay,
        )
        form = compiled.form
        reference = reference_blocks(tiny_instance, require_full_recovery, enforce_delay)
        for name in ("c", "lb", "ub", "integrality"):
            np.testing.assert_array_equal(getattr(form, name), reference[name], err_msg=name)
        # r is bounded by the weakest flow's max programmability: pro(a) = 2.
        assert form.ub[compiled.r_col] == 2.0
        assert form.lb[compiled.r_col] == (1.0 if require_full_recovery else 0.0)


class TestSolvedSemantics:
    def test_tiny_optimum(self, tiny_instance):
        """With spare {2, 2} everything is affordable: all four pairs on.

        pro(a)=2, pro(b)=5, pro(c)=4 -> r=2, total=11.
        """
        compiled, result = solved(tiny_instance)
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[compiled.r_col] == pytest.approx(2.0)
        _, _, w = columns(compiled)
        total = sum(
            tiny_instance.pbar[pair] * result.x[w(k, c)]
            for k, pair in enumerate(compiled.pairs)
            for c in compiled.controllers
        )
        assert total == pytest.approx(11.0)

    def test_mccormick_consistency(self, tiny_instance):
        compiled, result = solved(tiny_instance)
        x, y, w = columns(compiled)
        for k, (switch, _flow) in enumerate(compiled.pairs):
            for c in compiled.controllers:
                assert result.x[w(k, c)] == pytest.approx(
                    result.x[x(switch, c)] * result.x[y(k)], abs=1e-6
                )

    def test_single_mapping_per_switch(self, tiny_instance):
        compiled, result = solved(tiny_instance)
        x, _, _ = columns(compiled)
        for switch in tiny_instance.switches:
            total = sum(result.x[x(switch, c)] for c in tiny_instance.controllers)
            assert total <= 1 + 1e-6

    def test_capacity_respected_when_scarce(self):
        instance = make_tiny_instance(spare={100: 1, 200: 1})
        compiled, result = solved(instance)
        assert result.status is SolveStatus.OPTIMAL
        _, _, w = columns(compiled)
        for controller in instance.controllers:
            load = sum(result.x[w(k, controller)] for k in range(len(compiled.pairs)))
            assert load <= instance.spare[controller] + 1e-6

    def test_infeasible_when_full_recovery_impossible(self):
        # One unit of spare cannot give all three flows a pair.
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        _, result = solved(instance, require_full_recovery=True)
        assert result.status is SolveStatus.INFEASIBLE

    def test_zero_budget_still_feasible_without_requirement(self):
        instance = make_tiny_instance(spare={100: 0, 200: 0})
        _, result = solved(instance)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)
