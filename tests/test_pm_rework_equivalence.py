"""Production PM must be bit-for-bit the straight-line Algorithm 1.

:class:`~repro.pm.algorithm.ProgrammabilityMedic` is Algorithm 1 with no
hot-loop rework: per-pick recounting in ``_select_switch``, per-call
controller sorting in ``_map_switch`` and the straight-line
``_recover_at`` / ``_phase2`` bodies.  :func:`~repro.pm.algorithm.solve_pm`
runs the array kernel.  Any divergence in ``mapping``, ``sdn_pairs`` or
per-flow programmability across the seeded scenario matrix is a
regression in the kernel, not a tie-break judgement call.
"""

from __future__ import annotations

import pytest

from repro.control.failures import (
    enumerate_failure_scenarios,
    sample_failure_scenarios,
)
from repro.experiments.scenarios import custom_context
from repro.fmssm.evaluation import evaluate_solution
from repro.pm.algorithm import ProgrammabilityMedic, solve_pm
from repro.topology.generators import waxman_topology

#: (phase2_order, enforce_delay) variants the matrix covers.
VARIANTS = (("paper", False), ("greedy", False), ("paper", True), ("greedy", True))


def assert_bit_for_bit(instance, phase2_order, enforce_delay):
    new = solve_pm(instance, phase2_order=phase2_order, enforce_delay=enforce_delay)
    ref = ProgrammabilityMedic(
        instance, phase2_order=phase2_order, enforce_delay=enforce_delay
    ).run()
    assert new.mapping == ref.mapping
    assert new.sdn_pairs == ref.sdn_pairs
    # Per-flow h: the evaluator recomputes programmability from Y, which
    # must coincide with the internal levels of both implementations.
    new_eval = evaluate_solution(instance, new, verify=False)
    ref_eval = evaluate_solution(instance, ref, verify=False)
    assert new_eval.programmability == ref_eval.programmability
    assert new_eval.total_delay_ms == ref_eval.total_delay_ms


class TestAttMatrix:
    @pytest.mark.parametrize("phase2_order,enforce_delay", VARIANTS)
    def test_all_one_failure_cases(self, att_context, phase2_order, enforce_delay):
        for scenario in enumerate_failure_scenarios(att_context.plane, 1):
            instance = att_context.instance(scenario)
            assert_bit_for_bit(instance, phase2_order, enforce_delay)

    @pytest.mark.parametrize("phase2_order,enforce_delay", VARIANTS)
    def test_seeded_two_failure_cases(self, att_context, phase2_order, enforce_delay):
        for scenario in sample_failure_scenarios(att_context.plane, 2, 6, seed=11):
            instance = att_context.instance(scenario)
            assert_bit_for_bit(instance, phase2_order, enforce_delay)

    @pytest.mark.parametrize("phase2_order,enforce_delay", VARIANTS)
    def test_seeded_three_failure_cases(self, att_context, phase2_order, enforce_delay):
        for scenario in sample_failure_scenarios(att_context.plane, 3, 4, seed=23):
            instance = att_context.instance(scenario)
            assert_bit_for_bit(instance, phase2_order, enforce_delay)


class TestSyntheticMatrix:
    @pytest.fixture(scope="class")
    def waxman_context(self):
        topology = waxman_topology(24, alpha=0.6, beta=0.35, seed=5)
        return custom_context(topology, controller_sites=(0, 5, 11, 17), capacity=900)

    @pytest.mark.parametrize("phase2_order,enforce_delay", VARIANTS)
    def test_seeded_waxman_cases(self, waxman_context, phase2_order, enforce_delay):
        for n_failures in (1, 2):
            for scenario in sample_failure_scenarios(
                waxman_context.plane, n_failures, 3, seed=7
            ):
                instance = waxman_context.instance(scenario)
                assert_bit_for_bit(instance, phase2_order, enforce_delay)

    def test_tiny_instance_equivalence(self, tiny_instance):
        for phase2_order, enforce_delay in VARIANTS:
            assert_bit_for_bit(tiny_instance, phase2_order, enforce_delay)
