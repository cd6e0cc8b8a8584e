"""The compiled form of P′ against its documented layout, and the
seeded and cold exact routes against each other and the oracle.

The contract of :mod:`repro.perf.compile` is *bit-identity* with the
layout :func:`fmssm_oracle.reference_blocks` writes from the paper's
equations — same matrices, vectors, bounds and integrality.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import make_tiny_instance
from fmssm_oracle import optimum, reference_blocks
from repro.control.failures import FailureScenario, enumerate_failure_scenarios
from repro.fmssm.evaluation import evaluate_solution, verify_solution
from repro.fmssm.optimal import solve_optimal
from repro.perf.compile import compile_fmssm
from repro.pm import solve_pm


def assert_matches_reference(instance, require_full_recovery=False, enforce_delay=True):
    form = compile_fmssm(
        instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
    ).form
    blocks = reference_blocks(instance, require_full_recovery, enforce_delay)
    names = ("eq2", "mccormick", "eq12", "eq13", "eq14")
    np.testing.assert_array_equal(form.c, blocks["c"])
    np.testing.assert_array_equal(form.lb, blocks["lb"])
    np.testing.assert_array_equal(form.ub, blocks["ub"])
    np.testing.assert_array_equal(form.integrality, blocks["integrality"])
    np.testing.assert_array_equal(
        form.a_ub.toarray(), np.vstack([blocks[n][0] for n in names])
    )
    np.testing.assert_array_equal(
        form.b_ub, np.concatenate([blocks[n][1] for n in names])
    )


class TestFormEquivalence:
    @pytest.mark.parametrize("require_full_recovery", [False, True])
    @pytest.mark.parametrize("enforce_delay", [False, True])
    def test_tiny_bit_identical(self, tiny_instance, require_full_recovery, enforce_delay):
        assert_matches_reference(tiny_instance, require_full_recovery, enforce_delay)

    def test_tiny_variants_bit_identical(self):
        for instance in (
            make_tiny_instance(spare={100: 1, 200: 0}),
            make_tiny_instance(spare={100: 1, 200: 1}),
            make_tiny_instance(ideal_delay_ms=3.0),
            make_tiny_instance(lam=0.25),
        ):
            assert_matches_reference(instance)

    def test_small_instance_bit_identical(self, small_instance):
        assert_matches_reference(small_instance, require_full_recovery=True)


def form_digest(form) -> str:
    """SHA-256 over a form's arrays in the order HiGHS receives them:
    ``c``, the CSR ``a_ub`` entry by entry, ``b_ub``, bounds and
    integrality (indices widened to int64, so the digest does not
    depend on the index width scipy picks)."""
    a = form.a_ub
    h = hashlib.sha256()
    for values, dtype in (
        (form.c, np.float64),
        (a.data, np.float64),
        (a.indices, np.int64),
        (a.indptr, np.int64),
        (a.shape, np.int64),
        (form.b_ub, np.float64),
        (form.lb, np.float64),
        (form.ub, np.float64),
        (form.integrality, np.float64),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


class TestFormDigest:
    """The compiled P′ byte for byte, CSR entry order included: the
    HiGHS search path depends on it, so any change to how the form is
    assembled shows here before it shows as a different optimum."""

    def test_att_13_20(self, att_instance_13_20):
        form = compile_fmssm(att_instance_13_20, require_full_recovery=True).form
        assert form.a_ub.shape == (6247, 2469)
        assert form_digest(form) == (
            "c0b6c476fbcba803b560dcd249d1080a017aee1a3e828732d66e299b36a488d8"
        )

    def test_wan72_two_failures(self):
        from test_grounding_index import wan72_context

        context = wan72_context()
        sites = context.plane.controller_ids
        instance = context.instance(FailureScenario(frozenset(sites[:2])))
        form = compile_fmssm(instance, require_full_recovery=True).form
        assert form.a_ub.shape == (30461, 11214)
        assert form_digest(form) == (
            "44b00f6b9667306855f03eb7488fc11ce2ece3c60924e82475481bf4bf0179fe"
        )


class TestOptimalRoutes:
    def test_seeded_equals_cold_on_small_sweep(self, small_context):
        for scenario in enumerate_failure_scenarios(small_context.plane, 1):
            instance = small_context.instance(scenario)
            cold = solve_optimal(instance, time_limit_s=60, warm_start=None)
            seeded = solve_optimal(instance, time_limit_s=60)
            assert cold.feasible == seeded.feasible
            if not cold.feasible:
                continue
            verify_solution(instance, seeded, enforce_delay=True)
            # Bit-identical canonical objectives across routes.
            assert cold.meta["objective"] == seeded.meta["objective"]
            ec = evaluate_solution(instance, cold)
            es = evaluate_solution(instance, seeded)
            assert ec.least_programmability == es.least_programmability
            assert ec.total_programmability == es.total_programmability

    def test_certificate_is_exact_when_claimed(self, tiny_instance):
        seeded = solve_optimal(tiny_instance, warm_start="pm")
        cold = solve_optimal(tiny_instance, warm_start=None)
        assert seeded.meta["certificate"]
        assert seeded.meta["objective"] == cold.meta["objective"]
        assert seeded.meta["objective"] == optimum(tiny_instance).objective

    def test_cold_sparse_still_optimal(self, tiny_instance):
        cold = solve_optimal(tiny_instance, warm_start=None)
        assert cold.meta["objective"] == optimum(tiny_instance).objective
        assert cold.meta["certificate"] is False
        assert cold.meta["solver"] == "highs"

    def test_infeasible_matches_across_routes(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        assert optimum(instance, require_full_recovery=True) is None
        for warm_start in ("pm", None):
            solution = solve_optimal(
                instance, require_full_recovery=True, warm_start=warm_start
            )
            assert not solution.feasible
            assert solution.meta["status"] == "infeasible"

    def test_unknown_route_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            solve_optimal(tiny_instance, warm_start="turbo")


class TestEmbedExtract:
    def test_pm_embed_roundtrip(self, small_instance):
        compiled = compile_fmssm(small_instance)
        pm = solve_pm(small_instance, enforce_delay=True)
        x = compiled.embed_solution(pm)
        assert x is not None
        assert compiled.is_feasible_point(x)
        placement = compiled.extract(x)
        assert placement.mapping() == pm.mapping
        assert placement.sdn_pairs() == set(pm.active_pairs())
        assert not placement.moved().any()
        evaluation = evaluate_solution(small_instance, pm)
        assert compiled.objective_value(x) == pytest.approx(evaluation.objective)

    def test_embed_rejects_full_recovery_violations(self):
        instance = make_tiny_instance(spare={100: 1, 200: 0})
        compiled = compile_fmssm(instance, require_full_recovery=True)
        pm = solve_pm(instance)
        # PM's partial recovery cannot satisfy r >= 1; the embed refuses.
        assert compiled.embed_solution(pm) is None
