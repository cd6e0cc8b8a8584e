"""Property-based tests of the FMSSM exact solvers.

Random tiny instances are generated directly (switches, controllers,
flows, p̄ values) so the solver checks explore corners the
topology-driven generators never reach (zero budgets, single
controllers, disconnected flows).  ``tests/test_fmssm_oracle.py`` holds
the exact solvers to the exhaustive oracle on the same instances.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flows.flow import Flow
from repro.fmssm.evaluation import evaluate_solution, verify_solution
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.optimal import solve_optimal
from repro.fmssm.two_stage import solve_two_stage
from repro.pm.algorithm import solve_pm

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tiny_instances(draw):
    """Random 2-3 switch, 1-2 controller, 2-4 flow instances.

    Flows are synthetic paths through a virtual line topology: flow l
    runs ``(100+l) -> switches... -> (200+l)`` so paths are always valid
    and distinct.
    """
    n_switches = draw(st.integers(min_value=2, max_value=3))
    switches = tuple(range(1, n_switches + 1))
    n_controllers = draw(st.integers(min_value=1, max_value=2))
    controllers = tuple(100 * (j + 1) for j in range(n_controllers))
    n_flows = draw(st.integers(min_value=2, max_value=4))

    flows = {}
    pbar = {}
    for l in range(n_flows):
        # Each flow crosses a random non-empty subset of switches in order.
        crossed = sorted(
            draw(
                st.sets(
                    st.sampled_from(switches), min_size=1, max_size=n_switches
                )
            )
        )
        path = (1000 + l, *crossed, 2000 + l)
        flow = Flow(1000 + l, 2000 + l, path)
        flows[flow.flow_id] = flow
        for switch in crossed:
            if draw(st.booleans()):
                pbar[(switch, flow.flow_id)] = draw(st.integers(2, 6))

    spare = {c: draw(st.integers(0, 5)) for c in controllers}
    delay = {
        (s, c): float(draw(st.integers(1, 9)))
        for s in switches
        for c in controllers
    }
    gamma = {s: sum(1 for f in flows.values() if s in f.path) for s in switches}
    nearest = {
        s: min(controllers, key=lambda c: (delay[(s, c)], c)) for s in switches
    }
    ideal = float(draw(st.integers(20, 200)))
    return FMSSMInstance(
        switches=switches,
        controllers=controllers,
        spare=spare,
        delay=delay,
        flows=flows,
        pbar=pbar,
        gamma=gamma,
        ideal_delay_ms=ideal,
        lam=0.001,
        nearest=nearest,
    )


class TestExactSolverProperties:
    @SETTINGS
    @given(tiny_instances())
    def test_two_stage_matches_weighted(self, instance):
        weighted = solve_optimal(instance, require_full_recovery=False)
        lexicographic = solve_two_stage(instance, require_full_recovery=False)
        ew = evaluate_solution(instance, weighted, enforce_delay=True)
        el = evaluate_solution(instance, lexicographic, enforce_delay=True)
        assert ew.least_programmability == el.least_programmability
        assert ew.total_programmability == el.total_programmability

    @SETTINGS
    @given(tiny_instances())
    def test_pm_strict_never_beats_optimal(self, instance):
        optimal = solve_optimal(instance, require_full_recovery=False)
        pm = solve_pm(instance, enforce_delay=True)
        eo = evaluate_solution(instance, optimal, enforce_delay=True)
        ep = evaluate_solution(instance, pm, enforce_delay=True)
        assert ep.objective <= eo.objective + 1e-9

    @SETTINGS
    @given(tiny_instances())
    def test_solutions_verify(self, instance):
        for solution in (
            solve_optimal(instance, require_full_recovery=False),
            solve_pm(instance, enforce_delay=True),
        ):
            verify_solution(instance, solution, enforce_delay=True)

    @SETTINGS
    @given(tiny_instances())
    def test_total_bounded_by_budget_value(self, instance):
        """Total programmability never exceeds what the budget can buy."""
        optimal = solve_optimal(instance, require_full_recovery=False)
        evaluation = evaluate_solution(instance, optimal, enforce_delay=True)
        best_pairs = sorted(instance.pbar.values(), reverse=True)
        budget = min(instance.total_spare, len(best_pairs))
        assert evaluation.total_programmability <= sum(best_pairs[:budget])
