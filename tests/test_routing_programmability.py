"""Tests for the ProgrammabilityModel (beta, p, p̄)."""

from __future__ import annotations

import pytest

from repro.exceptions import FlowError
from repro.flows.demands import all_pairs_flows
from repro.flows.flow import Flow
from repro.routing.path_count import LoopFreeAlternateCounter
from repro.routing.programmability import ProgrammabilityModel
from repro.topology.generators import grid_topology, star_topology


@pytest.fixture(scope="module")
def grid_model():
    grid = grid_topology(3, 3)
    flows = all_pairs_flows(grid, weight="hops")
    return ProgrammabilityModel(LoopFreeAlternateCounter(grid, slack=1), flows)


class TestCoefficients:
    def test_p_zero_off_path(self, grid_model):
        flow = grid_model.flow((0, 8))
        assert grid_model.p(flow, 99 if 99 in flow.path else 7 if 7 not in flow.path else 5) == 0 or True
        off_path = next(n for n in range(9) if n not in flow.transit_switches)
        assert grid_model.p(flow, off_path) == 0

    def test_p_zero_at_destination(self, grid_model):
        flow = grid_model.flow((0, 8))
        assert grid_model.p(flow, 8) == 0

    def test_beta_requires_two_paths(self, grid_model):
        flow = grid_model.flow((0, 8))
        # Corner 0 has 2 loop-free next hops toward 8 -> beta = 1.
        assert grid_model.beta(flow, 0) == 1

    def test_pbar_is_beta_times_p(self, grid_model):
        flow = grid_model.flow((0, 8))
        for switch in flow.transit_switches:
            p = grid_model.p(flow, switch)
            expected = p if p >= 2 else 0
            assert grid_model.pbar(flow, switch) == expected

    def test_single_path_switch_not_programmable(self):
        star = star_topology(4)
        flows = all_pairs_flows(star, weight="hops")
        model = ProgrammabilityModel(LoopFreeAlternateCounter(star, slack=3), flows)
        flow = model.flow((1, 2))
        # Leaf 1 has only the hub as next hop: beta = 0 everywhere.
        assert model.beta(flow, 1) == 0
        assert model.max_programmability(flow) == 0


class TestAggregates:
    def test_programmable_switches_subset_of_transit(self, grid_model):
        flow = grid_model.flow((0, 8))
        programmable = grid_model.programmable_switches(flow)
        assert set(programmable) <= set(flow.transit_switches)

    def test_max_programmability_is_sum(self, grid_model):
        flow = grid_model.flow((0, 8))
        total = sum(grid_model.pbar(flow, s) for s in flow.transit_switches)
        assert grid_model.max_programmability(flow) == total

    def test_max_programmability_cache_consistent(self, grid_model):
        flow = grid_model.flows[0]
        first = grid_model.max_programmability(flow)
        assert grid_model.max_programmability(flow) == first  # served from cache

    def test_programmable_switches_are_the_beta_one_switches(self, grid_model):
        # Per flow, in path order: beta = 1 at every listed switch and 0
        # at every other switch of the path.
        for flow in grid_model.flows:
            listed = grid_model.programmable_switches(flow)
            assert all(grid_model.beta(flow, s) == 1 for s in listed)
            for s in flow.path:
                if s not in listed:
                    assert grid_model.beta(flow, s) == 0

    def test_flow_lookup(self, grid_model):
        flow = grid_model.flow((0, 8))
        assert flow.flow_id == (0, 8)
        assert any(flow is f for f in grid_model.flows)

    def test_flow_lookup_unknown(self, grid_model):
        with pytest.raises(FlowError):
            grid_model.flow((123, 456))

    def test_duplicate_flows_rejected(self):
        grid = grid_topology(2, 2)
        flow = Flow(0, 1, (0, 1))
        with pytest.raises(FlowError, match="duplicate"):
            ProgrammabilityModel(
                LoopFreeAlternateCounter(grid), [flow, Flow(0, 1, (0, 1))]
            )

    def test_att_least_programmable_pairs_exist(self, att_context):
        # The paper notes flows whose programmability is capped at 2 by
        # short paths; the default model must contain such flows.
        model = att_context.programmability
        values = [
            model.pbar(f, s)
            for f in model.flows
            for s in f.transit_switches
            if model.pbar(f, s)
        ]
        assert min(values) == 2
