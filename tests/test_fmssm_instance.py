"""Tests for FMSSMInstance validation and derived quantities."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.fmssm.instance import FMSSMInstance
from conftest import make_tiny_instance


def dict_route(instance: FMSSMInstance, **changes) -> FMSSMInstance:
    """``instance`` rebuilt through the dataclass constructor, with ``changes``."""
    kwargs = {f.name: getattr(instance, f.name) for f in fields(instance) if f.init}
    return FMSSMInstance(**{**kwargs, **changes})


def array_route(instance: FMSSMInstance, ideal_delay_ms=None, lam=None, **columns):
    """Grounded ``instance`` rebuilt through :meth:`FMSSMInstance.from_arrays`,
    with ``columns`` of its arrays replaced."""
    flows, positions = instance.__dict__["_flow_source"]
    return FMSSMInstance.from_arrays(
        replace(instance.arrays(), **columns),
        ideal_delay_ms=instance.ideal_delay_ms if ideal_delay_ms is None else ideal_delay_ms,
        lam=instance.lam if lam is None else lam,
        flows=flows,
        flow_positions=positions,
        pair_path_pos=instance.__dict__["_pair_path_pos"],
    )


class TestDerived:
    def test_dimensions(self, tiny_instance):
        assert tiny_instance.n_switches == 2
        assert tiny_instance.n_controllers == 2
        assert tiny_instance.n_flows == 3

    def test_pairs_sorted(self, tiny_instance):
        assert tiny_instance.pairs == (
            (1, (10, 11)),
            (1, (10, 12)),
            (2, (10, 12)),
            (2, (11, 12)),
        )

    def test_pairs_at_and_of(self, tiny_instance):
        assert tiny_instance.pairs_at[1] == ((10, 11), (10, 12))
        assert tiny_instance.pairs_of[(10, 12)] == (1, 2)

    def test_all_flows_recoverable_in_tiny(self, tiny_instance):
        assert tiny_instance.recoverable_flows == ((10, 11), (10, 12), (11, 12))
        assert tiny_instance.unrecoverable_flows == ()

    def test_max_programmability(self, tiny_instance):
        assert tiny_instance.max_programmability((10, 12)) == 5
        assert tiny_instance.max_programmability((10, 11)) == 2

    def test_total_max_programmability(self, tiny_instance):
        assert tiny_instance.total_max_programmability() == 11

    def test_total_iterations_is_max_offline_switches_per_flow(self, tiny_instance):
        assert tiny_instance.total_iterations == 2

    def test_total_spare(self, tiny_instance):
        assert tiny_instance.total_spare == 4

    def test_describe(self, tiny_instance):
        text = tiny_instance.describe()
        assert "N=2" in text and "M=2" in text and "L=3" in text


class TestValidation:
    def test_missing_delay_rejected(self):
        with pytest.raises(ModelError, match="missing delay"):
            instance = make_tiny_instance()
            from repro.fmssm.instance import FMSSMInstance

            FMSSMInstance(
                switches=instance.switches,
                controllers=instance.controllers,
                spare=instance.spare,
                delay={(1, 100): 1.0},
                flows=instance.flows,
                pbar=instance.pbar,
                gamma=instance.gamma,
                ideal_delay_ms=instance.ideal_delay_ms,
                lam=instance.lam,
                nearest=instance.nearest,
            )

    def test_negative_spare_rejected(self):
        with pytest.raises(ModelError, match="negative spare"):
            make_tiny_instance(spare={100: -1, 200: 2})

    def test_pbar_below_two_rejected(self):
        instance = make_tiny_instance()
        from repro.fmssm.instance import FMSSMInstance

        bad_pbar = dict(instance.pbar)
        bad_pbar[(1, (10, 11))] = 1
        with pytest.raises(ModelError, match="pbar"):
            FMSSMInstance(
                switches=instance.switches,
                controllers=instance.controllers,
                spare=instance.spare,
                delay=instance.delay,
                flows=instance.flows,
                pbar=bad_pbar,
                gamma=instance.gamma,
                ideal_delay_ms=instance.ideal_delay_ms,
                lam=instance.lam,
                nearest=instance.nearest,
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ModelError, match="lambda"):
            make_tiny_instance(lam=-0.1)

    def test_unknown_pbar_switch_rejected(self):
        instance = make_tiny_instance()
        from repro.fmssm.instance import FMSSMInstance

        bad_pbar = dict(instance.pbar)
        bad_pbar[(7, (10, 11))] = 2
        with pytest.raises(ModelError, match="non-offline"):
            FMSSMInstance(
                switches=instance.switches,
                controllers=instance.controllers,
                spare=instance.spare,
                delay=instance.delay,
                flows=instance.flows,
                pbar=bad_pbar,
                gamma=instance.gamma,
                ideal_delay_ms=instance.ideal_delay_ms,
                lam=instance.lam,
                nearest=instance.nearest,
            )

    def test_att_instance_sane(self, att_instance_13_20):
        instance = att_instance_13_20
        assert instance.n_switches == 7
        assert instance.n_controllers == 4
        assert instance.n_flows > 300
        assert instance.total_iterations >= 2
        # Every pair references an offline switch and an offline flow.
        for switch, flow_id in instance.pairs:
            assert switch in instance.switches
            assert flow_id in instance.flows


class TestValidationGaps:
    """Faults the constructor once let through to a bare ``KeyError``
    (or to silently wrong numbers) in the solvers."""

    def test_spare_missing_a_controller_rejected(self):
        with pytest.raises(ModelError, match="missing spare for controller 200"):
            make_tiny_instance(spare={100: 2})

    def test_gamma_missing_a_switch_rejected(self, tiny_instance):
        with pytest.raises(ModelError, match="missing gamma for switch 2"):
            dict_route(tiny_instance, gamma={1: 2})

    def test_negative_gamma_rejected(self, tiny_instance):
        with pytest.raises(ModelError, match="negative gamma for switch 2"):
            dict_route(tiny_instance, gamma={1: 2, 2: -1})

    def test_nearest_missing_a_switch_rejected(self, tiny_instance):
        with pytest.raises(ModelError, match="missing nearest controller for switch 2"):
            dict_route(tiny_instance, nearest={1: 100})

    def test_nearest_naming_an_inactive_controller_rejected(self, tiny_instance):
        with pytest.raises(ModelError, match="nearest controller 300 of switch 2"):
            dict_route(tiny_instance, nearest={1: 100, 2: 300})

    def test_negative_ideal_delay_rejected(self):
        with pytest.raises(ModelError, match="ideal_delay_ms must be >= 0"):
            make_tiny_instance(ideal_delay_ms=-1.0)


class TestArrayRoute:
    def test_round_trip(self, small_instance):
        assert array_route(small_instance) == small_instance

    def test_columns_must_cover_the_instance(self, small_instance):
        arrays = small_instance.arrays()
        for name in ("spare", "gamma", "delay", "delay_order"):
            with pytest.raises(ModelError, match=f"{name} has shape"):
                array_route(small_instance, **{name: getattr(arrays, name)[:-1]})

    @pytest.mark.parametrize("fault", ["delay", "spare", "gamma", "pbar", "lam", "ideal"])
    def test_same_message_as_the_dict_route(self, small_instance, fault):
        arrays = small_instance.arrays()
        switch, controller = small_instance.switches[-1], small_instance.controllers[-1]
        pair = small_instance.pairs[-1]
        if fault == "delay":
            delay = arrays.delay.copy()
            delay[-1, -1] = -1.0
            changed = {"delay": delay}
            dict_changes = {"delay": {**small_instance.delay, (switch, controller): -1.0}}
        elif fault == "spare":
            spare = arrays.spare.copy()
            spare[-1] = -3
            changed = {"spare": spare}
            dict_changes = {"spare": {**small_instance.spare, controller: -3}}
        elif fault == "gamma":
            gamma = arrays.gamma.copy()
            gamma[-1] = -2
            changed = {"gamma": gamma}
            dict_changes = {"gamma": {**small_instance.gamma, switch: -2}}
        elif fault == "pbar":
            pbar = arrays.pair_pbar.copy()
            pbar[-1] = 1
            changed = {"pair_pbar": pbar}
            dict_changes = {"pbar": {**small_instance.pbar, pair: 1}}
        elif fault == "lam":
            changed = {"lam": -0.5}
            dict_changes = {"lam": -0.5}
        else:
            changed = {"ideal_delay_ms": -2.5}
            dict_changes = {"ideal_delay_ms": -2.5}
        with pytest.raises(ModelError) as dict_error:
            dict_route(small_instance, **dict_changes)
        with pytest.raises(ModelError) as array_error:
            array_route(small_instance, **changed)
        assert str(array_error.value) == str(dict_error.value)
        assert "np." not in str(array_error.value)

    def test_dict_views_match_the_arrays(self, small_instance):
        rebuilt = dict_route(small_instance)
        assert list(rebuilt.pbar.items()) == list(small_instance.pbar.items())
        for name in ("pair_switch", "pair_flow", "pair_pbar", "delay", "recoverable_pos"):
            assert np.array_equal(
                getattr(rebuilt.arrays(), name), getattr(small_instance.arrays(), name)
            ), name
