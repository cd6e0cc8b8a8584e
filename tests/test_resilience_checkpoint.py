"""Checkpoint/resume tests: a killed sweep resumes bit-identically.

The interruption is produced by the fault injector: ``raise-error`` at
the ``sweep.checkpoint`` site fires *after* the Nth checkpoint write, so
the file on disk is exactly what a sweep killed mid-flight leaves
behind.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.control.failures import FailureScenario
from repro.exceptions import ChaosError, CheckpointError
from repro.experiments.scenarios import custom_context, default_att_context
from repro.perf.sweep import parallel_sweep
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    SweepCheckpoint,
    solution_from_json,
    solution_to_json,
    sweep_fingerprint,
)
from repro.topology.generators import ring_topology

ALGORITHMS = ("optimal", "pm", "retroflow")


@pytest.fixture(scope="module")
def sweep_context():
    return custom_context(
        ring_topology(10, chords=5, seed=7),
        controller_sites=(0, 3, 7),
        capacity=160,
    )


@pytest.fixture(scope="module")
def sweep_scenarios():
    return tuple(FailureScenario(frozenset({c})) for c in (0, 3, 7))


@pytest.fixture(scope="module")
def uninterrupted(sweep_context, sweep_scenarios):
    return parallel_sweep(
        sweep_context, sweep_scenarios, ALGORITHMS,
        max_workers=1, optimal_time_limit_s=60.0,
    )


def assert_bit_identical(expected, actual):
    """Everything except wall clocks must match exactly (no tolerances)."""
    assert len(expected) == len(actual)
    for exp, act in zip(expected, actual):
        assert exp.scenario == act.scenario
        assert sorted(exp.solutions) == sorted(act.solutions)
        for name, exp_sol in exp.solutions.items():
            act_sol = act.solutions[name]
            assert exp_sol.algorithm == act_sol.algorithm
            assert exp_sol.mapping == act_sol.mapping
            assert exp_sol.sdn_pairs == act_sol.sdn_pairs
            assert exp_sol.pair_controller == act_sol.pair_controller
            assert exp_sol.load_override == act_sol.load_override
            assert exp_sol.extra_overhead_ms == act_sol.extra_overhead_ms
            assert exp_sol.feasible == act_sol.feasible
            assert exp_sol.meta == act_sol.meta
            exp_eval = dataclasses.asdict(exp.evaluations[name])
            act_eval = dataclasses.asdict(act.evaluations[name])
            exp_eval.pop("solve_time_s", None)
            act_eval.pop("solve_time_s", None)
            assert exp_eval == act_eval


class TestFingerprint:
    def test_deterministic(self):
        a = sweep_fingerprint(["(3,)", "(7,)"], ("optimal", "pm"), 300.0)
        b = sweep_fingerprint(["(3,)", "(7,)"], ("optimal", "pm"), 300.0)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario_keys": ["(3,)"]},
            {"algorithms": ("pm",)},
            {"optimal_time_limit_s": 10.0},
        ],
    )
    def test_sensitive_to_identity(self, kwargs):
        base = dict(
            scenario_keys=["(3,)", "(7,)"],
            algorithms=("optimal", "pm"),
            optimal_time_limit_s=300.0,
        )
        assert sweep_fingerprint(**base) != sweep_fingerprint(**{**base, **kwargs})


class TestSolutionJson:
    def test_round_trip_is_exact(self, uninterrupted):
        for result in uninterrupted:
            for solution in result.solutions.values():
                payload = json.loads(json.dumps(solution_to_json(solution)))
                restored = solution_from_json(payload)
                assert restored.algorithm == solution.algorithm
                assert restored.mapping == solution.mapping
                assert restored.sdn_pairs == solution.sdn_pairs
                assert restored.pair_controller == solution.pair_controller
                assert restored.load_override == solution.load_override
                assert restored.solve_time_s == solution.solve_time_s
                assert restored.feasible == solution.feasible
                assert restored.meta == solution.meta


class TestCheckpointFile:
    def test_missing_file_loads_empty(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "missing.json", "abc")
        assert checkpoint.load() == {}

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            SweepCheckpoint(path, "abc").load()

    def test_wrong_fingerprint_raises(self, tmp_path):
        path = tmp_path / "cp.json"
        SweepCheckpoint(path, "fp-one").save({})
        with pytest.raises(CheckpointError, match="different sweep"):
            SweepCheckpoint(path, "fp-two").load()

    def test_clear_is_idempotent(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "cp.json", "abc")
        checkpoint.clear()
        checkpoint.save({})
        checkpoint.clear()
        assert not checkpoint.path.exists()


class TestResume:
    def test_interrupted_sweep_resumes_bit_identically(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        path = tmp_path / "sweep-checkpoint.json"
        # Abort after the second checkpoint write: two scenarios persisted,
        # one still missing — exactly a sweep killed mid-flight.
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=2)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                    checkpoint_path=path, checkpoint_every=1,
                )
        assert path.exists()
        persisted = json.loads(path.read_text(encoding="utf-8"))
        assert persisted["n_completed"] == 2

        resumed = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=1, optimal_time_limit_s=60.0,
            checkpoint_path=path, checkpoint_every=1,
        )
        assert_bit_identical(uninterrupted, resumed)
        # The restored scenarios say where they came from.
        restored = [
            r for r in resumed
            if any(e.action == "restore" for e in r.degradation.events)
        ]
        assert len(restored) == 2
        # A completed sweep leaves no checkpoint behind.
        assert not path.exists()

    def test_resume_against_different_sweep_raises(
        self, sweep_context, sweep_scenarios, tmp_path
    ):
        path = tmp_path / "sweep-checkpoint.json"
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=1)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                    checkpoint_path=path, checkpoint_every=1,
                )
        with pytest.raises(CheckpointError, match="different sweep"):
            parallel_sweep(
                sweep_context, sweep_scenarios, ("pm", "retroflow"),
                max_workers=1, checkpoint_path=path,
            )

    @pytest.mark.parametrize("capacity", [900, 420])
    def test_resume_on_a_different_network_raises(self, capacity, tmp_path):
        """A checkpoint written for one network never resumes on another.

        The same scenario names over a re-provisioned ATT once restored
        the first network's PM plans (at capacity 900: plans that differ
        from a fresh solve; at 420: a crash in the evaluator, since the
        restored loads exceed the new spare capacity)."""
        scenarios = tuple(FailureScenario(frozenset({c})) for c in (2, 5, 6))
        path = tmp_path / "att-checkpoint.json"
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=1)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    default_att_context(), scenarios, ("pm",),
                    max_workers=1, checkpoint_path=path, checkpoint_every=1,
                )
        assert json.loads(path.read_text(encoding="utf-8"))["n_completed"] == 1
        with pytest.raises(CheckpointError, match="different sweep"):
            parallel_sweep(
                default_att_context(capacity=capacity), scenarios, ("pm",),
                max_workers=1, checkpoint_path=path, checkpoint_every=1,
            )

    def test_fully_checkpointed_sweep_returns_without_solving(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        path = tmp_path / "sweep-checkpoint.json"
        # Persist everything, aborting on the final checkpoint write.
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=3)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                    checkpoint_path=path, checkpoint_every=1,
                )
        # Any solver call now would be a bug: every task is restorable.
        with chaos.inject(
            chaos.Fault("optimal.solve", "raise-error", count=None),
            chaos.Fault("sweep.task", "raise-error", count=None),
        ):
            resumed = parallel_sweep(
                sweep_context, sweep_scenarios, ALGORITHMS,
                max_workers=1, optimal_time_limit_s=60.0,
                checkpoint_path=path, checkpoint_every=1,
            )
        assert_bit_identical(uninterrupted, resumed)

    def test_checkpoint_works_with_pool(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        path = tmp_path / "pool-checkpoint.json"
        results = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=2, optimal_time_limit_s=60.0,
            checkpoint_path=path, checkpoint_every=1,
        )
        assert_bit_identical(uninterrupted, results)
        assert not path.exists()


class TestShmResume:
    """The transport is not part of the checkpoint identity."""

    def test_interrupted_shm_sweep_resumes(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        from repro.perf import shm

        path = tmp_path / "shm-checkpoint.json"
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=1)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                    checkpoint_path=path, checkpoint_every=1,
                    transport="shm",
                )
        assert shm.active_segments() == ()
        resumed = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=2, optimal_time_limit_s=60.0,
            checkpoint_path=path, checkpoint_every=1,
            transport="shm",
        )
        assert_bit_identical(uninterrupted, resumed)
        assert shm.active_segments() == ()
        assert not path.exists()

    def test_checkpoint_written_under_pickle_resumes_under_shm(
        self, sweep_context, sweep_scenarios, uninterrupted, tmp_path
    ):
        path = tmp_path / "cross-transport.json"
        with chaos.inject(
            chaos.Fault("sweep.checkpoint", "raise-error", at_call=1)
        ):
            with pytest.raises(ChaosError):
                parallel_sweep(
                    sweep_context, sweep_scenarios, ALGORITHMS,
                    max_workers=1, optimal_time_limit_s=60.0,
                    checkpoint_path=path, checkpoint_every=1,
                    transport="pickle",
                )
        resumed = parallel_sweep(
            sweep_context, sweep_scenarios, ALGORITHMS,
            max_workers=1, optimal_time_limit_s=60.0,
            checkpoint_path=path, checkpoint_every=1,
            transport="shm",
        )
        assert_bit_identical(uninterrupted, resumed)


class TestResultMetaRoundTrip:
    def test_meta_survives_checkpoint_round_trip(self, sweep_context, uninterrupted):
        from repro.resilience.checkpoint import result_from_json, result_to_json

        result = uninterrupted[0]
        result.meta["fanout"] = {"transport": "shm", "payload_bytes": 123}
        payload = json.loads(json.dumps(result_to_json(result)))
        restored = result_from_json(sweep_context, result.scenario, payload)
        assert restored.meta == result.meta

    def test_legacy_payload_without_meta_restores_empty(
        self, sweep_context, uninterrupted
    ):
        from repro.resilience.checkpoint import result_from_json, result_to_json

        result = uninterrupted[1]
        payload = result_to_json(result)
        payload.pop("meta", None)
        restored = result_from_json(sweep_context, result.scenario, payload)
        assert restored.meta == {}
