"""Tests for the zero-copy shared-memory transport (repro.perf.shm)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.perf.shm import (
    FanoutStats,
    SharedPayload,
    active_segments,
    dumps_shared,
    loads_shared,
    release_all,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform without POSIX shared memory"
)


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave the segment registry empty."""
    yield
    leaked = active_segments()
    release_all()
    assert leaked == (), f"leaked shared-memory segments: {leaked}"


def test_round_trip_arrays():
    obj = {
        "a": np.arange(1000, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 500),
        "label": "payload",
    }
    payload, lease = dumps_shared(obj)
    assert lease is not None
    assert payload.segment is not None
    assert payload.shared_bytes == 1000 * 8 + 500 * 8
    # The big buffers left the in-band stream.
    assert payload.inband_bytes < 2000

    back = loads_shared(payload)
    assert back["label"] == "payload"
    np.testing.assert_array_equal(back["a"], obj["a"])
    np.testing.assert_array_equal(back["b"], obj["b"])
    lease.release()


def test_reconstructed_arrays_are_readonly_views():
    obj = {"a": np.arange(64, dtype=np.int64)}
    payload, lease = dumps_shared(obj)
    back = loads_shared(payload)
    assert back["a"].flags.writeable is False
    with pytest.raises((ValueError, TypeError)):
        back["a"][0] = 99
    lease.release()


def test_fallback_without_buffers():
    payload, lease = dumps_shared({"just": "strings", "n": 42})
    assert lease is None
    assert payload.segment is None
    assert loads_shared(payload) == {"just": "strings", "n": 42}


def test_fallback_on_unpicklable_is_not_taken_silently():
    # Protocol-5 failure falls back to plain pickle, which raises the
    # caller-visible error — dumps_shared never swallows it into a bad
    # payload.
    with pytest.raises(Exception):
        dumps_shared({"f": lambda: None})


def test_lease_release_is_idempotent():
    payload, lease = dumps_shared({"a": np.ones(16)})
    name = payload.segment
    assert name in active_segments()
    lease.release()
    assert name not in active_segments()
    lease.release()  # second release is a no-op


def test_active_segments_and_release_all():
    _, lease1 = dumps_shared({"a": np.ones(8)})
    _, lease2 = dumps_shared({"b": np.ones(8)})
    assert len(active_segments()) == 2
    release_all()
    assert active_segments() == ()
    lease1.release()
    lease2.release()


def test_loads_after_release_fails_cleanly():
    payload, lease = dumps_shared({"a": np.ones(8)})
    lease.release()
    with pytest.raises(FileNotFoundError):
        loads_shared(payload)


def test_shared_payload_is_picklable():
    payload, lease = dumps_shared({"a": np.arange(32)})
    clone = pickle.loads(pickle.dumps(payload))
    assert clone == payload
    back = loads_shared(clone)
    np.testing.assert_array_equal(back["a"], np.arange(32))
    lease.release()


def test_fanout_stats_report_a_shared_payload():
    payload, lease = dumps_shared({"a": np.arange(256)})
    stats = FanoutStats(
        transport="shm",
        payload_bytes=payload.inband_bytes,
        shared_bytes=payload.shared_bytes,
    )
    assert stats.shared_bytes == 256 * 8
    assert stats.encode_s == stats.worker_init_s == 0.0
    assert set(stats.to_dict()) == {
        "transport", "payload_bytes", "shared_bytes", "encode_s", "worker_init_s",
    }
    lease.release()


def test_plain_payload_round_trip_equality():
    payload = SharedPayload(inband=pickle.dumps([1, 2, 3]))
    assert payload.segment is None
    assert payload.shared_bytes == 0
    assert loads_shared(payload) == [1, 2, 3]


def _tiny_context():
    from repro.experiments.scenarios import custom_context
    from repro.topology.generators import grid_topology

    return custom_context(grid_topology(3, 3), controller_sites=(0, 8), capacity=200)


def _shm_round_trip(context):
    """``context`` rebuilt from its array form sent through shared memory,
    and the lease on the segment its arrays view."""
    from repro.perf.executor import _slim_context

    payload, lease = dumps_shared(_slim_context(context))
    assert payload.segment is not None
    return loads_shared(payload).rebuild_context(), lease


def test_grounding_index_round_trip_via_shm():
    from repro.control.failures import enumerate_failure_scenarios

    context = _tiny_context()
    rebuilt, lease = _shm_round_trip(context)
    assert rebuilt._grounding is not None
    assert rebuilt.flows == context.flows
    for scenario in enumerate_failure_scenarios(context.plane, 1):
        assert rebuilt.instance(scenario) == context.instance(scenario)
    lease.release()


def test_rebuilt_index_entries_equal():
    context = _tiny_context()
    rebuilt, lease = _shm_round_trip(context)
    assert [f.flow_id for f in rebuilt.flows] == [f.flow_id for f in context.flows]  # same order
    indptr, entries = rebuilt._grounding.packed_entries()
    expected_indptr, expected_entries = context.materialize_table().packed_entries()
    assert np.array_equal(indptr, expected_indptr)
    assert np.array_equal(entries, expected_entries)
    lease.release()


def test_rebuilt_index_yields_python_ints():
    from repro.control.failures import enumerate_failure_scenarios

    context = _tiny_context()
    rebuilt, lease = _shm_round_trip(context)
    assert all(type(node) is int for flow in rebuilt.flows for node in flow.path)
    for scenario in enumerate_failure_scenarios(context.plane, 1):
        pbar = rebuilt.instance(scenario).pbar
        assert all(type(s) is int and type(v) is int for (s, _), v in pbar.items())
    lease.release()


def test_grounding_from_rebuilt_index_identical():
    from repro.control.failures import FailureScenario
    from repro.experiments.scenarios import default_att_context

    context = default_att_context()
    rebuilt, lease = _shm_round_trip(context)
    scenario = FailureScenario(frozenset({2, 22}))
    want, got = context.instance(scenario), rebuilt.instance(scenario)
    assert got == want
    assert list(got.pbar.items()) == list(want.pbar.items())
    assert got.flows == want.flows
    assert got.gamma == want.gamma
    assert got.ideal_delay_ms == want.ideal_delay_ms
    lease.release()


def test_slim_context_rejects_non_integer_node_ids():
    # The executor then ships the context by pickle instead.
    from repro.flows.flow import Flow
    from repro.perf.executor import _slim_context

    context = _tiny_context()
    context.flows = [Flow("a", "b", ("a", "m", "b")), *context.flows]
    with pytest.raises(TypeError, match="integer node ids"):
        _slim_context(context)


_OWN_SEGMENT_CHILD = r"""
import numpy as np

from repro.perf.shm import dumps_shared, loads_shared

payload, lease = dumps_shared({"a": np.arange(100)})
assert loads_shared(payload)["a"].sum() == 4950
lease.release()
"""


def test_loading_own_segment_leaves_tracker_quiet():
    """Loading a payload in the process that created its segment keeps the
    segment's tracker registration, so the unlink on release does not
    make the resource tracker print a ``KeyError``.  Runs in a fresh
    interpreter: the tracker writes to that process's stderr."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _OWN_SEGMENT_CHILD],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    assert "KeyError" not in out.stderr, out.stderr
