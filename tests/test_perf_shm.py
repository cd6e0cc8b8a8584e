"""Tests for the zero-copy shared-memory transport (repro.perf.shm)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.perf.coefficients import CoefficientArrays, CoefficientTable
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


def _tiny_table() -> CoefficientTable:
    from repro.flows.demands import all_pairs_flows
    from repro.routing.path_count import make_counter
    from repro.topology.generators import grid_topology

    topology = grid_topology(3, 3)
    counter = make_counter(topology)
    flows = all_pairs_flows(topology)
    return CoefficientTable.from_counter(counter, flows)


def test_coefficient_arrays_round_trip_via_shm():
    table = _tiny_table()
    arrays = CoefficientArrays.from_table(table)
    payload, lease = dumps_shared(arrays)
    assert payload.segment is not None
    rebuilt = loads_shared(payload).to_table()
    assert rebuilt._flows == table._flows
    assert rebuilt._p == table._p
    assert rebuilt._pbar == table._pbar
    assert rebuilt._programmable_at == table._programmable_at
    assert rebuilt._max_pro == table._max_pro
    lease.release()
