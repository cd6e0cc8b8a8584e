"""Zero-copy shared-memory transport for sweep fan-out.

The parallel sweep ships the experiment context to every pool worker.
The pickle route serializes the whole context — over a hundred
kilobytes with the flow population and the programmability model — and
every worker re-derives its own grounding index from it.  This module
moves the bulk of that payload out of band: the context's array form
(flows and the filled grounding index, see
:class:`~repro.perf.executor.ShmPlanData`) is
pickled with protocol 5, every numpy buffer it contains is diverted
into a single :mod:`multiprocessing.shared_memory` segment, and workers
reconstruct it from the small in-band remainder plus *read-only views
into the shared segment* — no per-worker copy of the big arrays.

:func:`dumps_shared` returns a :class:`SharedPayload` (small, picklable,
carried in every task header) plus a :class:`SegmentLease` the owner
must release once no worker can still attach.  :func:`loads_shared` is
its worker-side inverse.  When shared memory is unavailable — or the
payload carries no out-of-band buffers — the payload degrades to a
plain pickle transparently, so callers never need a platform switch.

Lifecycle guarantees (exercised by ``tests/test_perf_shm.py`` and the
chaos suites):

* every created segment is tracked in a parent-side registry
  (:func:`active_segments`) until its lease is released;
* :meth:`SegmentLease.release` is idempotent and safe after workers
  died mid-task (``kill-worker`` chaos) — the parent unlinks, the OS
  reclaims worker attachments with the processes;
* an ``atexit`` backstop unlinks anything a crashed sweep left behind,
  so killed runs do not leak ``/dev/shm`` entries between tests.

Worker attachments opt out of ``multiprocessing.resource_tracker``
tracking (``track=False`` on Python >= 3.13; a start-method-aware
unregister before that, see :func:`_untrack_attachment`): the creating
parent owns the segment's lifetime, and a worker-side tracker must
neither warn about nor unlink segments the parent manages.  An
attachment in the creating process itself keeps the registration: the
lease's unlink consumes it.
"""

from __future__ import annotations

import atexit
import pickle
from dataclasses import dataclass, field

__all__ = [
    "SharedPayload",
    "SegmentLease",
    "FanoutStats",
    "dumps_shared",
    "loads_shared",
    "shm_available",
    "active_segments",
    "release_all",
]


@dataclass(frozen=True)
class SharedPayload:
    """A pickled object split into an in-band part and shared buffers.

    ``inband`` is the protocol-5 pickle stream with every buffer
    diverted out of band; ``segment`` names the shared-memory segment
    holding those buffers back to back, at ``offsets`` (start, length)
    in emission order.  ``segment=None`` means the payload is a plain
    self-contained pickle (the fallback route).
    """

    inband: bytes
    segment: str | None = None
    offsets: tuple[tuple[int, int], ...] = ()

    @property
    def inband_bytes(self) -> int:
        """Size of the per-worker serialized payload."""
        return len(self.inband)

    @property
    def shared_bytes(self) -> int:
        """Total bytes parked in the shared segment (0 on the fallback)."""
        return sum(length for _, length in self.offsets)


class SegmentLease:
    """Parent-side ownership of one shared-memory segment.

    The parent creates the segment, hands its name to workers, and must
    call :meth:`release` once no worker can still attach — a
    :class:`~repro.perf.executor.SweepExecutor` does so after its pool
    has shut down, on every exit path.
    """

    def __init__(self, shm: object) -> None:
        self._shm = shm
        self.name: str = shm.name
        _LEASES[self.name] = self

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        _LEASES.pop(self.name, None)
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, OSError):  # already gone: fine
            pass


#: Parent-side registry of unreleased leases, keyed by segment name.
_LEASES: dict[str, SegmentLease] = {}

#: Worker-side attachments kept alive for the arrays aliasing them.
_ATTACHED: list[object] = []

#: Cached availability probe result.
_AVAILABLE: bool | None = None


def active_segments() -> tuple[str, ...]:
    """Names of segments this process created and has not yet released."""
    return tuple(sorted(_LEASES))


def release_all() -> None:
    """Release every outstanding lease (atexit backstop; idempotent)."""
    for lease in list(_LEASES.values()):
        lease.release()


atexit.register(release_all)


def _close_attachments() -> None:  # pragma: no cover - interpreter exit
    open_views = []
    for shm in _ATTACHED:
        try:
            shm.close()
        except BufferError:
            # Arrays still alias the mapping (a decoded grounding index
            # lives as long as the process); the OS unmaps it at exit.
            open_views.append(shm)
        except OSError:
            pass
    _ATTACHED[:] = open_views


atexit.register(_close_attachments)


def shm_available() -> bool:
    """Whether this platform supports POSIX shared memory (cached probe)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def _fallback_payload(obj: object) -> tuple[SharedPayload, None]:
    return (
        SharedPayload(inband=pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
        None,
    )


def dumps_shared(obj: object) -> tuple[SharedPayload, SegmentLease | None]:
    """Serialize ``obj`` with its buffers diverted into shared memory.

    Returns the payload and the parent's lease on the backing segment
    (``None`` when the fallback plain-pickle route was taken).  The
    caller owns the lease and must release it after the last worker has
    finished attaching — releasing only unlinks the name; workers that
    already attached keep their mappings until they exit.
    """
    if not shm_available():
        return _fallback_payload(obj)
    buffers: list[pickle.PickleBuffer] = []
    try:
        inband = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    except Exception:
        # Anything protocol 5 cannot handle falls back to the caller's
        # own error handling on the plain route.
        return _fallback_payload(obj)
    views = [buf.raw() for buf in buffers]
    total = sum(view.nbytes for view in views)
    if total == 0:
        return _fallback_payload(obj)

    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(create=True, size=total)
    except Exception:
        return _fallback_payload(obj)
    offsets: list[tuple[int, int]] = []
    cursor = 0
    for view in views:
        length = view.nbytes
        shm.buf[cursor : cursor + length] = view.cast("B")
        offsets.append((cursor, length))
        cursor += length
    lease = SegmentLease(shm)
    payload = SharedPayload(
        inband=inband, segment=shm.name, offsets=tuple(offsets)
    )
    return payload, lease


def _untrack_attachment(shm: object) -> None:
    """Undo the resource-tracker registration an attach performs (< 3.13).

    On spawn-start platforms every worker runs its own tracker daemon,
    which would unlink the parent's segment when the worker exits —
    unregistering prevents that.  Under fork the tracker daemon is
    *shared* with the creating parent, so unregistering here would strip
    the parent's own registration (and the next unregister would make
    the tracker print a KeyError); the registration is a set-membership
    no-op there, and the right move is to leave it alone.
    """
    try:
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) != "fork":
            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


def loads_shared(payload: SharedPayload) -> object:
    """Worker-side inverse of :func:`dumps_shared`.

    Arrays reconstructed from a shared segment are *read-only views*
    aliasing it — no copy is made, and accidental mutation from a worker
    raises instead of corrupting every sibling's data.  The attachment
    is kept open for the life of the process (the arrays alias it).
    """
    if payload.segment is None:
        return pickle.loads(payload.inband)

    from multiprocessing import shared_memory

    try:
        # Python >= 3.13: opt out of resource tracking on attach — the
        # creating parent owns the segment's lifetime.
        shm = shared_memory.SharedMemory(name=payload.segment, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=payload.segment)
        if payload.segment not in _LEASES:
            # Only a foreign segment is untracked: this process's own
            # lease still needs its registration for the unlink on
            # release, which would otherwise make the tracker print a
            # KeyError.
            _untrack_attachment(shm)
    _ATTACHED.append(shm)
    base = memoryview(shm.buf)
    views = [
        base[start : start + length].toreadonly()
        for start, length in payload.offsets
    ]
    return pickle.loads(payload.inband, buffers=views)


@dataclass
class FanoutStats:
    """Observable cost of shipping one sweep to the pool workers.

    ``transport`` is ``"shm"`` or ``"pickle"``: how the context
    travelled.  ``payload_bytes`` is the in-band size of one submission's
    header (context payload plus per-sweep parameters) and
    ``shared_bytes`` what the shared segment holds.  ``encode_s`` is the
    parent's encode time (near zero when the executor's context cache
    hits).  ``worker_init_s`` is the slowest worker's cache-miss plan
    build, 0.0 when every worker hit its plan cache.  ``evictions``
    holds the worst-worker cache-eviction counts per LRU layer
    (``context``/``plan``/``chaos_nonce``), since any worker's eviction
    means a future re-decode; layers that evicted nothing are omitted.
    """

    transport: str
    payload_bytes: int
    shared_bytes: int = 0
    encode_s: float = 0.0
    worker_init_s: float = 0.0
    evictions: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form for result meta and bench records."""
        out = {
            "transport": self.transport,
            "payload_bytes": self.payload_bytes,
            "shared_bytes": self.shared_bytes,
            "encode_s": self.encode_s,
            "worker_init_s": self.worker_init_s,
        }
        if self.evictions:
            out["evictions"] = dict(self.evictions)
        return out
