"""Content-addressed cross-run solve memoization (``repro.perf.store``).

:class:`~repro.perf.executor.SweepExecutor` keeps artifacts warm only
within one parent process's lifetime — every fresh CLI invocation,
campaign restart or *concurrent* parent re-solves identical failure
scenarios from scratch.  This module closes that gap with a disk-backed,
content-addressed store shared across processes and runs:

Canonical scenario fingerprints
    :func:`instance_fingerprint` hashes the *induced* FMSSM instance —
    offline switches, active controllers with residual capacities, the
    delay and coefficient slices, γ, λ, G and the nearest-controller
    map — after **order-preserving canonical relabeling**: switches,
    controllers and flows are renamed to dense positions in their sorted
    order, and the flow insertion-order → sorted-rank permutation is
    hashed too (solver tie-breaks depend on relative order, so only
    order-*preserving* relabelings keep solves bit-identical).  Two
    scenarios with the same fingerprint induce byte-identical solver
    inputs up to labels, so one solve serves both — within a sweep,
    across sweeps, and across runs.

Sharded, checksummed record store
    :class:`SolveStore` appends JSON records to ``shards`` JSONL files
    under a single writer lock (``fcntl.flock``) with a put-if-absent
    re-check, so concurrent parents never duplicate a key.  Readers are
    lock-free: each shard is indexed in memory and re-read only when its
    ``(mtime_ns, size)`` changes.  Every record carries a SHA-256 of its
    payload — torn appends (a crash mid-write) and corrupt records are
    skipped and counted, never trusted.  :meth:`SolveStore.gc` bounds
    the store's size by atomically rewriting shards oldest-first.

Expensive intermediates
    Besides :class:`ScenarioResult` solutions, the store holds the
    compiler's sparse P′ structural blocks (:meth:`SolveStore.
    put_arrays` / :meth:`~SolveStore.get_arrays`, atomic ``.npz``
    artifacts keyed by (N, M, P)) and per-topology hop-distance tables
    (JSON records keyed by :func:`topology_fingerprint`), so a cold
    process skips the BFS and block-assembly work too.

Solutions and their evaluations are stored in *canonical label space*
and translated back through the probing instance's labels on a hit
(:func:`solution_from_canonical` / :func:`evaluation_from_canonical`);
both round-trip bit-identically, so a replayed result is
indistinguishable from a fresh solve.  Records are checksummed, and the
sweep layer additionally re-validates hits against the probing instance
when it runs with ``validate=True`` (mirroring how fresh solves are
validated).  Under an active chaos plan the sweep layer bypasses the
store entirely so fault injection still exercises real solves.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import operator
import io
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution

__all__ = [
    "CanonicalInstance",
    "SolveStore",
    "canonical_instance",
    "instance_fingerprint",
    "canonical_solution",
    "canonical_evaluation",
    "solution_from_canonical",
    "evaluation_from_canonical",
    "decode_record",
    "decoded_cache_stats",
    "set_decoded_cache_cap",
    "solve_key",
    "topology_fingerprint",
]

STORE_SCHEMA = 1

#: Max decoded ``(algorithm, sha)`` pairs memoized per canonical
#: instance; least-recently-used entries are evicted past the cap.
#: Configurable via :func:`set_decoded_cache_cap`.
DECODED_CACHE_CAP = 64

#: Process-wide decoded-object cache telemetry (see
#: :func:`decoded_cache_stats`).
_DECODED_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def set_decoded_cache_cap(cap: int) -> int:
    """Set the per-instance decoded-object cache cap; returns the old one.

    The cap bounds how many decoded ``(algorithm, sha)`` records each
    :class:`CanonicalInstance` memoizes (:func:`decode_record`); caps
    below 1 are clamped to 1 so repeat hits of the *same* record still
    avoid re-decoding.
    """
    global DECODED_CACHE_CAP
    old, DECODED_CACHE_CAP = DECODED_CACHE_CAP, max(1, int(cap))
    return old


def decoded_cache_stats() -> dict[str, int]:
    """Snapshot of the decoded-object cache counters (this process).

    ``hits``/``misses`` count :func:`decode_record` lookups by content
    sha; ``evictions`` counts entries dropped by the LRU cap.  Sweeps
    stamp the per-sweep delta on ``meta["store"]["decoded"]``.
    """
    return dict(_DECODED_STATS)

#: Version tag mixed into every fingerprint: bump to invalidate stores
#: when the hashed content or the relabeling convention changes.
_FP_VERSION = b"fmssm-fp-v1"


# ----------------------------------------------------------------------
# Canonical relabeling + fingerprint
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalInstance:
    """An instance's canonical label maps plus its content fingerprint.

    ``switches[i]`` / ``controllers[j]`` / ``flow_ids[r]`` translate
    canonical positions back to this instance's labels; the ``*_pos`` /
    ``flow_rank`` dicts translate the other way.  Instances with equal
    ``fingerprint`` have byte-identical solver-visible content once both
    are expressed in positions, so a solution computed on one translates
    exactly onto the other.
    """

    fingerprint: str
    switches: tuple
    controllers: tuple
    flow_ids: tuple
    switch_pos: dict
    controller_pos: dict
    flow_rank: dict
    #: ``instance.pairs`` verbatim plus its frozenset and pair → index
    #: map.  Pair order is hashed into the fingerprint, so an index into
    #: ``pairs`` means the same pair on every equivalent instance — the
    #: solution codec stores pair *indices* (or the ``"all"`` sentinel)
    #: instead of thousands of explicit pair rows.
    pairs: tuple
    pair_set: frozenset
    pair_pos: dict


def canonical_instance(instance: FMSSMInstance) -> CanonicalInstance:
    """The cached canonical form of ``instance`` (computed once).

    Hashes every solver-visible field of the induced instance in
    canonical label space: counts, spare capacities (controller order),
    the delay matrix (switch-major float64 bytes), γ, the programmable
    pairs with their p̄ coefficients (in ``instance.pairs`` order, which
    is label-order-stable), the flow insertion-order permutation (PM's
    iteration order and several tie-breaks follow it), G and λ, and the
    nearest-controller map.  ``Flow`` payloads beyond the id are *not*
    hashed: nothing downstream of instance induction reads them.
    """
    cached = instance.__dict__.get("_canonical_instance")
    if cached is not None:
        return cached

    switches = instance.switches
    controllers = instance.controllers
    flow_ids = tuple(sorted(instance.flows))
    switch_pos = {s: i for i, s in enumerate(switches)}
    controller_pos = {c: j for j, c in enumerate(controllers)}
    flow_rank = {f: r for r, f in enumerate(flow_ids)}

    h = hashlib.sha256(_FP_VERSION)
    h.update(repr((
        len(switches), len(controllers), len(flow_ids), len(instance.pairs),
    )).encode())
    h.update(np.asarray(
        [instance.spare[c] for c in controllers], dtype=np.int64
    ).tobytes())
    h.update(np.asarray(
        [instance.delay[(s, c)] for s in switches for c in controllers],
        dtype=np.float64,
    ).tobytes())
    h.update(np.asarray(
        [instance.gamma[s] for s in switches], dtype=np.int64
    ).tobytes())
    pair_rows = np.empty((len(instance.pairs), 3), dtype=np.int64)
    for k, (s, f) in enumerate(instance.pairs):
        pair_rows[k, 0] = switch_pos[s]
        pair_rows[k, 1] = flow_rank[f]
        pair_rows[k, 2] = instance.pbar[(s, f)]
    h.update(pair_rows.tobytes())
    h.update(np.asarray(
        [flow_rank[f] for f in instance.flows], dtype=np.int64
    ).tobytes())
    h.update(np.float64(instance.ideal_delay_ms).tobytes())
    h.update(np.float64(instance.lam).tobytes())
    h.update(np.asarray(
        [controller_pos[instance.nearest[s]] for s in switches], dtype=np.int64
    ).tobytes())

    canon = CanonicalInstance(
        fingerprint=h.hexdigest()[:32],
        switches=switches,
        controllers=controllers,
        flow_ids=flow_ids,
        switch_pos=switch_pos,
        controller_pos=controller_pos,
        flow_rank=flow_rank,
        pairs=instance.pairs,
        pair_set=frozenset(instance.pairs),
        pair_pos={pair: k for k, pair in enumerate(instance.pairs)},
    )
    instance.__dict__["_canonical_instance"] = canon
    return canon


def instance_fingerprint(instance: FMSSMInstance) -> str:
    """Content fingerprint of the induced instance (cached)."""
    return canonical_instance(instance).fingerprint


def solve_key(
    fingerprint: str,
    algorithm: str,
    optimal_time_limit_s: float,
) -> str:
    """Record key of one (instance, algorithm, solve parameters) triple.

    Heuristics have no knobs that change their output, so their keys
    carry only the fingerprint and the name; exact solves additionally
    key on the time limit (conservative — a completed solve does not
    depend on the limit, but sharing across limits would make a hit's
    provenance ambiguous).
    """
    from repro.perf.sweep import _HEAVY_ALGORITHMS

    if algorithm in _HEAVY_ALGORITHMS:
        # "sparse" is the compile route sweeps always take.  It stays in
        # the hashed tuple so keys written when the route was a sweep
        # parameter still match, and existing stores keep hitting.
        params = hashlib.sha256(repr(
            (float(optimal_time_limit_s), "sparse")
        ).encode()).hexdigest()[:12]
    else:
        params = "-"
    return f"{fingerprint}:{algorithm}:{params}"


# ----------------------------------------------------------------------
# Solution <-> canonical payload
# ----------------------------------------------------------------------

def canonical_solution(
    solution: RecoverySolution, canon: CanonicalInstance
) -> dict[str, object]:
    """``solution`` as a JSON-safe dict in canonical label space.

    The field shape mirrors :func:`repro.resilience.checkpoint.
    solution_to_json` (sorted pairs, repr-round-trip floats) with ids
    replaced by canonical positions/ranks.  ``meta`` is copied verbatim:
    every solver's meta is label-free scalars by contract (asserted in
    the store tests), so it needs no translation.

    ``sdn_pairs`` collapses to the ``"all"`` sentinel when the solution
    recovers every programmable pair — the overwhelmingly common case —
    and to a packed vector of pair *indices* otherwise; per-pair
    controller overrides pack the same way.  Pair order is hashed into
    the fingerprint, so indices mean the same pairs on every equivalent
    instance, and records stay at a few hundred bytes instead of the
    tens of kilobytes explicit pair lists cost on WAN-sized instances
    (the store-hit fast path parses every record it replays).
    """
    sp, cp, pp = canon.switch_pos, canon.controller_pos, canon.pair_pos
    overrides = sorted(
        (pp[pair], cp[c]) for pair, c in solution.pair_controller.items()
    )
    return {
        "algorithm": solution.algorithm,
        "mapping": sorted([sp[s], cp[c]] for s, c in solution.mapping.items()),
        "sdn_pairs": (
            "all"
            if frozenset(solution.sdn_pairs) == canon.pair_set
            else _pack_ints(sorted(pp[pair] for pair in solution.sdn_pairs))
        ),
        "pair_controller": (
            None
            if not overrides
            else {
                "i": _pack_ints([k for k, _ in overrides]),
                "c": _pack_ints([c for _, c in overrides]),
            }
        ),
        "extra_overhead_ms": solution.extra_overhead_ms,
        "load_override": (
            None
            if solution.load_override is None
            else sorted([cp[c], n] for c, n in solution.load_override.items())
        ),
        "solve_time_s": solution.solve_time_s,
        "feasible": solution.feasible,
        "meta": dict(solution.meta),
    }


def solution_from_canonical(
    payload: dict[str, object], canon: CanonicalInstance
) -> RecoverySolution:
    """Translate a canonical payload onto ``canon``'s instance labels.

    Inverse of :func:`canonical_solution` up to relabeling: applied with
    the *probing* instance's canonical maps, the stored representative's
    solution becomes this instance's solution.  ``solve_time_s`` replays
    the stored wall clock (same policy as checkpoint resume).
    """
    sw, co = canon.switches, canon.controllers
    sdn_pairs = payload["sdn_pairs"]
    overrides = payload["pair_controller"]
    return RecoverySolution(
        algorithm=str(payload["algorithm"]),
        mapping={sw[s]: co[c] for s, c in payload["mapping"]},
        sdn_pairs=(
            _all_pairs_set(canon)
            if sdn_pairs == "all"
            else set(_pick(canon.pairs, _unpack_ints(sdn_pairs)))
        ),
        pair_controller=(
            {}
            if not overrides
            else dict(zip(
                _pick(canon.pairs, _unpack_ints(overrides["i"])),
                _pick(co, _unpack_ints(overrides["c"])),
            ))
        ),
        extra_overhead_ms=payload["extra_overhead_ms"],
        load_override=(
            None
            if payload["load_override"] is None
            else {co[c]: n for c, n in payload["load_override"]}
        ),
        solve_time_s=payload["solve_time_s"],
        feasible=bool(payload["feasible"]),
        meta=dict(payload["meta"]),
    )


def _pick(seq, idx: list):
    """``tuple(seq[k] for k in idx)``, via one C-level itemgetter call."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)(seq)
    return (seq[idx[0]],) if idx else ()


def _all_pairs_set(canon: CanonicalInstance) -> set:
    """A fresh mutable copy of ``canon``'s full pair set.

    ``set.copy`` duplicates the hash table without rehashing the pair
    tuples, so an ``"all"``-sentinel hit costs a memcpy instead of a
    full set build; the master copy is memoized on the (frozen) canon
    via ``object.__setattr__``.
    """
    master = canon.__dict__.get("_all_pairs")
    if master is None:
        master = set(canon.pair_set)
        object.__setattr__(canon, "_all_pairs", master)
    return master.copy()


def _pack_ints(values) -> dict[str, str]:
    """An int sequence as ``{"d": dtype, "b": base64}`` — one JSON token.

    Per-flow programmability and pair-index vectors run to thousands of
    elements; as JSON lists they would cost more to parse than the
    solves they memoize.  A single base64 blob tokenizes in microseconds
    and decodes with ``np.frombuffer``; the dtype is the narrowest
    little-endian signed width that holds the range.
    """
    array = np.asarray(values, dtype=np.int64)
    dtype = "<i8"
    for narrow in ("<i1", "<i2", "<i4"):
        info = np.iinfo(narrow)
        if array.size == 0 or (
            array.min() >= info.min and array.max() <= info.max
        ):
            dtype = narrow
            break
    return {
        "d": dtype,
        "b": base64.b64encode(array.astype(dtype).tobytes()).decode("ascii"),
    }


def _unpack_ints(blob: dict[str, str]) -> list[int]:
    # binascii directly: base64.b64decode's wrapper costs more than the
    # decode itself at this call rate.
    return np.frombuffer(
        binascii.a2b_base64(blob["b"]), dtype=blob["d"]
    ).tolist()


def canonical_evaluation(evaluation, canon: CanonicalInstance) -> dict[str, object]:
    """A :class:`~repro.fmssm.evaluation.RecoveryEvaluation` in canonical
    label space, JSON-safe.

    Everything except ``programmability`` (flow ids → ranks) and
    ``controller_load`` (controller ids → positions) is label-free and
    copied verbatim; JSON round-trips Python floats exactly, so a replay
    reproduces every metric bit for bit.  ``_recoverable_set`` is not
    stored — it is a pure function of the instance and is re-derived on
    load.
    """
    cp, fr = canon.controller_pos, canon.flow_rank
    programmability = evaluation.programmability
    if len(programmability) == len(canon.flow_ids):
        # Dense: one value per flow — the evaluator fills every offline
        # flow — so ranks are implicit in flow-rank order.
        prog = {"dense": _pack_ints(
            [programmability[f] for f in canon.flow_ids]
        )}
    else:
        ranks = sorted(fr[f] for f in programmability)
        prog = {
            "ranks": _pack_ints(ranks),
            "values": _pack_ints(
                [programmability[canon.flow_ids[r]] for r in ranks]
            ),
        }
    return {
        "feasible": evaluation.feasible,
        "prog": prog,
        "least": evaluation.least_programmability,
        "total": evaluation.total_programmability,
        "recovered_flows": evaluation.recovered_flows,
        "recoverable_flows": evaluation.recoverable_flows,
        "offline_flows": evaluation.offline_flows,
        "recovered_switches": evaluation.recovered_switches,
        "offline_switches": evaluation.offline_switches,
        "controller_load": sorted(
            [cp[c], n] for c, n in evaluation.controller_load.items()
        ),
        "total_delay_ms": evaluation.total_delay_ms,
        "ideal_delay_ms": evaluation.ideal_delay_ms,
        "per_flow_overhead_ms": evaluation.per_flow_overhead_ms,
        "objective": evaluation.objective,
        "solve_time_s": evaluation.solve_time_s,
    }


def evaluation_from_canonical(
    payload: dict[str, object],
    canon: CanonicalInstance,
    instance: FMSSMInstance,
    algorithm: str,
):
    """Inverse of :func:`canonical_evaluation` on ``canon``'s instance.

    Bit-identical to ``evaluate_solution`` on the replayed solution:
    every stored field round-trips exactly and the recoverable-flow set
    is re-derived from the (equivalent) instance itself.
    """
    from repro.fmssm.evaluation import RecoveryEvaluation, _recoverable_set

    co, fl = canon.controllers, canon.flow_ids
    prog = payload["prog"]
    if "dense" in prog:
        programmability = dict(zip(fl, _unpack_ints(prog["dense"])))
    else:
        programmability = dict(zip(
            _pick(fl, _unpack_ints(prog["ranks"])),
            _unpack_ints(prog["values"]),
        ))
    return RecoveryEvaluation(
        algorithm=algorithm,
        feasible=bool(payload["feasible"]),
        programmability=programmability,
        least_programmability=payload["least"],
        total_programmability=payload["total"],
        recovered_flows=payload["recovered_flows"],
        recoverable_flows=payload["recoverable_flows"],
        offline_flows=payload["offline_flows"],
        recovered_switches=payload["recovered_switches"],
        offline_switches=payload["offline_switches"],
        controller_load={co[c]: n for c, n in payload["controller_load"]},
        total_delay_ms=payload["total_delay_ms"],
        ideal_delay_ms=payload["ideal_delay_ms"],
        per_flow_overhead_ms=payload["per_flow_overhead_ms"],
        objective=payload["objective"],
        solve_time_s=payload["solve_time_s"],
        _recoverable_set=_recoverable_set(instance),
    )


def _clone_solution(solution: RecoverySolution) -> RecoverySolution:
    """A fresh, independently mutable twin of a decoded solution.

    ``set.copy``/``dict.copy`` duplicate hash tables without rehashing
    the (tuple) keys, so a clone costs a few memcpys where a full
    decode hashes thousands of entries.
    """
    return RecoverySolution(
        algorithm=solution.algorithm,
        mapping=solution.mapping.copy(),
        sdn_pairs=solution.sdn_pairs.copy(),
        pair_controller=solution.pair_controller.copy(),
        extra_overhead_ms=solution.extra_overhead_ms,
        load_override=(
            None
            if solution.load_override is None
            else solution.load_override.copy()
        ),
        solve_time_s=solution.solve_time_s,
        feasible=solution.feasible,
        meta=solution.meta.copy(),
    )


def _clone_evaluation(evaluation):
    """A fresh twin of a decoded evaluation (same no-rehash trick).

    ``_recoverable_set`` is an immutable frozenset shared by every
    evaluation of the same instance, exactly as ``evaluate_solution``
    shares its cached one.
    """
    from repro.fmssm.evaluation import RecoveryEvaluation

    return RecoveryEvaluation(
        algorithm=evaluation.algorithm,
        feasible=evaluation.feasible,
        programmability=evaluation.programmability.copy(),
        least_programmability=evaluation.least_programmability,
        total_programmability=evaluation.total_programmability,
        recovered_flows=evaluation.recovered_flows,
        recoverable_flows=evaluation.recoverable_flows,
        offline_flows=evaluation.offline_flows,
        recovered_switches=evaluation.recovered_switches,
        offline_switches=evaluation.offline_switches,
        controller_load=evaluation.controller_load.copy(),
        total_delay_ms=evaluation.total_delay_ms,
        ideal_delay_ms=evaluation.ideal_delay_ms,
        per_flow_overhead_ms=evaluation.per_flow_overhead_ms,
        objective=evaluation.objective,
        solve_time_s=evaluation.solve_time_s,
        _recoverable_set=evaluation._recoverable_set,
    )


def decode_record(
    record: dict,
    canon: CanonicalInstance,
    instance: FMSSMInstance,
    algorithm: str,
    sha: str | None = None,
):
    """``(solution, evaluation)`` decoded from a store record.

    When ``sha`` (the record's content checksum) is given, the decoded
    pair is memoized on ``canon`` and repeat hits of the same content
    return independent clones instead of re-decoding — replaying a
    sweep a second time in one process costs container copies, not
    tuple hashing.  The cache key is ``(algorithm, sha)``: the sha pins
    the payload bytes, the canon pins the label space, so a record
    GC'd and re-solved (fresh ``solve_time_s``) can never alias a
    stale decode.  The cache is LRU-bounded to :data:`DECODED_CACHE_CAP`
    entries per canon (a campaign probing many algorithms over one
    fingerprint must not pin every decode forever); evictions are
    counted in :func:`decoded_cache_stats`.  ``evaluation`` is ``None``
    for records predating stored evaluations.
    """
    from collections import OrderedDict

    cache = canon.__dict__.get("_decoded")
    if cache is None:
        cache = OrderedDict()
        object.__setattr__(canon, "_decoded", cache)
    token = (algorithm, sha)
    cached = cache.get(token) if sha is not None else None
    if cached is None:
        solution = solution_from_canonical(record["solution"], canon)
        stored_eval = record.get("evaluation")
        evaluation = (
            evaluation_from_canonical(stored_eval, canon, instance, algorithm)
            if stored_eval is not None
            else None
        )
        if sha is not None:
            _DECODED_STATS["misses"] += 1
            cache[token] = (solution, evaluation)
            while len(cache) > max(1, DECODED_CACHE_CAP):
                cache.popitem(last=False)
                _DECODED_STATS["evictions"] += 1
            return _clone_solution(solution), (
                None if evaluation is None else _clone_evaluation(evaluation)
            )
        return solution, evaluation
    _DECODED_STATS["hits"] += 1
    cache.move_to_end(token)
    solution, evaluation = cached
    return _clone_solution(solution), (
        None if evaluation is None else _clone_evaluation(evaluation)
    )


def topology_fingerprint(topology) -> str:
    """Content fingerprint of a topology's *hop structure*.

    Hop-distance tables depend only on the node set and the undirected
    edge set, so that is all that is hashed (not geography or delays).
    """
    h = hashlib.sha256(b"topo-hops-v1")
    h.update(repr(tuple(topology.nodes)).encode())
    h.update(repr(tuple(topology.edges())).encode())
    return h.hexdigest()[:32]


# ----------------------------------------------------------------------
# The disk store
# ----------------------------------------------------------------------

class SolveStore:
    """Disk-backed content-addressed record + artifact store.

    Layout under ``root``::

        records/shard-XX.jsonl   # one JSON record per line, checksummed
        records/.lock            # writer lock (fcntl.flock)
        artifacts/<name>.npz     # named numpy-dict artifacts (atomic)

    Concurrency contract: any number of processes may read and write one
    store directory concurrently.  Writers serialize on the lock file
    and re-check for the key under the lock (put-if-absent), so a key is
    never recorded twice; readers never take the lock — they re-read a
    shard only when its stat signature changes, and skip any line whose
    checksum or JSON does not verify (counted in ``stats["corrupt"]``).
    GC rewrites shards to a temp file and ``os.replace``\\ s them, which
    POSIX keeps safe for concurrent readers (they finish on the old
    inode).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        shards: int = 16,
        max_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.shards = shards
        self.max_bytes = max_bytes
        self._records_dir = self.root / "records"
        self._artifacts_dir = self.root / "artifacts"
        self._records_dir.mkdir(parents=True, exist_ok=True)
        self._artifacts_dir.mkdir(parents=True, exist_ok=True)
        self._shard_paths = tuple(
            self._records_dir / f"shard-{shard:02x}.jsonl"
            for shard in range(shards)
        )
        #: Per-shard in-memory index:
        #: shard -> (stat signature, {key: payload}, {key: payload sha}).
        self._index: dict[
            int, tuple[tuple[int, int], dict[str, dict], dict[str, str]]
        ] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
            "artifact_hits": 0,
            "artifact_misses": 0,
            "artifact_writes": 0,
            "gc_dropped": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SolveStore({str(self.root)!r}, shards={self.shards})"

    # -- records -------------------------------------------------------
    def _shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.shards

    def _shard_path(self, shard: int) -> Path:
        return self._shard_paths[shard]

    @staticmethod
    def _payload_sha(payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def _encode_line(cls, key: str, payload: dict) -> bytes:
        """One record line; the checksum covers the payload's exact bytes.

        The field order is fixed so readers can slice key/sha/payload
        out of the raw line without a full JSON parse: the payload
        substring is byte-for-byte what the sha was computed over.
        """
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        sha = hashlib.sha256(blob.encode()).hexdigest()[:16]
        head = '{"v":%d,"key":%s,"sha":"%s","payload":' % (
            STORE_SCHEMA, json.dumps(key), sha,
        )
        return head.encode() + blob.encode() + b"}"

    _LINE_HEAD = ('{"v":%d,"key":"' % STORE_SCHEMA).encode()
    _SHA_MARK = b'","sha":"'
    _PAYLOAD_MARK = b'","payload":'

    def _parse_lines(
        self, data: bytes
    ) -> tuple[dict[str, dict], dict[str, str]]:
        """Verified ``(records, content shas)`` from raw shard bytes;
        corrupt lines skipped."""
        records: dict[str, dict] = {}
        shas: dict[str, str] = {}
        head, sha_mark, pay_mark = (
            self._LINE_HEAD, self._SHA_MARK, self._PAYLOAD_MARK
        )
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            # Fast path: slice key/sha/payload straight out of the raw
            # bytes (field order is fixed by _encode_line) and verify
            # the checksum over the payload substring — no re-dump.
            cut = line.find(sha_mark, len(head))
            if (
                line.startswith(head)
                and line.endswith(b"}")
                and cut > 0
                and b"\\" not in line[len(head):cut]
                and line[cut + 25:cut + 25 + len(pay_mark)] == pay_mark
            ):
                payload_bytes = line[cut + 25 + len(pay_mark):-1]
                sha = line[cut + len(sha_mark):cut + 25]
                if hashlib.sha256(payload_bytes).hexdigest()[:16].encode() == sha:
                    try:
                        payload = json.loads(payload_bytes)
                    except ValueError:
                        self.stats["corrupt"] += 1
                        continue
                    key = line[len(head):cut].decode()
                    records[key] = payload
                    shas[key] = sha.decode()
                    continue
            # Slow path: escaped keys or legacy field order.
            try:
                record = json.loads(line)
                key = record["key"]
                payload = record["payload"]
                ok = (
                    record.get("v") == STORE_SCHEMA
                    and isinstance(key, str)
                    and record.get("sha") == self._payload_sha(payload)
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                self.stats["corrupt"] += 1
                continue
            records[key] = payload
            shas[key] = record["sha"]
        return records, shas

    def _shard_records(self, shard: int) -> dict[str, dict]:
        """The shard's verified records, re-read only when the file changed."""
        path = self._shard_path(shard)
        try:
            stat = path.stat()
            sig = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._index[shard] = ((-1, -1), {}, {})
            return self._index[shard][1]
        cached = self._index.get(shard)
        if cached is not None and cached[0] == sig:
            return cached[1]
        try:
            data = path.read_bytes()
        except OSError:
            data = b""
        records, shas = self._parse_lines(data)
        self._index[shard] = (sig, records, shas)
        return records

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` (lock-free)."""
        payload = self._shard_records(self._shard_of(key)).get(key)
        if payload is None:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return payload

    def sha_of(self, key: str) -> str | None:
        """The stored record's content checksum, or ``None`` if absent.

        The sha identifies the payload *bytes*, so it is a process-wide
        stable token for "this exact stored result" — the decoded-object
        cache keys on it to replay repeat hits without re-decoding.
        """
        self._shard_records(self._shard_of(key))
        entry = self._index.get(self._shard_of(key))
        return entry[2].get(key) if entry is not None else None

    def _locked(self):
        """Writer lock shared by every process using this store root."""
        import fcntl
        from contextlib import contextmanager

        @contextmanager
        def hold():
            fd = os.open(self._records_dir / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)

        return hold()

    def put(self, key: str, payload: dict) -> bool:
        """Append ``payload`` under ``key``; ``False`` if already present.

        Single-writer append: the shard is re-read *under the lock*
        before writing, so two processes racing on one key produce one
        record.  A torn tail left by a crashed writer (no trailing
        newline) is repaired by prefixing a newline — the torn fragment
        stays an isolated, checksum-failing line that readers skip.
        """
        shard = self._shard_of(key)
        path = self._shard_path(shard)
        # Fast path: _shard_records revalidates against the file's stat
        # signature, so a key visible there is present on disk — skip
        # the lock round-trip.  (A concurrent GC dropping it right now
        # is indistinguishable from GC dropping the record just after a
        # locked put, so put-if-absent stays honest.)
        if key in self._shard_records(shard):
            return False
        with self._locked():
            self._index.pop(shard, None)  # force a fresh read under the lock
            if key in self._shard_records(shard):
                return False
            line = self._encode_line(key, payload)
            with open(path, "a+b") as fh:
                fh.seek(0, io.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, io.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
                fh.write(line + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._index.pop(shard, None)
        self.stats["writes"] += 1
        return True

    def put_many(self, items: list[tuple[str, dict]]) -> int:
        """Append many records under one lock acquisition; returns writes.

        Same put-if-absent contract as :meth:`put`, amortizing the lock
        round-trip and the per-shard fsync across a whole sweep's
        write-back.
        """
        by_shard: dict[int, list[tuple[str, dict]]] = {}
        for key, payload in items:
            by_shard.setdefault(self._shard_of(key), []).append((key, payload))
        written = 0
        with self._locked():
            for shard, group in sorted(by_shard.items()):
                self._index.pop(shard, None)
                present = self._shard_records(shard)
                lines = []
                seen: set[str] = set()
                for key, payload in group:
                    if key in present or key in seen:
                        continue
                    seen.add(key)
                    lines.append(self._encode_line(key, payload))
                if not lines:
                    continue
                with open(self._shard_path(shard), "a+b") as fh:
                    fh.seek(0, io.SEEK_END)
                    if fh.tell() > 0:
                        fh.seek(-1, io.SEEK_END)
                        if fh.read(1) != b"\n":
                            fh.write(b"\n")
                    fh.write(b"".join(line + b"\n" for line in lines))
                    fh.flush()
                    os.fsync(fh.fileno())
                self._index.pop(shard, None)
                written += len(lines)
        self.stats["writes"] += written
        return written

    # -- size-bounded GC ----------------------------------------------
    def record_bytes(self) -> int:
        """Total size of the record shards on disk."""
        total = 0
        for shard in range(self.shards):
            try:
                total += self._shard_path(shard).stat().st_size
            except OSError:
                pass
        return total

    def gc(self, max_bytes: int | None = None) -> int:
        """Drop oldest records until the store fits ``max_bytes``.

        Records within a shard are in append (age) order, so dropping a
        prefix of lines drops the oldest.  Shards are rewritten via a
        temp file + ``os.replace`` under the writer lock; in-flight
        readers keep their old inode.  Returns records dropped.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        dropped = 0
        with self._locked():
            excess = self.record_bytes() - budget
            if excess <= 0:
                return 0
            for shard in range(self.shards):
                if excess <= 0:
                    break
                path = self._shard_path(shard)
                try:
                    data = path.read_bytes()
                except OSError:
                    continue
                lines = [ln for ln in data.split(b"\n") if ln.strip()]
                kept = list(lines)
                while kept and excess > 0:
                    oldest = kept.pop(0)
                    excess -= len(oldest) + 1
                    dropped += 1
                body = b"".join(ln + b"\n" for ln in kept)
                fd, tmp = tempfile.mkstemp(
                    dir=self._records_dir, prefix=f".gc-{shard:02x}-"
                )
                try:
                    os.write(fd, body)
                    os.fsync(fd)
                finally:
                    os.close(fd)
                os.replace(tmp, path)
                self._index.pop(shard, None)
        self.stats["gc_dropped"] += dropped
        return dropped

    # -- artifacts (numpy dicts) ---------------------------------------
    def _artifact_path(self, name: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in name)
        return self._artifacts_dir / f"{safe}.npz"

    def put_arrays(self, name: str, arrays: dict[str, np.ndarray]) -> bool:
        """Atomically persist a named dict of arrays; ``False`` if present."""
        path = self._artifact_path(name)
        if path.exists():
            return False
        fd, tmp = tempfile.mkstemp(dir=self._artifacts_dir, prefix=".art-")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stats["artifact_writes"] += 1
        return True

    def get_arrays(self, name: str) -> dict[str, np.ndarray] | None:
        """The named artifact as an eager dict, or ``None`` (missing/corrupt)."""
        path = self._artifact_path(name)
        try:
            with np.load(path) as bundle:
                arrays = {key: bundle[key] for key in bundle.files}
        except (OSError, ValueError, KeyError, EOFError):
            if path.exists():
                self.stats["corrupt"] += 1
            self.stats["artifact_misses"] += 1
            return None
        self.stats["artifact_hits"] += 1
        return arrays

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict[str, object]:
        """JSON-safe stats snapshot (benchmarks, campaign summaries)."""
        return {"root": str(self.root), **self.stats}
