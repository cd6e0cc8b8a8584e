"""Cross-run solve memoization (``repro.perf.store``).

:class:`~repro.perf.executor.SweepExecutor` keeps artifacts warm only
within one parent process's lifetime — every fresh CLI invocation,
campaign restart or *concurrent* parent re-solves the same failure
scenarios from scratch.  This module closes that gap with a disk-backed
store shared across processes and runs:

Scenario keys
    :func:`scenario_key` names one failure scenario of one network as
    solved by one build of the code: a digest of the context's network
    digest (:func:`network_key` — every grounding input, hashed once
    per context), the sorted failed-controller set and
    :func:`code_identity` (every ``repro`` source file plus the numpy,
    scipy and Python versions).  :func:`solve_key` appends the algorithm
    and its solve parameters.  A key is computed without grounding the
    scenario, so a hit grounds nothing; and a store written by other
    code, or for another network, simply misses.

Positional records
    :func:`encode_result` stores a solution with its evaluation: ids as
    they are, flows as positions in the context's flow order, packed
    into compressed integer columns so a WAN record stays a few
    kilobytes.  :func:`decode_result` is its exact inverse — JSON
    round-trips every float — so a replay equals a fresh solve.

Sharded, checksummed record store
    :class:`SolveStore` appends JSON records to ``shards`` JSONL files
    under a single writer lock (``fcntl.flock``) with a put-if-absent
    re-check, so concurrent parents never duplicate a key.  Readers are
    lock-free: each shard is indexed in memory and re-read only when its
    ``(mtime_ns, size)`` changes.  Every record carries a SHA-256 of its
    payload — torn appends (a crash mid-write) and corrupt records are
    skipped and counted, never trusted.  :meth:`SolveStore.gc` bounds
    the store's size by atomically rewriting shards oldest-first.

The sweep layer re-validates hits against the grounded instance when it
runs with ``validate=True`` (mirroring how fresh solves are validated),
and under an active chaos plan it bypasses the store entirely so fault
injection still exercises real solves.
"""

from __future__ import annotations

import base64
import binascii
import fcntl
import functools
import hashlib
import io
import json
import os
import platform
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.control.failures import FailureScenario
from repro.fmssm.solution import RecoverySolution

__all__ = [
    "NetworkKey",
    "SolveStore",
    "code_identity",
    "decode_result",
    "encode_result",
    "network_key",
    "scenario_key",
    "solve_key",
]

STORE_SCHEMA = 1


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------

@functools.cache
def code_identity() -> str:
    """Digest of the code that produces stored answers (once per process).

    Hashes the path and bytes of every ``repro/**/*.py`` file plus the
    numpy, scipy and Python versions (scipy ships HiGHS).  Covering the
    whole package keeps the rule free of a file list to maintain: any
    edit to the source moves every key, so no store, checkpoint or
    campaign journal replays an answer that other code produced.
    """
    import scipy

    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for name, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes())
    h.update(repr(
        (np.__version__, scipy.__version__, platform.python_version())
    ).encode())
    return h.hexdigest()[:32]


@dataclass(frozen=True)
class NetworkKey:
    """What the store needs of one context, computed once per context.

    ``digest`` covers every grounding input (see :func:`network_key`);
    ``flow_ids`` / ``flow_pos`` translate between flow ids and their
    positions in the context's flow order, which records store.
    ``pairs`` holds one tuple per decoded ``(switch, flow id)`` pair, so
    every replayed solution of the network shares them — as solutions
    grounded from one index share its pair keys — instead of holding
    its own copies.
    """

    digest: str
    flow_ids: tuple
    flow_pos: dict
    pairs: dict = field(default_factory=dict, compare=False)


def network_key(context) -> NetworkKey:
    """The context's :class:`NetworkKey`, cached beside its grounding index.

    The digest hashes, in sorted or insertion order and never in set
    order: the topology's nodes with their coordinates, its edges and
    propagation speed; every controller's id, site, capacity and domain;
    every flow's id and path in flow order; the path counter's strategy
    and parameters; and the delay mode.  Two contexts that ground
    different instances for some scenario therefore never share a
    digest, and equal contexts built in different processes always do.
    """
    cached = context._network_key
    if cached is not None:
        return cached
    topology, plane = context.topology, context.plane
    counter = context.programmability.counter
    blob = repr((
        tuple(
            (node, topology.geo(node).latitude, topology.geo(node).longitude)
            for node in topology.nodes
        ),
        topology.edges(),
        topology.propagation_speed_m_per_s,
        tuple(
            (c, plane.controller(c).site, plane.controller(c).capacity,
             plane.domain(c))
            for c in plane.controller_ids
        ),
        tuple((flow.flow_id, flow.path) for flow in context.flows),
        type(counter).__name__,
        tuple(sorted(
            (name, value) for name, value in vars(counter).items()
            if isinstance(value, (bool, int, float, str))
        )),
        context.delay_model.mode,
    )).encode()
    flow_ids = tuple(flow.flow_id for flow in context.flows)
    cached = NetworkKey(
        digest=hashlib.sha256(blob).hexdigest()[:32],
        flow_ids=flow_ids,
        flow_pos={flow_id: k for k, flow_id in enumerate(flow_ids)},
    )
    context._network_key = cached
    return cached


def scenario_key(context, scenario: FailureScenario) -> str:
    """Key of one failure scenario of ``context``'s network, under this code.

    A digest of the network digest, the sorted failed-controller set and
    :func:`code_identity` — no grounding involved.
    """
    blob = repr((
        network_key(context).digest,
        tuple(sorted(scenario.failed)),
        code_identity(),
    )).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def solve_key(
    key: str,
    algorithm: str,
    optimal_time_limit_s: float,
) -> str:
    """Record key of one (scenario key, algorithm, solve parameters) triple.

    Heuristics have no knobs that change their output, so their keys
    carry only the scenario key and the name; exact solves additionally
    key on the time limit (conservative — a completed solve does not
    depend on the limit, but sharing across limits would make a hit's
    provenance ambiguous).
    """
    from repro.perf.sweep import _HEAVY_ALGORITHMS

    if algorithm in _HEAVY_ALGORITHMS:
        params = hashlib.sha256(
            repr(float(optimal_time_limit_s)).encode()
        ).hexdigest()[:12]
    else:
        params = "-"
    return f"{key}:{algorithm}:{params}"


# ----------------------------------------------------------------------
# Records: solution + evaluation, flows as positions
# ----------------------------------------------------------------------

def encode_result(context, solution: RecoverySolution, evaluation) -> dict:
    """``solution`` and its ``evaluation`` as a JSON-safe store record.

    Flow-indexed fields — the SDN pairs, the per-pair controller
    overrides, per-flow programmability and the recoverable-flow set —
    are sorted by flow position and stored as packed columns; everything
    else is ids and scalars copied verbatim.  ``meta`` is label-free
    scalars by contract, so it needs no translation.  A solution and
    evaluation held as positions over a grounded instance are packed from
    them (their flows' network positions), building none of their dicts.
    """
    network = network_key(context)
    placement, flow_values = solution.positions(), evaluation.positions()
    if placement is None or placement.frame.network_pos is None:
        pos = network.flow_pos
        mapping, pairs, over = solution.mapping, solution.sdn_pairs, solution.pair_controller
        sdn = ([pos[f] for _, f in pairs], [s for s, _ in pairs])
        moved = ([pos[f] for _, f in over], [s for s, _ in over], list(over.values()))
    else:
        frame, served, mask = placement.frame, placement.pairs, placement.moved()
        flows = frame.network_pos[frame.pair_flow[served]]
        switches = np.asarray(frame.switches)[frame.pair_switch[served]]
        controllers = np.asarray(frame.controllers)[placement.pair_ctrl[mask]]
        mapping, sdn = placement.mapping(), (flows, switches)
        moved = (flows[mask], switches[mask], controllers)
    if flow_values is None or flow_values[0].network_pos is None:
        pos, values = network.flow_pos, evaluation.programmability
        pro = ([pos[f] for f in values], list(values.values()))
        recoverable = [pos[f] for f in evaluation._recoverable_set]
    else:
        frame, values = flow_values
        flows = frame.network_pos
        pro, recoverable = (flows, values), flows[frame.recoverable_pos]
    return {
        "solution": {
            "algorithm": solution.algorithm,
            "mapping": sorted(mapping.items()),
            "sdn_pairs": _pack_sorted(*sdn),
            "pair_controller": _pack_sorted(*moved),
            "extra_overhead_ms": solution.extra_overhead_ms,
            "load_override": (
                None
                if solution.load_override is None
                else sorted(solution.load_override.items())
            ),
            "solve_time_s": solution.solve_time_s,
            "feasible": solution.feasible,
            "meta": dict(solution.meta),
        },
        "evaluation": {
            "feasible": evaluation.feasible,
            "programmability": _pack_sorted(*pro),
            "recoverable": _pack_ints(np.sort(recoverable)),
            "least": evaluation.least_programmability,
            "total": evaluation.total_programmability,
            "recovered_flows": evaluation.recovered_flows,
            "recoverable_flows": evaluation.recoverable_flows,
            "offline_flows": evaluation.offline_flows,
            "recovered_switches": evaluation.recovered_switches,
            "offline_switches": evaluation.offline_switches,
            "controller_load": sorted(evaluation.controller_load.items()),
            "total_delay_ms": evaluation.total_delay_ms,
            "ideal_delay_ms": evaluation.ideal_delay_ms,
            "per_flow_overhead_ms": evaluation.per_flow_overhead_ms,
            "objective": evaluation.objective,
            "solve_time_s": evaluation.solve_time_s,
        },
    }


def decode_result(context, record: dict):
    """``(solution, evaluation)`` from an :func:`encode_result` record.

    Reads only ``context``'s :class:`NetworkKey` — never its instances —
    and returns fresh, independently mutable objects on every call.
    ``solve_time_s`` replays the stored wall clock (same policy as
    checkpoint resume).
    """
    from repro.fmssm.evaluation import RecoveryEvaluation

    network = network_key(context)
    flow = network.flow_ids.__getitem__

    def pairs(flows: list[int], switches: list[int]):
        """The ``(switch, flow id)`` pairs, as the network's shared tuples."""
        for pair in zip(switches, map(flow, flows)):
            yield network.pairs.setdefault(pair, pair)

    sol, ev = record["solution"], record["evaluation"]
    over_flows, over_switches, over_controllers = map(
        _unpack_ints, sol["pair_controller"]
    )
    prog_flows, prog_values = map(_unpack_ints, ev["programmability"])
    solution = RecoverySolution(
        algorithm=str(sol["algorithm"]),
        mapping=dict(sol["mapping"]),
        sdn_pairs=set(pairs(*map(_unpack_ints, sol["sdn_pairs"]))),
        pair_controller=dict(zip(
            pairs(over_flows, over_switches), over_controllers
        )),
        extra_overhead_ms=sol["extra_overhead_ms"],
        load_override=(
            None if sol["load_override"] is None else dict(sol["load_override"])
        ),
        solve_time_s=sol["solve_time_s"],
        feasible=bool(sol["feasible"]),
        meta=dict(sol["meta"]),
    )
    evaluation = RecoveryEvaluation(
        algorithm=solution.algorithm,
        feasible=bool(ev["feasible"]),
        programmability=dict(zip(map(flow, prog_flows), prog_values)),
        least_programmability=ev["least"],
        total_programmability=ev["total"],
        recovered_flows=ev["recovered_flows"],
        recoverable_flows=ev["recoverable_flows"],
        offline_flows=ev["offline_flows"],
        recovered_switches=ev["recovered_switches"],
        offline_switches=ev["offline_switches"],
        controller_load=dict(ev["controller_load"]),
        total_delay_ms=ev["total_delay_ms"],
        ideal_delay_ms=ev["ideal_delay_ms"],
        per_flow_overhead_ms=ev["per_flow_overhead_ms"],
        objective=ev["objective"],
        solve_time_s=ev["solve_time_s"],
        _recoverable_set=frozenset(map(flow, _unpack_ints(ev["recoverable"]))),
    )
    return solution, evaluation


def _pack_sorted(*columns: list[int]) -> list[dict[str, str]]:
    """Parallel int columns, rows sorted by the first column, then the
    second, ..., each packed with :func:`_pack_ints`.  (Sorting arrays,
    not row tuples, spares the garbage collector a tuple per flow.)
    """
    arrays = [np.asarray(column, dtype=np.int64) for column in columns]
    order = np.lexsort(arrays[::-1])
    return [_pack_ints(array[order]) for array in arrays]


def _pack_ints(values) -> dict[str, str]:
    """An int sequence as ``{"d": dtype, "b": base64}`` — one JSON token.

    Flow-position columns run to thousands of elements; as JSON lists
    they would cost more to parse than the solves they memoize.  The
    column is stored as first differences (sorted positions become runs
    of small steps) in the narrowest little-endian signed width that
    holds them, zlib-compressed: a WAN PM record shrinks from ~27 KB of
    plain packed columns to ~7 KB.
    """
    array = np.diff(np.asarray(values, dtype=np.int64), prepend=0)
    dtype = "<i8"
    for narrow in ("<i1", "<i2", "<i4"):
        info = np.iinfo(narrow)
        if array.size == 0 or (
            array.min() >= info.min and array.max() <= info.max
        ):
            dtype = narrow
            break
    raw = zlib.compress(array.astype(dtype).tobytes())
    return {"d": dtype, "b": base64.b64encode(raw).decode("ascii")}


def _unpack_ints(blob: dict[str, str]) -> list[int]:
    # binascii directly: base64.b64decode's wrapper costs more than the
    # decode itself at this call rate.
    raw = zlib.decompress(binascii.a2b_base64(blob["b"]))
    return np.cumsum(np.frombuffer(raw, dtype=blob["d"]), dtype=np.int64).tolist()


# ----------------------------------------------------------------------
# The disk store
# ----------------------------------------------------------------------

class SolveStore:
    """Disk-backed record store.

    Layout under ``root``::

        records/shard-XX.jsonl   # one JSON record per line, checksummed
        records/.lock            # writer lock (fcntl.flock)

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
        self._records_dir.mkdir(parents=True, exist_ok=True)
        self._shard_paths = tuple(
            self._records_dir / f"shard-{shard:02x}.jsonl"
            for shard in range(shards)
        )
        #: Per-shard in-memory index: shard -> (stat signature, {key: payload}).
        self._index: dict[int, tuple[tuple[int, int], dict[str, dict]]] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
            "gc_dropped": 0,
        }

    # -- records -------------------------------------------------------
    def _shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.shards

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

    def _parse_lines(self, data: bytes) -> dict[str, dict]:
        """Verified records from raw shard bytes; corrupt lines skipped.

        Key, sha and payload are sliced straight out of each line (the
        field order is fixed by :meth:`_encode_line`) and the checksum
        is verified over the payload substring — no re-dump.
        """
        records: dict[str, dict] = {}
        head, sha_mark, pay_mark = (
            self._LINE_HEAD, self._SHA_MARK, self._PAYLOAD_MARK
        )
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            cut = line.find(sha_mark, len(head))
            body = cut + len(sha_mark) + 16
            payload_bytes = line[body + len(pay_mark):-1]
            try:
                if not (
                    line.startswith(head)
                    and line.endswith(b"}")
                    and cut > 0
                    and line[body:body + len(pay_mark)] == pay_mark
                    and hashlib.sha256(payload_bytes).hexdigest()[:16].encode()
                    == line[cut + len(sha_mark):body]
                ):
                    raise ValueError("malformed or corrupt record line")
                # The key is a JSON string ending just before the sha mark.
                key = json.loads(line[len(head) - 1:cut + 1])
                records[key] = json.loads(payload_bytes)
            except ValueError:
                self.stats["corrupt"] += 1
        return records

    def _shard_records(self, shard: int) -> dict[str, dict]:
        """The shard's verified records, re-read only when the file changed."""
        path = self._shard_paths[shard]
        try:
            stat = path.stat()
            sig = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._index[shard] = ((-1, -1), {})
            return self._index[shard][1]
        cached = self._index.get(shard)
        if cached is not None and cached[0] == sig:
            return cached[1]
        try:
            data = path.read_bytes()
        except OSError:
            data = b""
        records = self._parse_lines(data)
        self._index[shard] = (sig, records)
        return records

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None`` (lock-free)."""
        payload = self._shard_records(self._shard_of(key)).get(key)
        self.stats["misses" if payload is None else "hits"] += 1
        return payload

    @contextmanager
    def _locked(self):
        """Writer lock shared by every process using this store root."""
        fd = os.open(self._records_dir / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def put(self, key: str, payload: dict) -> bool:
        """Append ``payload`` under ``key``; ``False`` if already present."""
        return self.put_many([(key, payload)]) == 1

    def put_many(self, items: list[tuple[str, dict]]) -> int:
        """Append records that are not yet present; returns writes.

        Single-writer append: each shard is re-read *under the lock*
        before writing, so two processes racing on one key produce one
        record, and the lock round-trip and per-shard fsync are paid
        once per batch.  Keys already visible in the stat-validated
        index skip the lock altogether (a concurrent GC dropping one
        right now is indistinguishable from GC dropping it just after a
        locked put, so put-if-absent stays honest).  A torn tail left by
        a crashed writer (no trailing newline) is repaired by prefixing
        a newline — the torn fragment stays an isolated, checksum-failing
        line that readers skip.
        """
        by_shard: dict[int, list[tuple[str, dict]]] = {}
        for key, payload in items:
            shard = self._shard_of(key)
            if key not in self._shard_records(shard):
                by_shard.setdefault(shard, []).append((key, payload))
        if not by_shard:
            return 0
        written = 0
        with self._locked():
            for shard, group in sorted(by_shard.items()):
                self._index.pop(shard, None)  # force a fresh read under the lock
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
                with open(self._shard_paths[shard], "a+b") as fh:
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
                total += self._shard_paths[shard].stat().st_size
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
                path = self._shard_paths[shard]
                try:
                    data = path.read_bytes()
                except OSError:
                    continue
                kept = [ln for ln in data.split(b"\n") if ln.strip()]
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

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict[str, object]:
        """JSON-safe stats snapshot (benchmarks, campaign summaries)."""
        return {"root": str(self.root), **self.stats}
