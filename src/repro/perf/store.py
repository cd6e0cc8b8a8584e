"""Cross-run solve memoization (``repro.perf.store``).

:class:`~repro.perf.executor.SweepExecutor` keeps artifacts warm only
within one parent process's lifetime — every fresh CLI invocation,
restart or *concurrent* parent re-solves the same failure
scenarios from scratch.  This module closes that gap with a disk-backed
store shared across processes and runs:

Scenario keys
    :func:`scenario_key` names one failure scenario of one network as
    solved by one build of the code: a digest of the context's network
    digest (:func:`network_key` — the filled grounding index, hashed
    once per context), the sorted failed-controller set and
    :func:`code_identity` (every ``repro`` source file plus the numpy,
    scipy and Python versions).  :func:`solve_key` appends the algorithm
    and its solve parameters.  A key is computed without grounding the
    scenario, so a hit grounds nothing; and a store written by other
    code, or for another network, simply misses.

Positional records
    A record is a set of positions over the context's network frame
    (:meth:`GroundingIndex.network_frame
    <repro.fmssm.build.GroundingIndex.network_frame>`: every node, every
    controller, the flow population and every programmable entry of the
    filled grounding index).  :func:`encode_result` stores the plan as
    three int columns — each node's controller position (``-1``
    unmapped), the served pairs' entry positions ascending, and each
    served pair's controller position — and the evaluation as the
    offline flows' population positions, their programmability and the
    recoverable flows' positions, plus the scalars verbatim.  Columns
    take the narrowest signed width (ascending positions as their first
    differences), zlib-compressed and base64'd, so a WAN PM record is
    ~5 KB.  A hit (:func:`decode_result`) only unpacks the columns and
    wraps them: the solution and evaluation it returns are in the kept
    form a fresh solve is rebased to (:func:`~repro.fmssm.evaluation.
    rebase`), so a sweep's hits and misses are kept alike,
    and their ``mapping``/``sdn_pairs``/``pair_controller``/
    ``programmability`` dicts are built the first time a caller reads
    one — listing pairs flow-major and flows in population order, as
    replays always have.
    JSON round-trips every float, so a replay equals a fresh solve.

Sharded, checksummed record store
    :class:`SolveStore` appends JSON records to ``shards`` JSONL files
    under a single writer lock (``fcntl.flock``) with a put-if-absent
    re-check, so concurrent parents never duplicate a key.  Readers are
    lock-free: each shard is indexed in memory and re-read only when its
    ``(mtime_ns, size)`` changes.  Every record carries a SHA-256 of its
    payload — torn appends (a crash mid-write) and corrupt records are
    skipped and counted, never trusted.  :meth:`SolveStore.gc` bounds
    the store's size by atomically rewriting shards oldest-first; every
    write that takes the store past ``max_bytes`` runs it.

The sweep layer re-validates hits against the grounded instance when it
runs with ``validate=True`` (mirroring how fresh solves are validated),
and under an active chaos plan it bypasses the store entirely so fault
injection still exercises real solves.
"""

from __future__ import annotations

import base64
import binascii
import copy
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.control.failures import FailureScenario
from repro.exceptions import SolutionError
from repro.fmssm.arrays import Frame, narrowest
from repro.fmssm.point import empty_placement, resolve_ids
from repro.fmssm.solution import Placement, RecoverySolution

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
    edit to the source moves every key, so no store replays an answer
    that other code produced.
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
    """What the store keys one context's network by, computed once per
    context: ``digest`` covers every grounding input (see
    :func:`network_key`).  Records are positions of the context's
    network frame (:func:`encode_result`), which the grounding index
    builds."""

    digest: str


def network_key(context) -> NetworkKey:
    """The context's :class:`NetworkKey`, cached beside its grounding index.

    The digest is the filled grounding index's
    (:meth:`GroundingIndex.digest <repro.fmssm.build.GroundingIndex.digest>`,
    with the context's delay model): every instance of the context is
    sliced from that index, so two contexts that ground different
    instances for some scenario never share a digest, and equal contexts
    built in different processes always do.  The first call fills the
    index (:meth:`~repro.experiments.scenarios.ExperimentContext.
    materialize_table`), as a store sweep's records need anyway.
    """
    cached = context._network_key
    if cached is None:
        digest = context.materialize_table().digest(context.delay_model)
        cached = context._network_key = NetworkKey(digest=digest)
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
    carry only the scenario key and the name; exact solves
    (:data:`~repro.baselines.TIME_LIMITED_ALGORITHMS`, each of which
    runs under the limit) additionally key on the time limit
    (conservative — a completed solve does not depend on the limit, but
    sharing across limits would make a hit's provenance ambiguous).
    """
    from repro.baselines import TIME_LIMITED_ALGORITHMS

    if algorithm in TIME_LIMITED_ALGORITHMS:
        params = hashlib.sha256(
            repr(float(optimal_time_limit_s)).encode()
        ).hexdigest()[:12]
    else:
        params = "-"
    return f"{key}:{algorithm}:{params}"


# ----------------------------------------------------------------------
# Records: solution + evaluation as positions of the network frame
# ----------------------------------------------------------------------

def encode_result(context, solution: RecoverySolution, evaluation) -> dict:
    """``solution`` and its ``evaluation`` as a JSON-safe store record.

    The plan is stored as its :class:`~repro.fmssm.solution.Placement`
    over the context's network frame — the controller position of every
    node, the served pairs' entry positions and their controllers — and
    the evaluation as the offline flows' network positions, their
    programmability and the recoverable flows' positions, each an int
    column (:func:`_pack_ints`; ascending positions as their steps,
    :func:`_pack_positions`); everything else is ids and scalars copied
    verbatim, except the two wall clocks (:func:`_pack_clock`).
    ``meta`` is label-free scalars by contract, so it needs no
    translation.

    A result in the kept form (positions of the network frame: a fresh
    solve :func:`~repro.fmssm.evaluation.rebase` moved there, or a
    decoded hit) is packed as it is; any other (dict-built, as pool
    results and a caller's own are, or an instance's positions) is
    resolved by id with :func:`~repro.fmssm.point.resolve_ids` onto the
    same columns (an instance's positions through a copy, so encoding
    reads no view of the caller's result).  Only served pairs are recorded: an SDN pair no
    controller serves, or a per-pair controller equal to its switch's
    mapping, is not part of the plan.
    """
    network = context.network_frame()
    placement = _network_placement(network, solution)
    flows, pro, recoverable = _network_values(network, evaluation)
    return {
        "solution": {
            "algorithm": solution.algorithm,
            "switch_ctrl": _pack_ints(placement.switch_ctrl),
            "pairs": _pack_positions(placement.pairs),
            "pair_ctrl": _pack_ints(placement.pair_ctrl),
            "extra_overhead_ms": solution.extra_overhead_ms,
            "load_override": (
                None
                if solution.load_override is None
                else sorted(solution.load_override.items())
            ),
            "solve_time_s": _pack_clock(solution.solve_time_s),
            "feasible": solution.feasible,
            "meta": dict(solution.meta),
        },
        "evaluation": {
            "feasible": evaluation.feasible,
            "flows": _pack_positions(flows),
            "programmability": _pack_ints(pro),
            "recoverable": _pack_positions(recoverable),
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
            "solve_time_s": _pack_clock(evaluation.solve_time_s),
        },
    }


def decode_result(context, record: dict):
    """``(solution, evaluation)`` from an :func:`encode_result` record.

    Unpacks the record's int columns straight into the kept form
    (:func:`~repro.fmssm.evaluation.rebase`'s widths: positions int32,
    controllers the network's width, ``pro`` as stored; the arrays are
    read-only) and wraps them as positions of the context's network
    frame — no instance is read and no per-pair or per-flow object is
    built until a caller reads a dict view, which lists pairs flow-major
    and flows in population order.  Every call returns fresh,
    independently mutable objects.  ``solve_time_s`` replays the stored
    wall clock.
    """
    from repro.fmssm.evaluation import FlowValues, RecoveryEvaluation

    network = context.network_frame()
    sol, ev = record["solution"], record["evaluation"]
    width = narrowest(-1, len(network.controllers) - 1)
    placement = Placement(
        network,
        _column(sol["switch_ctrl"]).astype(width, copy=False),
        _unpack_positions(sol["pairs"]),
        _column(sol["pair_ctrl"]).astype(width, copy=False),
    )
    solution = RecoverySolution.positional(
        placement,
        algorithm=str(sol["algorithm"]),
        extra_overhead_ms=sol["extra_overhead_ms"],
        load_override=(
            None if sol["load_override"] is None else dict(sol["load_override"])
        ),
        solve_time_s=float(sol["solve_time_s"]),
        feasible=bool(sol["feasible"]),
        meta=dict(sol["meta"]),
    )
    evaluation = RecoveryEvaluation.positional(
        FlowValues(
            network,
            _column(ev["programmability"]),
            _unpack_positions(ev["flows"]),
            _unpack_positions(ev["recoverable"]),
        ),
        algorithm=solution.algorithm,
        feasible=bool(ev["feasible"]),
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
        solve_time_s=float(ev["solve_time_s"]),
    )
    return solution, evaluation


def _pack_clock(seconds: float) -> str:
    """A wall clock as fixed-width text, so a record's length does not
    depend on how long the solve took.  17 significant digits round-trip
    every float exactly."""
    return format(seconds, ".16e")


def _network_placement(network: Frame, solution: RecoverySolution) -> Placement:
    """``solution``'s served plan as positions of ``network``."""
    if not solution.feasible:
        return empty_placement(network)
    own = solution.positions()
    if own is not None and own.frame is network:
        return own
    if own is not None:  # an instance's positions: by id, read from a copy
        solution = copy.copy(solution)
    placement, problems = resolve_ids(network, solution)
    if problems:
        raise SolutionError(f"cannot store {solution.algorithm!r}: {problems[0][1]}")
    return placement


def _network_values(network: Frame, evaluation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``evaluation``'s listed flows (ascending network positions), their
    programmability and the recoverable flows' network positions."""
    own = evaluation.positions()
    if own is not None and own.frame is network:
        flows = network.network_pos if own.flows is None else own.flows
        return flows, own.pro, own.recoverable
    if own is not None:
        evaluation = copy.copy(evaluation)
    flow_pos = network.flow_pos.__getitem__
    values = evaluation.programmability
    flows = np.fromiter(map(flow_pos, values), dtype=np.int64, count=len(values))
    order = np.argsort(flows, kind="stable")
    pro = np.fromiter(values.values(), dtype=np.int64, count=len(values))
    recoverable = np.fromiter(map(flow_pos, evaluation._recoverable_set), dtype=np.int64)
    return flows[order], pro[order], np.sort(recoverable)


def _pack_positions(positions: np.ndarray) -> dict[str, str]:
    """Ascending positions as :func:`_pack_ints` of their first
    differences: runs of small steps, which pack narrow and compress well."""
    positions = np.asarray(positions, dtype=np.int64)
    steps = np.empty_like(positions)
    steps[:1] = positions[:1]
    np.subtract(positions[1:], positions[:-1], out=steps[1:])
    return _pack_ints(steps)


def _pack_ints(values: np.ndarray) -> dict[str, str]:
    """An int column as ``{"d": dtype, "b": base64}`` — one JSON token.

    Columns run to thousands of elements; as JSON lists they would cost
    more to parse than the solves they memoize.  The column is stored in
    the narrowest little-endian signed width that holds it
    (:func:`~repro.fmssm.arrays.narrowest`), zlib-compressed at level 1
    (higher levels save little on these columns and cost several times
    the time).
    """
    values = np.asarray(values)
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    dtype = narrowest(low, high)
    raw = zlib.compress(values.astype(dtype, copy=False).tobytes(), 1)
    return {"d": dtype, "b": base64.b64encode(raw).decode("ascii")}


def _unpack_positions(blob: dict[str, str]) -> np.ndarray:
    """Kept positions are int32."""
    return np.cumsum(_column(blob), dtype=np.int32)


def _column(blob: dict[str, str]) -> np.ndarray:
    """The stored column, read-only, in its stored width."""
    # binascii directly: base64.b64decode's wrapper costs more than the
    # decode itself at this call rate.
    raw = zlib.decompress(binascii.a2b_base64(blob["b"]))
    return np.frombuffer(raw, dtype=blob["d"])


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
        self._index: dict[int, tuple[tuple[int, int, int], dict[str, dict]]] = {}
        self.stats = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
            "gc_dropped": 0,
        }
        # Every key carries the code identity, which hashes the source
        # and imports scipy for its version: pay that at open, not in
        # the first request.
        code_identity()

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

    @staticmethod
    def _signature(stat: os.stat_result) -> tuple[int, int, int]:
        """A shard file's identity: the inode tells a GC's ``os.replace``
        from the file it replaced, mtime and size an append."""
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _shard_records(self, shard: int) -> dict[str, dict]:
        """The shard's verified records, re-read only when the file changed."""
        path = self._shard_paths[shard]
        try:
            sig = self._signature(path.stat())
        except OSError:
            self._index[shard] = ((-1, -1, -1), {})
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

        Each shard is checked *under the lock* before writing — re-read
        only if its stat signature moved since this handle's index was
        taken, i.e. another writer or a GC touched it — so two processes
        racing on one key produce one record, and the lock round-trip
        and per-shard fsync are paid once per batch.  As every writer
        and GC holds the lock, the shard is then the records checked
        under it plus the lines written: the index keeps those, keyed by
        the stat after the fsync, so neither the next :meth:`get` nor a
        single writer's next batch parses anything.  Keys already visible
        in the stat-validated index skip the lock altogether (a
        concurrent GC dropping one right now is indistinguishable from GC
        dropping it just after a locked put, so put-if-absent stays
        honest).  A torn tail left by a crashed writer (no trailing
        newline) is repaired by prefixing a newline — the torn fragment
        stays an isolated, checksum-failing line that readers skip.

        Once the lock is released, a write that takes the shards this
        handle has indexed past ``max_bytes`` runs :meth:`gc`, so every
        writer keeps the store within its bound.
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
                present = self._shard_records(shard)
                lines = {}
                for key, payload in group:
                    if key not in present and key not in lines:
                        lines[key] = self._encode_line(key, payload)
                if not lines:
                    continue
                with open(self._shard_paths[shard], "a+b") as fh:
                    fh.seek(0, io.SEEK_END)
                    if fh.tell() > 0:
                        fh.seek(-1, io.SEEK_END)
                        if fh.read(1) != b"\n":
                            fh.write(b"\n")
                    fh.write(b"".join(line + b"\n" for line in lines.values()))
                    fh.flush()
                    os.fsync(fh.fileno())
                    stat = os.fstat(fh.fileno())
                mark = self._PAYLOAD_MARK
                for key, line in lines.items():
                    present[key] = json.loads(line[line.index(mark) + len(mark) : -1])
                self._index[shard] = (self._signature(stat), present)
                written += len(lines)
        self.stats["writes"] += written
        if written and self._indexed_bytes() > self.max_bytes:
            self.gc()
        return written

    # -- size-bounded GC ----------------------------------------------
    def _indexed_bytes(self) -> int:
        """Size of the shards as this handle last saw them (no syscall)."""
        return sum(max(sig[2], 0) for sig, _ in self._index.values())

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
        """JSON-safe stats snapshot (benchmarks)."""
        return {"root": str(self.root), **self.stats}
