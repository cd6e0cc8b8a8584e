"""Checkpoint/resume for failure sweeps and campaigns.

A long sweep killed at task 700 of 1000 should not redo the first 700
solves.  :class:`SweepCheckpoint` persists completed
:class:`~repro.experiments.runner.ScenarioResult`\\ s as JSON — in
deterministic scenario order, with floats serialized via ``repr`` so
they round-trip bit-exactly — and a resumed sweep restores them and runs
only the remainder.  Evaluations are *recomputed* from the restored
solutions (the evaluator is deterministic), so a resumed sweep's results
are indistinguishable from an uninterrupted run apart from wall clocks.

The file carries a fingerprint of the sweep's identity — its scenario
keys (:func:`~repro.perf.store.scenario_key`: network digest, failed
set, code identity), algorithms and time limit — so resuming against a
different sweep, a different network or different code raises
:class:`CheckpointError` instead of silently mixing results.  Writes
are atomic (tmp file + ``os.replace``) so a crash mid-write leaves the
previous checkpoint intact.

:class:`CampaignJournal` scales the same guarantee to *campaigns* (many
sweeps over one context, :func:`~repro.perf.executor.run_campaign`)
with a crash-only write-ahead log: one fsynced JSON line per completed
sweep, appended and never rewritten while the campaign runs.  A killed
campaign resumes by replaying the journal — completed sweeps restore
bit-identically without re-solving, the in-flight sweep resumes from
its own per-sweep checkpoint file, and a torn final line (the only
state a hard kill can leave behind) is discarded as not-yet-committed.
The journal auto-compacts when the campaign completes.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import CheckpointError
from repro.fmssm.solution import RecoverySolution
from repro.resilience.degradation import DegradationReport

__all__ = [
    "SweepCheckpoint",
    "sweep_fingerprint",
    "CampaignJournal",
    "campaign_fingerprint",
]

CHECKPOINT_SCHEMA = 1
JOURNAL_SCHEMA = 1


def sweep_fingerprint(
    scenario_keys: Sequence[str],
    algorithms: Sequence[str],
    optimal_time_limit_s: float,
) -> str:
    """Stable identity of a sweep: same inputs ⇒ same fingerprint.

    ``scenario_keys`` are the sweep's :func:`~repro.perf.store.
    scenario_key`\\ s, so the fingerprint moves with the network and
    with the code as well as with the scenarios.
    """
    blob = repr(
        (tuple(scenario_keys), tuple(algorithms), float(optimal_time_limit_s))
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# Solution <-> JSON (bit-exact: ids are ints, floats use repr round-trip)
# ----------------------------------------------------------------------

def _pair_to_json(pair: tuple) -> list:
    switch, flow_id = pair
    return [switch, list(flow_id)]


def _pair_from_json(item: list) -> tuple:
    return (item[0], tuple(item[1]))


def solution_to_json(solution: RecoverySolution) -> dict[str, object]:
    """A JSON-safe dict capturing every field of a solution."""
    return {
        "algorithm": solution.algorithm,
        "mapping": [[s, c] for s, c in sorted(solution.mapping.items())],
        "sdn_pairs": [_pair_to_json(p) for p in sorted(solution.sdn_pairs)],
        "pair_controller": [
            [_pair_to_json(p), c]
            for p, c in sorted(solution.pair_controller.items())
        ],
        "extra_overhead_ms": solution.extra_overhead_ms,
        "load_override": (
            None
            if solution.load_override is None
            else [[c, n] for c, n in sorted(solution.load_override.items())]
        ),
        "solve_time_s": solution.solve_time_s,
        "feasible": solution.feasible,
        "meta": dict(solution.meta),
    }


def solution_from_json(payload: dict[str, object]) -> RecoverySolution:
    """Inverse of :func:`solution_to_json`."""
    return RecoverySolution(
        algorithm=str(payload["algorithm"]),
        mapping={s: c for s, c in payload["mapping"]},
        sdn_pairs={_pair_from_json(p) for p in payload["sdn_pairs"]},
        pair_controller={
            _pair_from_json(p): c for p, c in payload["pair_controller"]
        },
        extra_overhead_ms=payload["extra_overhead_ms"],
        load_override=(
            None
            if payload["load_override"] is None
            else {c: n for c, n in payload["load_override"]}
        ),
        solve_time_s=payload["solve_time_s"],
        feasible=bool(payload["feasible"]),
        meta=dict(payload["meta"]),
    )


def result_to_json(result: "ScenarioResult") -> dict[str, object]:  # noqa: F821
    """Serialize one completed scenario (solutions + degradation trail)."""
    return {
        "scenario": sorted(result.scenario.failed),
        "solutions": {
            algorithm: solution_to_json(solution)
            for algorithm, solution in result.solutions.items()
        },
        "degradation": (
            None if result.degradation is None else result.degradation.to_dict()
        ),
        "meta": result.meta,
    }


def result_from_json(
    context: "ExperimentContext",  # noqa: F821
    scenario: "FailureScenario",  # noqa: F821
    payload: dict[str, object],
) -> "ScenarioResult":  # noqa: F821
    """Rebuild a :class:`ScenarioResult`, recomputing its evaluations."""
    from repro.experiments.runner import ScenarioResult
    from repro.fmssm.evaluation import evaluate_solution

    stored = sorted(payload["scenario"])
    if stored != sorted(scenario.failed):
        raise CheckpointError(
            f"checkpoint scenario {stored!r} does not match sweep scenario "
            f"{sorted(scenario.failed)!r}"
        )
    result = ScenarioResult(scenario=scenario)
    instance = context.instance(scenario)
    for algorithm, solution_payload in payload["solutions"].items():
        solution = solution_from_json(solution_payload)
        result.solutions[algorithm] = solution
        result.evaluations[algorithm] = evaluate_solution(instance, solution)
    if payload.get("degradation") is not None:
        result.degradation = DegradationReport.from_dict(payload["degradation"])
    # ``meta`` arrived with the fan-out stats work; older checkpoints
    # (schema 1 without the key) restore with an empty dict.
    result.meta = dict(payload.get("meta", {}))
    return result


class SweepCheckpoint:
    """Atomic JSON persistence of a sweep's completed scenarios."""

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def load(self) -> dict[int, dict[str, object]]:
        """Completed scenario payloads keyed by scenario index.

        Returns an empty dict when no checkpoint exists yet; raises
        :class:`CheckpointError` for unreadable files or a fingerprint
        from a different sweep.
        """
        if not self.path.exists():
            return {}
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {self.path}: {exc}") from exc
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {self.path} has unsupported schema "
                f"{payload.get('schema')!r}"
            )
        if payload.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different sweep "
                f"(fingerprint {payload.get('fingerprint')!r} != "
                f"{self.fingerprint!r})"
            )
        return {int(index): item for index, item in payload.get("completed", {}).items()}

    def save(self, completed: dict[int, dict[str, object]]) -> None:
        """Atomically write all completed scenarios in index order."""
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "n_completed": len(completed),
            "completed": {
                str(index): completed[index] for index in sorted(completed)
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Delete the checkpoint file (called when a sweep completes)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Campaign write-ahead log (crash-only: append, fsync, replay, compact)
# ----------------------------------------------------------------------

def campaign_fingerprint(sweep_fingerprints: Sequence[str]) -> str:
    """Stable identity of a campaign: the ordered per-sweep fingerprints.

    Each per-sweep fingerprint already covers its scenario keys (and
    through them the network and the code), algorithms and time limit,
    so hashing the ordered tuple pins the whole campaign without
    re-serializing anything.
    """
    blob = repr(tuple(sweep_fingerprints)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class CampaignJournal:
    """Append-only, fsynced JSONL journal of a campaign's completed sweeps.

    Line 1 is a header (schema + campaign fingerprint); every following
    line commits one completed sweep: its caller-order index, its sweep
    fingerprint, and the full :func:`result_to_json` payloads of its
    results.  Appends are flushed and ``os.fsync``\\ ed before the write
    returns, so a committed line survives any kill; a kill *during* an
    append leaves at most one torn trailing line, which :meth:`load`
    discards (the sweep simply re-runs — crash-only semantics, no repair
    step).  :meth:`compact` rewrites the file atomically keeping only
    the latest entry per sweep, in index order.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def load(self) -> dict[int, dict[str, object]]:
        """Committed sweep entries keyed by sweep index (latest wins).

        Returns an empty dict when no journal exists.  Raises
        :class:`CheckpointError` for a header from a different campaign
        or corruption anywhere but the final line; a torn final line is
        silently dropped.
        """
        if not self.path.exists():
            return {}
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CheckpointError(f"unreadable journal {self.path}: {exc}") from exc
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise CheckpointError(
                f"journal {self.path} has a corrupt header line"
            ) from exc
        if header.get("schema") != JOURNAL_SCHEMA or header.get("kind") != "campaign":
            raise CheckpointError(
                f"journal {self.path} has unsupported header {header!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"journal {self.path} belongs to a different campaign "
                f"(fingerprint {header.get('fingerprint')!r} != "
                f"{self.fingerprint!r})"
            )
        entries: dict[int, dict[str, object]] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                index = int(entry["sweep"])
                entry["results"]
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines):
                    break  # torn final append from a hard kill: not committed
                raise CheckpointError(
                    f"journal {self.path} is corrupt at line {lineno}"
                ) from exc
            entries[index] = entry
        return entries

    def append(self, index: int, fingerprint: str, results: Sequence[dict]) -> None:
        """Commit one completed sweep (fsynced before returning)."""
        entry = {
            "sweep": int(index),
            "fingerprint": fingerprint,
            "results": list(results),
        }
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        new_file = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as handle:
            if new_file:
                handle.write(
                    json.dumps(
                        {
                            "schema": JOURNAL_SCHEMA,
                            "kind": "campaign",
                            "fingerprint": self.fingerprint,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def compact(self) -> None:
        """Atomically rewrite the journal: header + latest entry per sweep."""
        entries = self.load()
        if not entries and not self.path.exists():
            return
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "schema": JOURNAL_SCHEMA,
                        "kind": "campaign",
                        "fingerprint": self.fingerprint,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            for index in sorted(entries):
                handle.write(json.dumps(entries[index], separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Delete the journal file."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
