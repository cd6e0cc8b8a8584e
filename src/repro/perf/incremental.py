"""Incremental cross-scenario solving: delta chains and solution repair.

A failure sweep solves C(M, k) instances that differ only in which
controllers are offline.  Solving them independently throws away the
similarity; this module exploits it without ever changing an answer:

:func:`hamming_chain`
    Orders scenarios into a greedy minimum-Hamming-distance chain, so
    consecutive solves differ in as few failed controllers as possible.
:func:`chain_segments`
    Splits a chain into contiguous segments, one per worker — each
    worker walks its segment sequentially, threading a
    :class:`~repro.fmssm.optimal.WarmChain` through the solves.
:func:`repair_solution`
    Repairs the previous scenario's solution into the next instance —
    drop assignments to now-failed controllers, remap orphaned switches
    to their nearest active controller, and re-saturate capacity with
    the vectorized grouped-selection kernel.  The result seeds the next
    exact solve (B&B incumbent / timeout fallback).

The repaired solution is a *seed*, not an answer: downstream it passes
through :meth:`~repro.perf.compile.CompiledFMSSM.embed_solution`, which
rejects anything violating the compiled form, so a repair that cannot be
made feasible (e.g. under ``r >= 1`` full recovery) simply yields no
seed and the solve proceeds exactly as an independent one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fmssm.solution import RecoverySolution
from repro.perf.kernels import grouped_capacity_select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.failures import FailureScenario
    from repro.fmssm.instance import FMSSMInstance

__all__ = ["hamming_chain", "chain_segments", "repair_solution"]


def _failed_set(scenario: object) -> frozenset:
    """The failed-controller set of a scenario (or a bare set)."""
    failed = getattr(scenario, "failed", scenario)
    return frozenset(failed)


def hamming_chain(scenarios: Sequence["FailureScenario"]) -> list[int]:
    """Greedy nearest-neighbor ordering of scenarios by failure-set delta.

    Starts from index 0 (the sweep's first scenario) and repeatedly
    appends the unvisited scenario whose failed set has the smallest
    symmetric difference with the current one, breaking ties by original
    index — fully deterministic, so checkpoint resume replays the same
    chain.  O(n²) set comparisons; sweeps enumerate at most a few
    thousand scenarios, where this is microseconds per scenario.
    """
    n = len(scenarios)
    if n == 0:
        return []
    sets = [_failed_set(s) for s in scenarios]
    remaining = set(range(1, n))
    order = [0]
    current = sets[0]
    while remaining:
        best = min(remaining, key=lambda i: (len(current ^ sets[i]), i))
        remaining.remove(best)
        order.append(best)
        current = sets[best]
    return order


def chain_segments(order: Sequence[int], k: int) -> list[list[int]]:
    """Split a chain into ``k`` balanced contiguous segments.

    Segments preserve chain adjacency (each worker's warm chain stays
    warm); the first ``len(order) % k`` segments get one extra element.
    Empty segments are dropped, so fewer than ``k`` lists come back when
    the chain is short.
    """
    if k <= 0:
        raise ValueError(f"segment count must be positive: {k!r}")
    n = len(order)
    base, extra = divmod(n, k)
    segments: list[list[int]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        segments.append(list(order[start : start + size]))
        start += size
    return segments


def repair_solution(
    instance: "FMSSMInstance",
    neighbor: RecoverySolution,
    enforce_delay: bool = True,
) -> RecoverySolution | None:
    """Repair ``neighbor`` (a different scenario's solution) into ``instance``.

    Keeps every switch→controller assignment that is still valid, remaps
    the rest to the nearest active controller, then re-selects SDN pairs
    under the capacity budget — neighbor-served pairs first (continuity),
    the remaining programmable pairs after, both in deterministic sorted
    order through :func:`~repro.perf.kernels.grouped_capacity_select`.
    With ``enforce_delay`` the tail of the selection is dropped until the
    total propagation delay fits the ideal recovery delay ``G``.

    Returns ``None`` when the neighbor is infeasible or the instance has
    no programmable pairs — no seed is better than a meaningless one.
    """
    if not neighbor.feasible:
        return None
    arrays = instance.pair_arrays()
    if not instance.pairs:
        return None

    controller_set = set(instance.controllers)
    mapping = {}
    for switch in instance.switches:
        controller = neighbor.mapping.get(switch)
        if controller not in controller_set:
            controller = instance.nearest[switch]
        mapping[switch] = controller

    # Candidate scan order: the neighbor's surviving pairs first, then
    # everything else, each block in sorted pair order.
    pair_index = arrays.pair_index
    kept = sorted(
        pair_index[pair] for pair in neighbor.active_pairs() if pair in pair_index
    )
    kept_mask = np.zeros(len(instance.pairs), dtype=bool)
    kept_arr = np.asarray(kept, dtype=np.int64)
    kept_mask[kept_arr] = True
    rest = np.flatnonzero(~kept_mask)
    scan = np.concatenate([kept_arr, rest])

    controller_pos = {c: i for i, c in enumerate(instance.controllers)}
    ctrl_of_switch = np.fromiter(
        (controller_pos[mapping[s]] for s in instance.switches),
        dtype=np.int64,
        count=len(instance.switches),
    )
    capacity = np.fromiter(
        (instance.spare[c] for c in instance.controllers),
        dtype=np.int64,
        count=len(instance.controllers),
    )
    groups = ctrl_of_switch[arrays.switch_code[scan]]
    chosen = scan[grouped_capacity_select(groups, capacity)]

    if enforce_delay and chosen.size:
        delays = np.fromiter(
            (
                instance.delay[(instance.switches[code], mapping[instance.switches[code]])]
                for code in arrays.switch_code[chosen].tolist()
            ),
            dtype=np.float64,
            count=len(chosen),
        )
        total = float(delays.sum())
        keep = len(chosen)
        while keep > 0 and total > instance.ideal_delay_ms:
            keep -= 1
            total -= float(delays[keep])
        chosen = chosen[:keep]

    pairs = instance.pairs
    sdn_pairs = {pairs[k] for k in chosen.tolist()}
    return RecoverySolution(
        algorithm="chain-repair",
        mapping=mapping,
        sdn_pairs=sdn_pairs,
        feasible=True,
        meta={"seed_from": neighbor.algorithm, "kept_pairs": int(kept_mask.sum())},
    )
