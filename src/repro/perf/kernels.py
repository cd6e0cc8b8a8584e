"""NumPy-vectorized kernels for the four non-exact recovery algorithms.

The reference implementations (:class:`repro.pm.algorithm.
ProgrammabilityMedic` and the private ``_solve_*_reference`` functions
of ``repro.baselines.*``) read the :class:`~repro.fmssm.instance.
FMSSMInstance` through per-pair dict lookups and per-pick ``sorted()``
calls — the right shape for auditing against the paper's pseudo-code,
but several times slower than the arithmetic they perform.  This module
holds the production kernels, which every public solver entry
(``solve_pm``, ``solve_pg``, ``solve_retroflow``, ``solve_nearest``)
runs: every hot loop is re-expressed over dense position-indexed arrays
(:class:`InstanceArrays`) so the per-solve cost is a handful of numpy
reductions plus short Python loops over switches, not pairs; PM's
phase 1 works on one Python-int bitset of flows per switch.

Equivalence contract
--------------------
Each kernel is **bit-identical** to its reference — same ``mapping``,
``sdn_pairs``, ``pair_controller`` and per-flow programmability on
every instance, enforced by ``tests/test_perf_kernels.py``.  A kernel
returns its answer as positions (:meth:`RecoverySolution.positional`);
those dicts are views of them.  The
tie-breaking rules that make this hold (see DESIGN §10):

* ``instance.switches`` / ``instance.controllers`` /
  ``instance.recoverable_flows`` are sorted, and ``instance.pairs`` is
  lexicographically sorted — so *position* order equals *id* order, and
  a first-occurrence ``argmax``/``argmin`` over positions reproduces
  ``max()``/``min()`` with an id tie-break exactly;
* every descending sort uses ``np.argsort(-key, kind="stable")``, which
  preserves ascending position order among ties — the same order the
  references' ``(-key, id)`` tuple sorts produce;
* ``delay_order`` rows are stable argsorts of the delay matrix, i.e.
  the ``(delay, controller_id)`` ascending order every reference sorts
  controllers by;
* PM's flow bitsets number a flow by its rank in flow-id order, so a
  switch's bits from the lowest up are its pairs in scan order, and
  PM's heap of ``(-count, switch position)`` pops the lowest switch id
  among equal counts;
* float accumulations that feed a comparison (the strict-PM delay
  budget) stay sequential Python loops so the rounding history matches
  the reference addition for addition.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.fmssm.arrays import InstanceArrays, seq_lists
from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import Placement, RecoverySolution
from repro.types import FLOWVISOR_PROCESSING_MS

__all__ = [
    "InstanceArrays",
    "grouped_capacity_select",
    "instance_arrays",
    "prepare_instance",
    "solve_pm_array",
    "solve_pg_array",
    "solve_retroflow_array",
    "solve_nearest_array",
]


def grouped_capacity_select(groups: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Scan positions of the first ``capacity[g]`` members of each group.

    ``groups`` lists each candidate's group id in scan order.  Because a
    candidate only consumes its *own* group's budget, the sequential
    scan "take while the group's budget lasts" selects, per group,
    exactly its first ``capacity[g]`` candidates — which this computes
    with one stable sort instead of a per-candidate loop.  The returned
    positions index into the scan order, ascending, so downstream
    bookkeeping sees the same activation set the loop would produce.
    """
    if groups.size == 0:
        return groups
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    new_group = np.empty(len(order), dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=new_group[1:])
    boundaries = np.flatnonzero(new_group)
    sizes = np.empty(len(boundaries), dtype=np.int64)
    sizes[:-1] = boundaries[1:] - boundaries[:-1]
    sizes[-1] = len(order) - boundaries[-1]
    ranks = np.arange(len(order)) - np.repeat(boundaries, sizes)
    keep = ranks < capacity[sorted_groups]
    return np.sort(order[keep])


def instance_arrays(instance: FMSSMInstance) -> InstanceArrays:
    """The cached :class:`InstanceArrays` view of ``instance``.

    Grounding hands every instance its arrays ready; an instance built
    from dicts converts its fields on the first call
    (:meth:`FMSSMInstance.arrays`).  Later calls — from other kernels,
    the evaluator, or repeat solves on the same instance — return the
    same object: the instance is immutable, so the view never goes stale.
    """
    return instance.arrays()


def prepare_instance(instance: FMSSMInstance) -> InstanceArrays:
    """The instance's array view, with the switch-level list views.

    The view is *scenario data*, not algorithm work: sweeps and
    ``run_scenario`` call this right after grounding an instance so the
    one-time materialization is charged to instance preparation, shared
    by all four kernels and the batched evaluator — instead of landing
    in whichever solver happens to run first.  :func:`~repro.fmssm.
    arrays.build_arrays` builds the list views with the arrays, and a
    grounded instance arrives with both, so this only looks them up.
    PM's flow bitsets are PM's own work, built on its first solve.
    """
    return instance_arrays(instance)


# ----------------------------------------------------------------------
# PM — Algorithm 1 over arrays
# ----------------------------------------------------------------------
def _flow_bits(arrays: InstanceArrays) -> tuple[list[int], np.ndarray, int]:
    """Each switch's flows as a bitset, for PM's phase 1 (cached).

    Bit ``r`` is the recoverable flow of rank ``r`` in flow-id order
    (``recoverable_pos[r]``), so a switch's set bits from the lowest up
    are its pairs in order.  Also returns each pair's bit in the
    ``width``-byte rows the sets pack into (:func:`_unpack`).
    """
    cached = arrays.cache.get("flow_bits")
    if cached is None:
        rec = arrays.recoverable_pos
        rank = np.zeros(arrays.n_flows, dtype=np.intp)
        rank[rec] = np.arange(rec.size)
        width = rec.size // 8 + 1
        pair_bit = arrays.pair_switch * (8 * width) + rank[arrays.pair_flow]
        grid = np.zeros(len(arrays.switches) * 8 * width, dtype=bool)
        grid[pair_bit] = True
        rows = np.packbits(grid, bitorder="little").tobytes()
        bits = [
            int.from_bytes(rows[i : i + width], "little")
            for i in range(0, len(arrays.switches) * width, width)
        ]
        cached = arrays.cache["flow_bits"] = (bits, pair_bit, width)
    return cached


def _unpack(sets: list[int], pair_bit: np.ndarray, width: int) -> np.ndarray:
    """The pairs whose flow is in its switch's set, as a bool mask."""
    rows = b"".join(bits.to_bytes(width, "little") for bits in sets)
    return np.unpackbits(np.frombuffer(rows, dtype=np.uint8), bitorder="little")[pair_bit] == 1


def _lowest(bits: int, k: int) -> int:
    """The ``k`` lowest set bits of ``bits`` (``k`` below its popcount)."""
    lo, hi = k, bits.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (bits & ((1 << mid) - 1)).bit_count() >= k:
            hi = mid
        else:
            lo = mid + 1
    return bits & ((1 << lo) - 1)


def solve_pm_array(
    instance: FMSSMInstance,
    phase2_order: str = "paper",
    enforce_delay: bool = False,
    phase2: bool = True,
) -> RecoverySolution:
    """Array kernel for ProgrammabilityMedic (Algorithm 1).

    Phase 1 keeps the pick loop (its picks are sequential by nature)
    but runs it on bitsets of flows (:func:`_flow_bits`): ``flows[s]``
    holds switch ``s``'s flows, ``done[s]`` those activated at ``s``,
    and ``level`` the recoverable flows at the water line ``sigma``.  A
    flow's level only grows and a flip raises it by p̄ ≥ 2, so a flow
    sits at ``sigma`` exactly while it is in ``level`` (DESIGN §10).

    * A switch's count is ``popcount(flows[s] & level)``, active pairs
      included as the reference counts them.  Each pass heapifies
      ``(-count, s)``; counts only fall within a pass, so a top entry
      whose recount equals its key is the maximum, the lowest switch
      id among ties, and a stale one goes back down.  The pass ends
      when the maximum is 0.
    * A pick flips ``flows[s] & level & ~done[s]``, the reference's
      scan in flow-id order without the pairs it skips.  When the
      controller's budget or the strict delay budget (the reference's
      sequential additions, so the same rounding) stops it after ``k``
      flips, it keeps the ``k`` lowest bits.
    * ``sigma`` advances when ``level`` is empty at a pass boundary: a
      flow's level is the p̄ of its active pairs summed, one weighted
      ``bincount`` over the unpacked activations.

    Phase 2 without the delay bound is one grouped capacity selection
    (:func:`grouped_capacity_select`); the strict variants loop over
    the open pairs, because the delay budget depends on order and
    rounding history.  ``phase2=False`` skips phase 2 (the ablation).
    """
    if phase2_order not in ("paper", "greedy"):
        raise ValueError(f"phase2_order must be 'paper' or 'greedy': {phase2_order!r}")
    start = time.perf_counter()
    arrays = instance_arrays(instance)
    n = len(arrays.switches)
    m = len(arrays.controllers)
    pair_switch, pair_flow = arrays.pair_switch, arrays.pair_flow
    recoverable = arrays.recoverable_pos
    rows, gamma, delays = seq_lists(arrays)
    flows, pair_bit, width = _flow_bits(arrays)

    done = [0] * n
    level = (1 << recoverable.size) - 1
    avail = arrays.spare.tolist()
    ctrl_of = [-1] * n
    total_iterations = instance.total_iterations
    budget = instance.ideal_delay_ms + 1e-9
    total_delay = 0.0

    for test_count in range(1, total_iterations + 1):
        heap = [(-(bits & level).bit_count(), s) for s, bits in enumerate(flows)]
        heapq.heapify(heap)
        while heap:
            # Lines 5-15: the untested switch with the most level-sigma
            # pairs, ties toward the lowest switch id.
            key, s = heap[0]
            bits = flows[s] & level
            count = bits.bit_count()
            if count != -key:
                heapq.heapreplace(heap, (-count, s))
                continue
            if not count:
                break
            heapq.heappop(heap)
            c = ctrl_of[s]
            if c < 0:
                # Lines 17-28: nearest controller that fits the whole
                # switch, else the one with the most spare resource
                # (ties toward the lower controller id).
                g = gamma[s]
                for candidate in rows[s]:
                    if avail[candidate] >= g:
                        c = candidate
                        break
                else:
                    c = max(range(m), key=lambda j: (avail[j], -j))
                ctrl_of[s] = c
            # Lines 31-36: flip the inactive level-sigma pairs at s, in
            # flow-id order, while the budgets last.
            bits &= ~done[s]
            count = bits.bit_count()
            k = min(count, avail[c])
            if enforce_delay:
                delay_sc = delays[s][c]
                for flipped in range(k):
                    if total_delay + delay_sc > budget:
                        k = flipped
                        break
                    total_delay += delay_sc
            if k > 0:
                if k < count:
                    bits = _lowest(bits, k)
                avail[c] -= k
                done[s] |= bits
                level ^= bits
        if not level and test_count < total_iterations:
            # Every recoverable flow left sigma: advance it to the new
            # least level, once per sigma.
            active = _unpack(done, pair_bit, width)
            levels = np.bincount(
                pair_flow, weights=arrays.pair_pbar * active, minlength=arrays.n_flows
            )
            lowest = levels[recoverable]
            packed = np.packbits(lowest == lowest.min(), bitorder="little")
            level = int.from_bytes(packed.tobytes(), "little")

    # Phase 2 (lines 42-50): saturate leftover capacity on mapped switches.
    active = _unpack(done, pair_bit, width)
    switch_ctrl = np.array(ctrl_of, dtype=np.int64)
    if phase2 and arrays.n_pairs:
        ctrl = switch_ctrl[pair_switch]
        open_mask = ~active & (ctrl >= 0)
        if phase2_order == "greedy":
            order = arrays.pbar_desc
            scan = order[open_mask[order]]
        else:
            scan = np.flatnonzero(open_mask)
        scan_ctrl = ctrl[scan]
        if enforce_delay:
            # The reference's float additions, in its order, over the
            # pairs it does not skip outright.
            pair_delay = arrays.delay[pair_switch[scan], scan_ctrl].tolist()
            flipped = []
            for k, c, d in zip(scan.tolist(), scan_ctrl.tolist(), pair_delay):
                if avail[c] <= 0:
                    continue
                if total_delay + d > budget:
                    continue
                total_delay += d
                avail[c] -= 1
                flipped.append(k)
            active[flipped] = True
        elif scan.size:
            capacity = np.array(avail, dtype=np.int64)
            active[scan[grouped_capacity_select(scan_ctrl, capacity)]] = True

    meta: dict[str, object] = {
        "phase2_order": phase2_order,
        "total_iterations": total_iterations,
        "kernel": "array",
    }
    if not phase2:
        meta["phase2"] = False
    return RecoverySolution.positional(
        Placement.switch_level(arrays.frame, switch_ctrl, np.flatnonzero(active)),
        algorithm="pm",
        solve_time_s=time.perf_counter() - start,
        meta=meta,
    )


# ----------------------------------------------------------------------
# PG — flow-level recovery over arrays
# ----------------------------------------------------------------------
def _pg_level_prep(arrays: InstanceArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded per-recoverable-flow prefix sums of descending p̄.

    Row ``i`` holds the running totals of recoverable flow ``i``'s pairs
    in (-p̄, switch) order, right-padded with the final total — so the
    fewest pairs reaching ``level`` is ``(row >= level).argmax() + 1``
    for any reachable ``level >= 1``.  Built once per solve; the binary
    search probes it O(log max_level) times.
    """
    rec = arrays.recoverable_pos
    starts = arrays.flow_indptr[rec]
    lens = arrays.flow_indptr[rec + 1] - starts
    width = int(lens.max()) if lens.size else 0
    col = np.arange(width)
    # Clamp pad columns onto each row's last real pair; their p̄ is
    # zeroed below so the cumsum plateaus at the flow's max_pro.
    idx2d = starts[:, None] + np.minimum(col[None, :], (lens - 1)[:, None])
    valid = col[None, :] < lens[:, None]
    values = np.where(valid, arrays.pair_pbar[arrays.flow_sorted[idx2d]], 0)
    return idx2d, lens, values.cumsum(axis=1)


def solve_pg_array(instance: FMSSMInstance) -> RecoverySolution:
    """Array kernel for ProgrammabilityGuardian.

    The water-level binary search runs on the padded prefix-sum matrix
    (one ``>=`` + ``argmax`` per probe instead of per-flow ``sorted()``
    greedy scans), the saturation pass reuses the instance-wide
    ``pbar_desc`` order, and the regret-ordered assignment is an
    argsort over the per-switch delay spread with an all-nearest fast
    path — the sequential scan only runs when some nearest controller
    would overflow.
    """
    start = time.perf_counter()
    arrays = instance_arrays(instance)
    n_pairs = arrays.n_pairs
    budget = int(arrays.spare.sum())
    rec = arrays.recoverable_pos

    chosen = np.zeros(n_pairs, dtype=bool)
    if budget >= rec.size and rec.size:
        # Full recovery possible: maximize the least programmability by
        # binary search over the water level.
        idx2d, lens, cum = _pg_level_prep(arrays)
        max_level = int(arrays.flow_max_pro[rec].min())
        lo, hi = 0, max_level
        best_counts: np.ndarray | None = None
        while lo < hi:
            mid = (lo + hi + 1) // 2
            # mid <= max_level <= every recoverable flow's max_pro, so
            # each row reaches mid and argmax finds a real column.
            counts = (cum >= mid).argmax(axis=1) + 1
            if int(counts.sum()) <= budget:
                lo = mid
                best_counts = counts
            else:
                hi = mid - 1
        if best_counts is not None:
            mask = np.arange(cum.shape[1])[None, :] < best_counts[:, None]
            chosen[arrays.flow_sorted[idx2d[mask]]] = True
    elif rec.size:
        # Budget below one unit per flow: recover the flows whose single
        # best pair buys the most, ties toward the lower flow id (rec is
        # in ascending flow-id order and the argsort is stable).
        first_pair = arrays.flow_sorted[arrays.flow_indptr[rec]]
        best_pbar = arrays.pair_pbar[first_pair]
        ranked = np.argsort(-best_pbar, kind="stable")[:budget]
        chosen[first_pair[ranked]] = True

    # Saturate leftover budget with the highest-p̄ remaining pairs.
    leftover = budget - int(chosen.sum())
    if leftover > 0 and n_pairs:
        desc = arrays.pbar_desc
        remaining = desc[~chosen[desc]]
        chosen[remaining[:leftover]] = True

    # Regret-ordered nearest-capacity assignment.  When every pair fits
    # on its nearest controller the scan assigns exactly that, in any
    # order; otherwise it runs by regret, the stable sort keeping
    # ascending pair order among equal spreads (the (-regret, pair) key).
    picked = np.flatnonzero(chosen)
    pair_ctrl = arrays.delay_order[arrays.pair_switch[picked], 0]
    if np.any(np.bincount(pair_ctrl, minlength=len(arrays.controllers)) > arrays.spare):
        spread = arrays.delay.max(axis=1) - arrays.delay.min(axis=1)
        switch_of = arrays.pair_switch[picked]
        order = np.argsort(-spread[switch_of], kind="stable")
        available = arrays.spare.tolist()
        rows = arrays.delay_order.tolist()
        for i, s in zip(order.tolist(), switch_of[order].tolist()):
            for c in rows[s]:
                if available[c] > 0:
                    available[c] -= 1
                    pair_ctrl[i] = c
                    break
            else:  # pragma: no cover - chosen is capped at the budget
                raise AssertionError("PG budget accounting violated")
    unmapped = np.full(len(arrays.switches), -1, dtype=np.int64)
    return RecoverySolution.positional(
        Placement(arrays.frame, unmapped, picked, pair_ctrl),
        algorithm="pg",
        extra_overhead_ms=FLOWVISOR_PROCESSING_MS,
        solve_time_s=time.perf_counter() - start,
        meta={"budget": budget, "middle_layer": "flowvisor", "kernel": "array"},
    )


# ----------------------------------------------------------------------
# RetroFlow / Nearest — switch-level greedies over arrays
# ----------------------------------------------------------------------
def solve_retroflow_array(instance: FMSSMInstance) -> RecoverySolution:
    """Array kernel for the greedy RetroFlow baseline.

    Switch values come from one weighted bincount, the processing order
    from one stable argsort, and the per-switch controller scan walks a
    precomputed ``delay_order`` row — O(N·M) Python steps total instead
    of N sorts over M controllers.
    """
    start = time.perf_counter()
    arrays = instance_arrays(instance)
    n = len(arrays.switches)
    rows, gamma, _ = seq_lists(arrays)
    value = (
        np.bincount(arrays.pair_switch, weights=arrays.pair_pbar, minlength=n)
        .astype(np.int64)
        if arrays.n_pairs
        else np.zeros(n, dtype=np.int64)
    )
    order = np.argsort(-value, kind="stable")

    available = arrays.spare.tolist()
    load = [0] * len(arrays.controllers)
    switch_ctrl = [-1] * n
    for s in order.tolist():
        g = gamma[s]
        for c in rows[s]:
            if available[c] >= g:
                available[c] -= g
                load[c] += g
                switch_ctrl[s] = c
                break
    return _whole_switches(
        arrays,
        switch_ctrl,
        load,
        algorithm="retroflow",
        solve_time_s=time.perf_counter() - start,
        meta={"variant": "greedy", "kernel": "array"},
    )


def _whole_switches(
    arrays: InstanceArrays, switch_ctrl: list[int], load: list[int], **values
) -> RecoverySolution:
    """A whole-switch solution: every pair of each mapped switch served,
    at the per-controller ``load`` (``values`` are its other fields)."""
    switch_ctrl = np.array(switch_ctrl, dtype=np.int64)
    pairs = np.flatnonzero(switch_ctrl[arrays.pair_switch] >= 0)
    return RecoverySolution.positional(
        Placement.switch_level(arrays.frame, switch_ctrl, pairs),
        load_override=dict(zip(arrays.controllers, load)),
        **values,
    )


def solve_nearest_array(instance: FMSSMInstance) -> RecoverySolution:
    """Array kernel for nearest-controller whole-switch remapping.

    The nearest controller is column 0 of ``delay_order`` — a pure
    argmin over the delay matrix with the same lower-id tie-break as
    :meth:`~repro.control.delay.DelayModel.nearest_controller`.
    """
    start = time.perf_counter()
    arrays = instance_arrays(instance)
    rows, gamma, _ = seq_lists(arrays)
    nearest = arrays.delay_order[:, 0].tolist()
    available = arrays.spare.tolist()
    load = [0] * len(arrays.controllers)
    switch_ctrl = [-1] * len(nearest)
    for s, c in enumerate(nearest):
        g = gamma[s]
        if available[c] >= g:
            available[c] -= g
            load[c] += g
            switch_ctrl[s] = c
    return _whole_switches(
        arrays,
        switch_ctrl,
        load,
        algorithm="nearest",
        solve_time_s=time.perf_counter() - start,
        meta={"kernel": "array"},
    )
