"""An exhaustive FMSSM oracle built from the paper's equations.

The reference the exact solver and its compiled form are tested
against.  It reads only the instance's dict fields (``spare``,
``delay``, ``pbar``, ``flows``, ``ideal_delay_ms``, ``lam``) and
imports nothing from the code it checks (:mod:`repro.fmssm.point`,
:mod:`repro.fmssm.arrays`, :mod:`repro.perf`, :mod:`repro.resilience`).

:func:`enumerate_points` visits every point of FMSSM in its original,
non-linearized space: each switch unmapped or on one controller
(Eq. 2), and every SDN/legacy choice of the mapped switches'
programmable pairs (Eq. 1), each served by its switch's controller (the
``w = x·y`` that Eqs. 9-11 linearize).  A point is scored with

Eq. 12
    served pairs per controller ``<=`` its spare capacity;
Eq. 13
    ``r`` = the least ``pro^l = Σ p̄`` over the recoverable flows (the
    flows with a programmable pair; 0 when there are none), ``r >= 1``
    under full recovery;
Eq. 14
    Σ delay over the served pairs ``<= G`` (when enforced);

and the objective ``r + λ · Σ p̄``.  The subsets of one mapping are
scored together as numpy rows, so instances up to 3 switches, 2
controllers and 12 pairs (27 mappings × 4,096 subsets) take
milliseconds.

:func:`reference_blocks` writes the documented matrix layout of P′
(``repro.perf.compile``) from the same equations, block by block, for
the per-equation row test.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

__all__ = [
    "Optimum",
    "Scored",
    "enumerate_points",
    "optimum",
    "lexicographic_optimum",
    "score_point",
    "reference_blocks",
]


class Scored(NamedTuple):
    """Every subset of one mapping, scored (one row per subset)."""

    #: Controller index of each switch (``-1``: unmapped).
    mapping: tuple[int, ...]
    #: Indices (into the oracle's sorted pair list) of the mapped pairs.
    pairs: tuple[int, ...]
    #: ``bool[2^P, P]``: which mapped pairs each subset serves.
    chosen: np.ndarray
    feasible: np.ndarray
    least: np.ndarray
    total: np.ndarray
    objective: np.ndarray


class Optimum(NamedTuple):
    """One optimal point and its score."""

    objective: float
    least: int
    total: int
    #: switch → controller id.
    mapping: dict
    #: The served (switch, flow id) pairs.
    sdn_pairs: frozenset


def _data(instance):
    switches = tuple(instance.switches)
    controllers = tuple(instance.controllers)
    pairs = sorted(instance.pbar)
    recoverable = sorted({f for _, f in pairs})
    return switches, controllers, pairs, recoverable


def enumerate_points(instance, require_full_recovery, enforce_delay):
    """Yield a :class:`Scored` block per mapping of the switches."""
    switches, controllers, pairs, recoverable = _data(instance)
    switch_index = {s: i for i, s in enumerate(switches)}
    flow_index = {f: i for i, f in enumerate(recoverable)}
    spare = np.array([instance.spare[c] for c in controllers], dtype=np.int64)
    for mapping in itertools.product(range(-1, len(controllers)), repeat=len(switches)):
        mapped = tuple(
            k for k, (s, _) in enumerate(pairs) if mapping[switch_index[s]] >= 0
        )
        n = len(mapped)
        chosen = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        ctrl = np.array([mapping[switch_index[pairs[k][0]]] for k in mapped], dtype=np.int64)
        pbar = np.array([instance.pbar[pairs[k]] for k in mapped], dtype=np.int64)
        # Eq. (12): served pairs per controller within its spare.
        load = chosen @ (ctrl[:, None] == np.arange(len(controllers))).astype(np.int64)
        feasible = np.all(load <= spare, axis=1)
        # Eq. (13): pro^l per recoverable flow, and r = the least of them.
        flow_of = np.array([flow_index[pairs[k][1]] for k in mapped], dtype=np.int64)
        pro = chosen @ ((flow_of[:, None] == np.arange(len(recoverable))) * pbar[:, None])
        least = pro.min(axis=1) if recoverable else np.zeros(len(chosen), dtype=np.int64)
        if require_full_recovery and recoverable:
            feasible &= least >= 1
        # Eq. (14): total switch-controller delay of the served pairs <= G.
        if enforce_delay:
            delay = np.array(
                [instance.delay[(pairs[k][0], controllers[c])] for k, c in zip(mapped, ctrl)],
                dtype=np.float64,
            )
            feasible &= chosen @ delay <= float(instance.ideal_delay_ms)
        total = chosen @ pbar
        yield Scored(
            mapping,
            mapped,
            chosen.astype(bool),
            feasible,
            least,
            total,
            least + instance.lam * total,
        )


def _point(instance, block, row):
    switches, controllers, pairs, _ = _data(instance)
    return Optimum(
        objective=float(block.objective[row]),
        least=int(block.least[row]),
        total=int(block.total[row]),
        mapping={
            s: controllers[c] for s, c in zip(switches, block.mapping) if c >= 0
        },
        sdn_pairs=frozenset(
            pairs[k] for k, on in zip(block.pairs, block.chosen[row]) if on
        ),
    )


def optimum(instance, require_full_recovery=True, enforce_delay=True):
    """A point of the largest ``r + λ·Σ p̄``, or ``None`` when none is feasible."""
    best = None
    for block in enumerate_points(instance, require_full_recovery, enforce_delay):
        if not block.feasible.any():
            continue
        row = int(np.flatnonzero(block.feasible)[np.argmax(block.objective[block.feasible])])
        if best is None or block.objective[row] > best.objective:
            best = _point(instance, block, row)
    return best


def lexicographic_optimum(instance, require_full_recovery=True, enforce_delay=True):
    """The largest ``(r, Σ p̄)`` in lexicographic order, or ``None``."""
    best = None
    for block in enumerate_points(instance, require_full_recovery, enforce_delay):
        for least, total in zip(block.least[block.feasible], block.total[block.feasible]):
            if best is None or (least, total) > best:
                best = (int(least), int(total))
    return best


def score_point(instance, mapping, sdn_pairs, require_full_recovery, enforce_delay):
    """``(feasible, objective)`` of one switch-level point.

    ``mapping`` is switch → controller id; every pair of ``sdn_pairs``
    must be a programmable pair on a mapped switch, served there.
    """
    switches, controllers, pairs, _ = _data(instance)
    target = tuple(
        controllers.index(mapping[s]) if s in mapping else -1 for s in switches
    )
    for block in enumerate_points(instance, require_full_recovery, enforce_delay):
        if block.mapping != target:
            continue
        wanted = np.array([pairs[k] in sdn_pairs for k in block.pairs], dtype=bool)
        row = int(np.flatnonzero(np.all(block.chosen == wanted, axis=1))[0])
        return bool(block.feasible[row]), float(block.objective[row])
    raise AssertionError(f"mapping {mapping!r} not enumerated")


def reference_blocks(instance, require_full_recovery=False, enforce_delay=True):
    """P′ in the documented column and row layout, block by block.

    Columns: ``x[s,c]`` at ``s·M + c``; per programmable pair ``k`` (in
    ``instance.pairs`` order) ``y_k`` at ``N·M + k·(M+1)`` and
    ``w[k,c]`` right after it; ``r`` last.  Returns an ordered dict of
    row blocks ``name → (dense A rows, b)`` — all ``<=`` rows — plus
    ``c`` (the minimized objective), ``lb``, ``ub`` and ``integrality``.
    """
    switches, controllers = tuple(instance.switches), tuple(instance.controllers)
    pairs = list(instance.pairs)
    n, m, p = len(switches), len(controllers), len(pairs)
    n_x = n * m
    n_vars = n_x + p * (m + 1) + 1
    r_col = n_vars - 1

    def x_col(s, c):
        return switches.index(s) * m + controllers.index(c)

    def y_col(k):
        return n_x + k * (m + 1)

    def w_col(k, c):
        return y_col(k) + 1 + controllers.index(c)

    def rows(count):
        return np.zeros((count, n_vars))

    blocks = {}
    # Eq. (2): Σ_c x[s,c] <= 1.
    a = rows(n)
    for i, s in enumerate(switches):
        for c in controllers:
            a[i, x_col(s, c)] = 1.0
    blocks["eq2"] = (a, np.ones(n))
    # Eqs. (9)-(11): w <= x, w <= y, x + y - w <= 1 per (pair, controller).
    a = rows(3 * p * m)
    b = np.tile([0.0, 0.0, 1.0], p * m)
    for k, (s, _f) in enumerate(pairs):
        for j, c in enumerate(controllers):
            i = 3 * (k * m + j)
            a[i, w_col(k, c)], a[i, x_col(s, c)] = 1.0, -1.0
            a[i + 1, w_col(k, c)], a[i + 1, y_col(k)] = 1.0, -1.0
            a[i + 2, x_col(s, c)], a[i + 2, y_col(k)] = 1.0, 1.0
            a[i + 2, w_col(k, c)] = -1.0
    blocks["mccormick"] = (a, b)
    # Eq. (12): Σ_k w[k,c] <= spare_c (only when there are pairs).
    a = rows(m if p else 0)
    if p:
        for j, c in enumerate(controllers):
            for k in range(p):
                a[j, w_col(k, c)] = 1.0
    blocks["eq12"] = (a, np.array([float(instance.spare[c]) for c in controllers][: len(a)]))
    # Eq. (13): r - Σ p̄ w <= 0 per recoverable flow.
    recoverable = sorted({f for _, f in pairs})
    a = rows(len(recoverable))
    for i, f in enumerate(recoverable):
        a[i, r_col] = 1.0
        for k, (_s, g) in enumerate(pairs):
            if g == f:
                for c in controllers:
                    a[i, w_col(k, c)] = -float(instance.pbar[pairs[k]])
    blocks["eq13"] = (a, np.zeros(len(recoverable)))
    # Eq. (14): Σ delay w <= G, when enforced and there are w columns.
    a = rows(1 if enforce_delay and p else 0)
    if len(a):
        for k, (s, _f) in enumerate(pairs):
            for c in controllers:
                a[0, w_col(k, c)] = instance.delay[(s, c)]
    blocks["eq14"] = (a, np.full(len(a), float(instance.ideal_delay_ms)))

    # max r + λ Σ p̄ w, as a minimization.
    c_vec = np.zeros(n_vars)
    for k, pair in enumerate(pairs):
        for c in controllers:
            c_vec[w_col(k, c)] = -instance.lam * instance.pbar[pair]
    c_vec[r_col] = -1.0
    lb, ub = np.zeros(n_vars), np.ones(n_vars)
    if recoverable:
        ub[r_col] = float(
            min(sum(v for (_s, g), v in instance.pbar.items() if g == f) for f in recoverable)
        )
        lb[r_col] = 1.0 if require_full_recovery else 0.0
    else:
        ub[r_col] = 0.0
    integrality = np.ones(n_vars)
    integrality[r_col] = 0.0
    blocks.update(c=c_vec, lb=lb, ub=ub, integrality=integrality)
    return blocks
