"""The dense, position-indexed form of an FMSSM instance.

:class:`InstanceArrays` is what the array kernels
(:mod:`repro.perf.kernels`) and the batched evaluator read.  Every
instance carries one: :meth:`GroundingIndex.ground
<repro.fmssm.build.GroundingIndex.ground>` produces it by slicing its
per-network arrays, and an instance built from dicts converts its
fields on the first read (:meth:`FMSSMInstance.arrays
<repro.fmssm.instance.FMSSMInstance.arrays>`).  Both hand their base
columns to :func:`build_arrays`, which derives everything else the
kernels need, so the derived columns have one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.types import ControllerId, FlowId, NodeId

__all__ = [
    "Frame",
    "InstanceArrays",
    "NetworkMap",
    "build_arrays",
    "narrowest",
    "seq_lists",
]

#: The little-endian signed int widths a kept or stored column may
#: take, narrowest first, with their bounds.
_INT_WIDTHS = tuple(
    (name, int(np.iinfo(name).min), int(np.iinfo(name).max))
    for name in ("<i1", "<i2", "<i4", "<i8")
)


def narrowest(low: int, high: int) -> str:
    """The narrowest little-endian signed int width (``"<i1"`` to
    ``"<i8"``) that holds ``low..high``."""
    return next(name for name, lo, hi in _INT_WIDTHS if lo <= low and high <= hi)


@dataclass(frozen=True, eq=False)
class Frame:
    """The ids that name a set of positions, and their lookups.

    A kernel's solution and the evaluator's values are positions of
    their instance's frame, which shares the arrays' own members (see
    there); ``a.frame is b.frame`` means the positions agree.

    The grounding index also has one frame for its whole network
    (:meth:`GroundingIndex.network_frame
    <repro.fmssm.build.GroundingIndex.network_frame>`): every node, every
    controller, the flow population, and every programmable entry as a
    pair, switch-major.  Kept results and store records are positions of
    it (:class:`NetworkMap`), so a kept result holds no instance's frame.
    """

    switches: tuple[NodeId, ...]
    controllers: tuple[ControllerId, ...]
    #: The ids ``network_pos`` indexes (the frame's own flows when it is
    #: ``None``); ``flow_ids`` below is built from them on first read.
    population_ids: tuple[FlowId, ...]
    pairs: tuple[tuple[NodeId, FlowId], ...]
    switch_pos: dict[NodeId, int]
    controller_pos: dict[ControllerId, int]
    pair_switch: np.ndarray
    pair_flow: np.ndarray
    #: CSR bounds of each switch position's pairs (pairs are switch-major).
    switch_indptr: np.ndarray
    #: Positions of the flows in the network's flow population, when
    #: the frame's instance was grounded from one (``None`` otherwise).
    network_pos: np.ndarray | None
    #: Rank of each pair in the order the dict views list them; ``None``
    #: lists them by position.  The network frame lists them flow-major,
    #: ``(flow position, switch)``, the order store records have always
    #: replayed in.
    view_rank: np.ndarray | None = None

    @cached_property
    def flow_ids(self) -> tuple[FlowId, ...]:
        """The id of each flow position."""
        if self.network_pos is None:
            return self.population_ids
        return tuple(map(self.population_ids.__getitem__, self.network_pos.tolist()))

    @cached_property
    def flow_pos(self) -> dict[FlowId, int]:
        return dict(zip(self.flow_ids, range(len(self.flow_ids))))

    @cached_property
    def pair_index(self) -> dict[tuple[NodeId, FlowId], int]:
        return dict(zip(self.pairs, range(len(self.pairs))))

    def in_view_order(self, pairs: np.ndarray) -> np.ndarray | slice:
        """The index into ``pairs`` (ascending positions) that lists them
        in view order."""
        if self.view_rank is None:
            return slice(None)
        return np.argsort(self.view_rank[pairs])


class NetworkMap(NamedTuple):
    """An instance's positions as positions of the network frame of the
    index it was grounded from (:meth:`InstanceArrays.network_map`).

    The columns a kept result shares are in its widths: entries and
    flows int32, controllers the narrowest width that holds the
    network's controller positions and ``-1``.
    """

    network: Frame
    #: Node code of each switch position (intp).
    codes: np.ndarray
    #: Network controller position of each controller position, then
    #: ``-1``, so an unmapped ``-1`` gathers ``-1``.
    controllers: np.ndarray
    #: Network entry of each pair position, ascending (int32).
    entries: np.ndarray
    #: Population position of each flow position, ascending (int32).
    flows: np.ndarray
    #: Population positions of the recoverable flows, ascending (int32).
    recoverable: np.ndarray


@dataclass
class InstanceArrays:
    """Dense, position-indexed view of one :class:`FMSSMInstance`.

    Positions: switches ``0..N-1`` in ``instance.switches`` order,
    controllers ``0..M-1`` in ``instance.controllers`` order, flows
    ``0..L-1`` in ``instance.flows`` insertion order, pairs ``0..P-1``
    in ``instance.pairs`` (lexicographic) order.  All of the first two
    and the pair order are sorted by id, which is what makes
    first-occurrence argmax/argmin tie-breaking equal id tie-breaking.

    What grounding builds eagerly, and what on first read:
    :func:`build_arrays` builds what PM, the evaluator and the exact
    solver's certificate read on every request — the fields below
    (``flow_pairs``, one ``bincount`` of ``pair_flow``, gives
    ``recoverable_pos`` and the instance's ``total_iterations``) and the
    switch-level list views (:func:`seq_lists`), but no per-flow or
    per-pair Python object.  ``flow_ids`` (the frame's) is gathered
    from the network's ids through ``network_pos`` on first read;
    ``flow_sorted``, ``flow_indptr`` and ``pbar_desc``, which only PG
    and PM's greedy phase 2 read, are sorted on first read, and PM
    caches its per-switch flow bitsets in ``cache`` on its first solve.
    Hand-built and grounded instances take the same route.
    """

    #: Public id tuples (references into the instance and the network).
    switches: tuple[NodeId, ...]
    controllers: tuple[ControllerId, ...]
    population_ids: tuple[FlowId, ...]
    pairs: tuple[tuple[NodeId, FlowId], ...]
    #: Position lookups (``flow_pos`` and ``pair_index`` below are the
    #: frame's, built on first read: only dict-built solutions need them).
    switch_pos: dict[NodeId, int]
    controller_pos: dict[ControllerId, int]
    #: Spare capacity A_j per controller position (int64[M]).
    spare: np.ndarray
    #: gamma_i per switch position (int64[N]).
    gamma: np.ndarray
    #: Delay matrix D_ij (float64[N, M]).
    delay: np.ndarray
    #: Per-switch controller positions in (delay, id) ascending order
    #: (int64[N, M]); column 0 is the nearest controller.
    delay_order: np.ndarray
    #: Per-pair switch / flow positions and p̄ (int64[P] each).
    pair_switch: np.ndarray
    pair_flow: np.ndarray
    pair_pbar: np.ndarray
    #: CSR over pairs grouped by switch: pairs of switch position ``s``
    #: are ``switch_indptr[s]:switch_indptr[s+1]`` (pairs are
    #: switch-major because ``instance.pairs`` sorts lexicographically).
    switch_indptr: np.ndarray
    #: Programmable pairs per flow position (int64[L]).
    flow_pairs: np.ndarray
    #: Per-flow maximum programmability (int64[L]).
    flow_max_pro: np.ndarray
    #: Flow positions of ``instance.recoverable_flows`` — ascending
    #: flow-id order, *not* necessarily ascending position (int64[R]).
    recoverable_pos: np.ndarray
    #: Positions of the flows in the network's flow population, when the
    #: instance was grounded from one (``None`` for a hand-built one).
    network_pos: np.ndarray | None
    #: Lazy extras: the switch-level list views, PM's flow bitsets and
    #: the network map.
    cache: dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def n_pairs(self) -> int:
        return int(self.pair_switch.size)

    @property
    def n_flows(self) -> int:
        return int(self.flow_pairs.size)

    @property
    def flow_ids(self) -> tuple[FlowId, ...]:
        return self.frame.flow_ids

    @property
    def flow_pos(self) -> dict[FlowId, int]:
        return self.frame.flow_pos

    @property
    def pair_index(self) -> dict[tuple[NodeId, FlowId], int]:
        return self.frame.pair_index

    @cached_property
    def flow_sorted(self) -> np.ndarray:
        """Pair indices grouped by flow position, within each flow in
        (-p̄, switch) order — PG's per-flow greedy order (int64[P])."""
        # The np.arange key keeps ascending pair index (= switch) among equal p̄.
        return np.lexsort((np.arange(self.n_pairs), -self.pair_pbar, self.pair_flow))

    @cached_property
    def flow_indptr(self) -> np.ndarray:
        """CSR bounds of each flow position's run in ``flow_sorted``."""
        return np.concatenate(([0], np.cumsum(self.flow_pairs)))

    @cached_property
    def pbar_desc(self) -> np.ndarray:
        """All pair indices in (-p̄, pair) order — the saturation scans'."""
        return np.argsort(-self.pair_pbar, kind="stable")

    @cached_property
    def frame(self) -> Frame:
        return Frame(*(getattr(self, f.name) for f in fields(Frame) if f.name != "view_rank"))

    def network_map(self, network: Frame | None = None) -> NetworkMap | None:
        """This instance's :class:`NetworkMap` onto ``network`` (cached),
        or ``None`` unless ``network`` is the frame of the index the
        instance was grounded from: a network frame (the only kind with a
        ``view_rank``) sharing the instance's population ids.  Without
        ``network``, the map already built, if any (grounding builds it
        when the index's network frame exists).

        An instance's pairs of switch ``s`` are all of that switch's
        entries, in the index's order, so pair ``k`` is entry
        ``network.switch_indptr[code[s]] + (k - switch_indptr[s])``.
        Switch positions and node codes both ascend with the switch id,
        so the entries ascend too, and so do the population positions of
        the flows.
        """
        cached = self.cache.get("network_map")
        if network is None or (cached is not None and cached.network is network):
            return cached
        if (
            network.view_rank is None
            or self.network_pos is None
            or self.population_ids is not network.population_ids
        ):
            return None
        codes = np.fromiter(
            map(network.switch_pos.__getitem__, self.switches), dtype=np.intp,
            count=len(self.switches),
        )
        controllers = np.fromiter(
            chain(map(network.controller_pos.__getitem__, self.controllers), (-1,)),
            dtype=narrowest(-1, len(network.controllers) - 1),
            count=len(self.controllers) + 1,
        )
        indptr = self.switch_indptr
        entries = np.repeat(network.switch_indptr[codes] - indptr[:-1], indptr[1:] - indptr[:-1])
        entries += np.arange(self.n_pairs)
        flows = self.network_pos.astype(np.int32)
        cached = self.cache["network_map"] = NetworkMap(
            network, codes, controllers, entries.astype(np.int32), flows,
            flows.take(np.flatnonzero(self.flow_pairs)),
        )
        return cached


def build_arrays(
    switches: tuple[NodeId, ...],
    controllers: tuple[ControllerId, ...],
    population_ids: tuple[FlowId, ...],
    flow_rank: np.ndarray,
    pairs: tuple[tuple[NodeId, FlowId], ...],
    spare: np.ndarray,
    gamma: np.ndarray,
    delay: np.ndarray,
    pair_switch: np.ndarray,
    pair_flow: np.ndarray,
    pair_pbar: np.ndarray,
    network_pos: np.ndarray | None,
) -> InstanceArrays:
    """Derive the full :class:`InstanceArrays` from an instance's base columns.

    ``flow_rank`` orders the flow positions by flow id (any array whose
    ascending order is the flow-id order); ``network_pos`` places the
    flows in the network's population of ids ``population_ids``, or is
    ``None`` (the ids are then the flows' own).  The switch-level list
    views (:func:`seq_lists`) are built here too, so a grounded instance
    arrives with every kernel's prep done but PM's flow bitsets, which
    its first PM solve builds.
    """
    n = len(switches)
    n_flows = flow_rank.size
    flow_pairs = np.bincount(pair_flow, minlength=n_flows)
    flow_max_pro = np.bincount(pair_flow, weights=pair_pbar, minlength=n_flows).astype(np.int64)
    has_pairs = np.flatnonzero(flow_pairs)
    arrays = InstanceArrays(
        switches=switches,
        controllers=controllers,
        population_ids=population_ids,
        pairs=pairs,
        switch_pos=dict(zip(switches, range(n))),
        controller_pos=dict(zip(controllers, range(len(controllers)))),
        spare=spare,
        gamma=gamma,
        delay=delay,
        delay_order=np.argsort(delay, axis=1, kind="stable"),
        pair_switch=pair_switch,
        pair_flow=pair_flow,
        pair_pbar=pair_pbar,
        switch_indptr=np.searchsorted(pair_switch, np.arange(n + 1)),
        flow_pairs=flow_pairs,
        flow_max_pro=flow_max_pro,
        recoverable_pos=has_pairs[np.argsort(flow_rank[has_pairs], kind="stable")],
        network_pos=network_pos,
    )
    seq_lists(arrays)
    return arrays


def seq_lists(arrays: InstanceArrays) -> tuple:
    """Plain-list views for the sequential scan kernels (cached).

    PM's picks and the switch-level greedies (RetroFlow, Nearest) walk
    one switch at a time over WAN-small instances, where per-call numpy
    dispatch costs more than the arithmetic, so they read their
    per-switch values from lists: the delay-ordered controller rows,
    gamma and the delay matrix.  PM's flow sets are its own
    (``repro.perf.kernels``, cached next to these on first solve).
    """
    cached = arrays.cache.get("seq_lists")
    if cached is None:
        cached = arrays.cache["seq_lists"] = (
            arrays.delay_order.tolist(),
            arrays.gamma.tolist(),
            arrays.delay.tolist(),
        )
    return cached
