"""The FMSSM problem instance (Section IV of the paper).

An :class:`FMSSMInstance` is the fully ground data of one recovery
problem: the offline switches S, active controllers C with spare capacity
A, delays D, the offline flows with their ``beta``/``p̄`` coefficients,
per-switch flow counts ``gamma``, the ideal recovery delay ``G``, and the
objective weight ``lambda``.

Terminology used throughout the package:

offline flow
    A flow whose path traverses at least one offline switch.
programmable pair
    An (offline switch, offline flow) pair with ``beta == 1`` — putting
    the flow in SDN mode at that switch under a mapped controller yields
    ``p̄`` units of programmability.
recoverable flow
    An offline flow with at least one programmable pair.  Flows without
    any (e.g. their only offline switch is their destination, or it has a
    single path onward) cannot be recovered by *any* algorithm — the
    paper's ``r`` constraint is applied over recoverable flows only,
    otherwise ``r = 0`` degenerately for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.exceptions import ModelError
from repro.flows.flow import Flow
from repro.types import ControllerId, FlowId, Milliseconds, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["FMSSMInstance", "PairArrays"]


class PairArrays(NamedTuple):
    """Dense numpy views over an instance's programmable pairs.

    Built lazily by :meth:`FMSSMInstance.pair_arrays` and cached — the
    instance is immutable, so the arrays never change.  The array
    kernels' :func:`~repro.perf.kernels.instance_arrays` build scans
    these instead of doing per-pair dict lookups.
    """

    #: Index into ``instance.switches`` of each pair, aligned with ``pairs``.
    switch_code: "np.ndarray"
    #: ``p̄`` of each pair, aligned with ``pairs`` (int64).
    pbar: "np.ndarray"
    #: Switch id → position in ``instance.switches``.
    switch_pos: dict[NodeId, int]
    #: Pair tuple → position in ``instance.pairs``.
    pair_index: dict[tuple[NodeId, FlowId], int]


@dataclass
class FMSSMInstance:
    """Ground data of one programmability-recovery problem.

    Attributes mirror the paper's notation (Table II).  All mappings are
    keyed by public ids (node ids, controller ids, flow ids) rather than
    dense indices, since N, M and L are WAN-scale small.

    Instances are treated as immutable once constructed: the derived
    views (``pairs_at``, ``pairs_of``, ``pairs``, ``recoverable_flows``,
    ``total_iterations``) are precomputed in ``__post_init__`` because
    the heuristics read them in hot loops.
    """

    #: Offline switches S, sorted.
    switches: tuple[NodeId, ...]
    #: Active controllers C, sorted.
    controllers: tuple[ControllerId, ...]
    #: Spare control resource A_j^rest per active controller.
    spare: dict[ControllerId, int]
    #: Propagation delay D_ij in ms per (offline switch, active controller).
    delay: dict[tuple[NodeId, ControllerId], Milliseconds]
    #: Offline flows, keyed by flow id.
    flows: dict[FlowId, Flow]
    #: p̄_i^l for every programmable pair (switch, flow id).
    pbar: dict[tuple[NodeId, FlowId], int]
    #: gamma_i — number of flows in each offline switch (Table III).
    gamma: dict[NodeId, int]
    #: Ideal recovery delay G in ms (Eq. 6).
    ideal_delay_ms: Milliseconds
    #: Objective weight lambda for obj2.
    lam: float
    #: Nearest active controller per offline switch (the alpha_ij = 1 one).
    nearest: dict[NodeId, ControllerId]

    # Derived indexes, built in __post_init__.
    pairs_at: dict[NodeId, tuple[FlowId, ...]] = field(init=False, repr=False)
    pairs_of: dict[FlowId, tuple[NodeId, ...]] = field(init=False, repr=False)
    _pairs: tuple[tuple[NodeId, FlowId], ...] = field(init=False, repr=False)
    _recoverable: tuple[FlowId, ...] = field(init=False, repr=False)
    _total_iterations: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        switch_set = set(self.switches)
        controller_set = set(self.controllers)
        if not switch_set:
            raise ModelError("instance has no offline switches")
        if not controller_set:
            raise ModelError("instance has no active controllers")
        for (switch, controller), value in self.delay.items():
            if switch not in switch_set or controller not in controller_set:
                raise ModelError(f"delay entry for unknown pair {(switch, controller)!r}")
            if value < 0:
                raise ModelError(f"negative delay for {(switch, controller)!r}: {value!r}")
        for switch in self.switches:
            for controller in self.controllers:
                if (switch, controller) not in self.delay:
                    raise ModelError(f"missing delay for {(switch, controller)!r}")
        for controller, value in self.spare.items():
            if controller not in controller_set:
                raise ModelError(f"spare entry for unknown controller {controller!r}")
            if value < 0:
                raise ModelError(f"negative spare for controller {controller!r}: {value!r}")
        for (switch, flow_id), value in self.pbar.items():
            if switch not in switch_set:
                raise ModelError(f"pbar entry for non-offline switch {switch!r}")
            if flow_id not in self.flows:
                raise ModelError(f"pbar entry for unknown flow {flow_id!r}")
            if value < 2:
                raise ModelError(
                    f"pbar must be >= 2 on programmable pairs, got {value!r} "
                    f"for {(switch, flow_id)!r}"
                )
        if self.lam < 0:
            raise ModelError(f"lambda must be >= 0: {self.lam!r}")

        pairs_at: dict[NodeId, list[FlowId]] = {s: [] for s in self.switches}
        pairs_of: dict[FlowId, list[NodeId]] = {f: [] for f in self.flows}
        self._pairs = tuple(sorted(self.pbar))
        for switch, flow_id in self._pairs:
            pairs_at[switch].append(flow_id)
            pairs_of[flow_id].append(switch)
        self.pairs_at = {s: tuple(v) for s, v in pairs_at.items()}
        self.pairs_of = {f: tuple(v) for f, v in pairs_of.items()}
        self._recoverable = tuple(
            sorted(f for f, switches in self.pairs_of.items() if switches)
        )
        self._total_iterations = (
            max(len(switches) for switches in self.pairs_of.values()) if self.pbar else 0
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_switches(self) -> int:
        """N — number of offline switches."""
        return len(self.switches)

    @property
    def n_controllers(self) -> int:
        """M — number of active controllers."""
        return len(self.controllers)

    @property
    def n_flows(self) -> int:
        """L — number of offline flows."""
        return len(self.flows)

    @property
    def pairs(self) -> tuple[tuple[NodeId, FlowId], ...]:
        """All programmable pairs, sorted (precomputed)."""
        return self._pairs

    @property
    def recoverable_flows(self) -> tuple[FlowId, ...]:
        """Offline flows with at least one programmable pair, sorted (precomputed)."""
        return self._recoverable

    @property
    def unrecoverable_flows(self) -> tuple[FlowId, ...]:
        """Offline flows no algorithm can recover, sorted."""
        return tuple(sorted(f for f, switches in self.pairs_of.items() if not switches))

    @property
    def total_spare(self) -> int:
        """Total spare control resource across active controllers."""
        return sum(self.spare.values())

    def max_programmability(self, flow_id: FlowId) -> int:
        """Upper bound on ``pro^l``: all programmable pairs in SDN mode."""
        return sum(self.pbar[(s, flow_id)] for s in self.pairs_of[flow_id])

    def total_max_programmability(self) -> int:
        """Upper bound on obj2: every programmable pair active."""
        return sum(self.pbar.values())

    def pair_arrays(self) -> PairArrays:
        """Dense array views over the programmable pairs (cached).

        The first call builds them in ``pairs`` order; subsequent calls
        return the same object.  Kept out of ``__post_init__`` so
        instances that never touch the vectorized kernels do not pay for
        the numpy import or the array build.
        """
        cached = self.__dict__.get("_pair_arrays")
        if cached is None:
            import numpy as np

            switch_pos = {s: i for i, s in enumerate(self.switches)}
            count = len(self._pairs)
            cached = PairArrays(
                switch_code=np.fromiter(
                    (switch_pos[s] for s, _ in self._pairs),
                    dtype=np.int64,
                    count=count,
                ),
                pbar=np.fromiter(
                    (self.pbar[pair] for pair in self._pairs),
                    dtype=np.int64,
                    count=count,
                ),
                switch_pos=switch_pos,
                pair_index={pair: k for k, pair in enumerate(self._pairs)},
            )
            self.__dict__["_pair_arrays"] = cached
        return cached

    @property
    def total_iterations(self) -> int:
        """The paper's TOTAL_ITERATIONS: max offline switches on any flow path.

        Counted over programmable pairs, since only those can raise a
        flow's programmability.  Precomputed in ``__post_init__`` — PM's
        phase-1 loop reads this every pick.
        """
        return self._total_iterations

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"FMSSM(N={self.n_switches}, M={self.n_controllers}, L={self.n_flows}, "
            f"pairs={len(self.pbar)}, recoverable={len(self.recoverable_flows)}, "
            f"spare={self.total_spare}, G={self.ideal_delay_ms:.2f}ms, "
            f"lambda={self.lam:.3g})"
        )
