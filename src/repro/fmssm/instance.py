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

An instance has two constructors.  The dataclass constructor takes the
fields as dicts and checks them entry by entry; hand-built instances
(tests, ablations) use it.  :meth:`FMSSMInstance.from_arrays` takes the
dense :class:`~repro.fmssm.arrays.InstanceArrays` that grounding
produces, checks them vectorized, and builds the dict fields only when
something reads them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError
from repro.flows.flow import Flow
from repro.fmssm.arrays import InstanceArrays, build_arrays
from repro.types import ControllerId, FlowId, Milliseconds, NodeId

__all__ = ["FMSSMInstance"]


@dataclass
class FMSSMInstance:
    """Ground data of one programmability-recovery problem.

    Attributes mirror the paper's notation (Table II).  All mappings are
    keyed by public ids (node ids, controller ids, flow ids) rather than
    dense indices, since N, M and L are WAN-scale small.

    Instances are treated as immutable once constructed.  ``pairs``
    and ``total_iterations`` are set by both constructors (PM reads
    them on every solve); the dataclass constructor also derives
    ``pairs_at``, ``pairs_of`` and ``recoverable_flows``.  On an
    instance from :meth:`from_arrays`, those three and ``flows``,
    ``pbar``, ``delay``, ``gamma`` and ``nearest`` are views built from
    the arrays on first read, with the same contents and dict order as
    the dataclass constructor would hold; only the reference solvers,
    the LP compiler and the exact solver's bounds read them.
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
    #: Offline flows with at least one programmable pair, sorted.
    recoverable_flows: tuple[FlowId, ...] = field(init=False, repr=False)
    _pairs: tuple[tuple[NodeId, FlowId], ...] = field(init=False, repr=False)
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
        for controller in self.controllers:
            if controller not in self.spare:
                raise ModelError(f"missing spare for controller {controller!r}")
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
        for switch in self.switches:
            if switch not in self.gamma:
                raise ModelError(f"missing gamma for switch {switch!r}")
            if self.gamma[switch] < 0:
                raise ModelError(
                    f"negative gamma for switch {switch!r}: {self.gamma[switch]!r}"
                )
        for switch in self.switches:
            if switch not in self.nearest:
                raise ModelError(f"missing nearest controller for switch {switch!r}")
            if self.nearest[switch] not in controller_set:
                raise ModelError(
                    f"nearest controller {self.nearest[switch]!r} of switch "
                    f"{switch!r} is not active"
                )
        _check_ideal_delay(self.ideal_delay_ms)

        pairs_at: dict[NodeId, list[FlowId]] = {s: [] for s in self.switches}
        pairs_of: dict[FlowId, list[NodeId]] = {f: [] for f in self.flows}
        self._pairs = tuple(sorted(self.pbar))
        for switch, flow_id in self._pairs:
            pairs_at[switch].append(flow_id)
            pairs_of[flow_id].append(switch)
        self.pairs_at = {s: tuple(v) for s, v in pairs_at.items()}
        self.pairs_of = {f: tuple(v) for f, v in pairs_of.items()}
        self.recoverable_flows = tuple(
            sorted(f for f, switches in self.pairs_of.items() if switches)
        )
        self._total_iterations = (
            max(len(switches) for switches in self.pairs_of.values()) if self.pbar else 0
        )

    @classmethod
    def from_arrays(
        cls,
        arrays: InstanceArrays,
        *,
        ideal_delay_ms: Milliseconds,
        lam: float,
        flows: Sequence[Flow],
        flow_positions: np.ndarray,
        pair_path_pos: np.ndarray,
    ) -> FMSSMInstance:
        """An instance over grounded arrays, its dict fields left as views.

        ``flows`` is the network's flow population and
        ``flow_positions`` the ascending positions in it of the offline
        flows, so ``arrays.flow_ids`` are their ids.  ``pair_path_pos``
        gives each pair's position on its flow's path: ``pbar`` lists
        the pairs flow-major in path order, as grounding met them.

        Runs the dataclass constructor's value checks vectorized (S and
        C non-empty, D >= 0, A >= 0, p̄ >= 2, lambda >= 0, gamma >= 0,
        G >= 0), raising the same :class:`ModelError` for the first
        failing entry in the same order.  Coverage (every switch has a
        delay row, a gamma and a nearest controller, every controller a
        spare) is checked as the columns' shapes.
        """
        switches, controllers = arrays.switches, arrays.controllers
        if not switches:
            raise ModelError("instance has no offline switches")
        if not controllers:
            raise ModelError("instance has no active controllers")
        n, m = len(switches), len(controllers)
        _check_shape("delay", arrays.delay, (n, m))
        bad = np.flatnonzero(arrays.delay.ravel() < 0)
        if bad.size:
            i, j = divmod(int(bad[0]), m)
            pair = (switches[i], controllers[j])
            raise ModelError(f"negative delay for {pair!r}: {arrays.delay[i, j].item()!r}")
        _check_shape("spare", arrays.spare, (m,))
        bad = np.flatnonzero(arrays.spare < 0)
        if bad.size:
            j = int(bad[0])
            raise ModelError(
                f"negative spare for controller {controllers[j]!r}: "
                f"{arrays.spare[j].item()!r}"
            )
        bad = np.flatnonzero(arrays.pair_pbar < 2)
        if bad.size:
            # The dict constructor meets pairs flow-major in path order.
            k = int(bad[np.lexsort((pair_path_pos[bad], arrays.pair_flow[bad]))[0]])
            raise ModelError(
                f"pbar must be >= 2 on programmable pairs, got "
                f"{arrays.pair_pbar[k].item()!r} for {arrays.pairs[k]!r}"
            )
        if lam < 0:
            raise ModelError(f"lambda must be >= 0: {lam!r}")
        _check_shape("gamma", arrays.gamma, (n,))
        bad = np.flatnonzero(arrays.gamma < 0)
        if bad.size:
            i = int(bad[0])
            raise ModelError(
                f"negative gamma for switch {switches[i]!r}: {arrays.gamma[i].item()!r}"
            )
        _check_shape("delay_order", arrays.delay_order, (n, m))
        _check_ideal_delay(ideal_delay_ms)

        instance = cls.__new__(cls)
        instance.__dict__.update(
            switches=switches,
            controllers=controllers,
            spare=dict(zip(controllers, arrays.spare.tolist())),
            ideal_delay_ms=ideal_delay_ms,
            lam=lam,
            _pairs=arrays.pairs,
            _total_iterations=int(arrays.flow_pairs.max()) if arrays.n_pairs else 0,
            _instance_arrays=arrays,
            _flow_source=(flows, flow_positions),
            _pair_path_pos=pair_path_pos,
        )
        return instance

    def __getattr__(self, name: str):
        """Build a dict field of a :meth:`from_arrays` instance on first read."""
        view = _VIEWS.get(name)
        if view is None or "_flow_source" not in self.__dict__:
            raise AttributeError(name)
        value = self.__dict__[name] = view(self, self.__dict__["_instance_arrays"])
        return value

    def __getstate__(self) -> dict:
        """Pickle every dict field, not the network's flow population."""
        state = self.__dict__.copy()
        if state.pop("_flow_source", None) is not None:
            del state["_pair_path_pos"]
            for name in _VIEWS:
                state[name] = getattr(self, name)
        return state

    def arrays(self) -> InstanceArrays:
        """The instance's dense :class:`InstanceArrays` (cached).

        Grounding hands them over ready; an instance built from dicts
        converts its fields on the first call.
        """
        cached = self.__dict__.get("_instance_arrays")
        if cached is None:
            cached = self.__dict__["_instance_arrays"] = self._field_arrays()
        return cached

    def _field_arrays(self) -> InstanceArrays:
        """Convert the dict fields into the base columns of the arrays."""
        switches, controllers, pairs = self.switches, self.controllers, self._pairs
        flow_ids = tuple(self.flows)
        n, m, n_flows, n_pairs = len(switches), len(controllers), len(flow_ids), len(pairs)
        switch_pos = dict(zip(switches, range(n)))
        flow_pos = dict(zip(flow_ids, range(n_flows)))
        flow_rank = np.empty(n_flows, dtype=np.int64)
        flow_rank[sorted(range(n_flows), key=flow_ids.__getitem__)] = np.arange(n_flows)
        delay = self.delay
        return build_arrays(
            switches,
            controllers,
            flow_ids,
            flow_rank,
            pairs,
            spare=np.fromiter((self.spare[c] for c in controllers), dtype=np.int64, count=m),
            gamma=np.fromiter((self.gamma[s] for s in switches), dtype=np.int64, count=n),
            delay=np.fromiter(
                (delay[(s, c)] for s in switches for c in controllers),
                dtype=np.float64,
                count=n * m,
            ).reshape(n, m),
            pair_switch=np.fromiter(
                (switch_pos[s] for s, _ in pairs), dtype=np.int64, count=n_pairs
            ),
            pair_flow=np.fromiter(
                (flow_pos[f] for _, f in pairs), dtype=np.int64, count=n_pairs
            ),
            pair_pbar=np.fromiter(
                (self.pbar[pair] for pair in pairs), dtype=np.int64, count=n_pairs
            ),
            network_pos=None,
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
        return self.arrays().n_flows

    @property
    def pairs(self) -> tuple[tuple[NodeId, FlowId], ...]:
        """All programmable pairs, sorted (precomputed)."""
        return self._pairs

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
        arrays = self.arrays()
        return int(arrays.flow_max_pro[arrays.flow_pos[flow_id]])

    def total_max_programmability(self) -> int:
        """Upper bound on obj2: every programmable pair active."""
        return int(self.arrays().pair_pbar.sum())

    @property
    def total_iterations(self) -> int:
        """The paper's TOTAL_ITERATIONS: max offline switches on any flow path.

        Counted over programmable pairs, since only those can raise a
        flow's programmability.  Set by the constructors — PM's phase-1
        loop reads this every pass.
        """
        return self._total_iterations

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"FMSSM(N={self.n_switches}, M={self.n_controllers}, L={self.n_flows}, "
            f"pairs={len(self._pairs)}, recoverable={len(self.recoverable_flows)}, "
            f"spare={self.total_spare}, G={self.ideal_delay_ms:.2f}ms, "
            f"lambda={self.lam:.3g})"
        )


def _check_shape(name: str, column: np.ndarray, shape: tuple[int, ...]) -> None:
    if column.shape != shape:
        raise ModelError(f"{name} has shape {column.shape}, expected {shape}")


def _check_ideal_delay(value: Milliseconds) -> None:
    if value < 0:
        raise ModelError(f"ideal_delay_ms must be >= 0: {value!r}")


# ----------------------------------------------------------------------
# Dict views of a from_arrays instance, in the dataclass constructor's
# insertion order.
# ----------------------------------------------------------------------
def _flows_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    flows, positions = instance.__dict__["_flow_source"]
    return dict(zip(arrays.flow_ids, map(flows.__getitem__, positions.tolist())))


def _pbar_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    pairs, values = arrays.pairs, arrays.pair_pbar.tolist()
    order = np.lexsort((instance.__dict__["_pair_path_pos"], arrays.pair_flow))
    return {pairs[k]: values[k] for k in order.tolist()}


def _delay_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    keys = [(s, c) for s in arrays.switches for c in arrays.controllers]
    return dict(zip(keys, arrays.delay.ravel().tolist()))


def _gamma_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    return dict(zip(arrays.switches, arrays.gamma.tolist()))


def _nearest_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    nearest = arrays.delay_order[:, 0].tolist()
    return dict(zip(arrays.switches, map(arrays.controllers.__getitem__, nearest)))


def _recoverable_view(instance: FMSSMInstance, arrays: InstanceArrays) -> tuple:
    return tuple(map(arrays.flow_ids.__getitem__, arrays.recoverable_pos.tolist()))


def _pairs_at_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    pairs, indptr = arrays.pairs, arrays.switch_indptr.tolist()
    return {
        switch: tuple(flow_id for _, flow_id in pairs[indptr[i] : indptr[i + 1]])
        for i, switch in enumerate(arrays.switches)
    }


def _pairs_of_view(instance: FMSSMInstance, arrays: InstanceArrays) -> dict:
    # Grouped by flow, ascending pair index (= ascending switch) within.
    order = np.argsort(arrays.pair_flow, kind="stable")
    switches = list(map(arrays.switches.__getitem__, arrays.pair_switch[order].tolist()))
    view, start = {}, 0
    for flow_id, count in zip(arrays.flow_ids, arrays.flow_pairs.tolist()):
        view[flow_id] = tuple(switches[start : start + count])
        start += count
    return view


_VIEWS = {
    "flows": _flows_view,
    "pbar": _pbar_view,
    "delay": _delay_view,
    "gamma": _gamma_view,
    "nearest": _nearest_view,
    "pairs_at": _pairs_at_view,
    "pairs_of": _pairs_of_view,
    "recoverable_flows": _recoverable_view,
}
