"""Recovery solution representation.

A :class:`RecoverySolution` is what every algorithm (PM, Optimal,
RetroFlow, PG, naive) returns: the switch→controller mapping X, the set
of SDN-mode (switch, flow) pairs Y, and bookkeeping about how it was
produced.  For flow-level algorithms (PG) the per-pair controller can
differ from the switch mapping, so an optional per-pair assignment is
carried as well.

The dataclass constructor takes X, Y and the per-pair controllers as
dicts; :meth:`RecoverySolution.positional` takes a :class:`Placement`
(the kernels and the certified exact solve), whose dicts are then views
built on first read.  Evaluation reads positions either way
(:func:`repro.fmssm.point.resolve`).  A kept result holds its plan as
positions of its network's frame (:func:`repro.fmssm.evaluation.rebase`).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np

from repro.exceptions import SolutionError
from repro.fmssm.arrays import Frame
from repro.types import ControllerId, FlowId, Milliseconds, NodeId

__all__ = ["Placement", "RecoverySolution"]


@dataclass(frozen=True, eq=False)
class Placement:
    """A recovery plan as positions of its instance's :class:`Frame`."""

    frame: Frame
    #: Controller position of each switch position; ``-1`` where unmapped.
    switch_ctrl: np.ndarray
    #: Positions of the served pairs, ascending.
    pairs: np.ndarray
    #: Controller position serving each of :attr:`pairs`.
    pair_ctrl: np.ndarray

    @classmethod
    def switch_level(cls, frame: Frame, switch_ctrl: np.ndarray, pairs: np.ndarray):
        """Served ``pairs``, each on its switch's controller."""
        return cls(frame, switch_ctrl, pairs, switch_ctrl[frame.pair_switch[pairs]])

    def moved(self) -> np.ndarray:
        """Mask over :attr:`pairs`: served by another controller than
        their switch's mapping (an unmapped switch's pairs included)."""
        return self.pair_ctrl != self.switch_ctrl[self.frame.pair_switch[self.pairs]]

    def mapping(self) -> dict[NodeId, ControllerId]:
        """Switch → controller, in switch-position order."""
        switches, controllers = self.frame.switches, self.frame.controllers
        return {
            switches[s]: controllers[c]
            for s, c in enumerate(self.switch_ctrl.tolist())
            if c >= 0
        }

    def sdn_pairs(self) -> set[tuple[NodeId, FlowId]]:
        """The served pairs, inserted in the frame's view order."""
        listed = self.pairs[self.frame.in_view_order(self.pairs)]
        return set(map(self.frame.pairs.__getitem__, listed.tolist()))

    def pair_controller(self) -> dict[tuple[NodeId, FlowId], ControllerId]:
        """The :meth:`moved` pairs → their controller, in view order."""
        moved = self.moved()
        pairs, ctrl = self.pairs[moved], self.pair_ctrl[moved]
        order = self.frame.in_view_order(pairs)
        keys, controllers = self.frame.pairs, self.frame.controllers
        return {
            keys[k]: controllers[c]
            for k, c in zip(pairs[order].tolist(), ctrl[order].tolist())
        }


class PositionalViews:
    """Dataclass fields held as positions and built as dicts on first read.

    ``__dict__["_positions"]`` holds the positional source.  The first
    read of any of ``_VIEWS`` builds all of them and drops the source:
    from then on the dicts are authoritative, so a caller may mutate
    them and every reader resolves the dicts again.  Pickling builds the
    views as well, so a pickle carries dicts and no frame.
    """

    _VIEWS: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def _from_positions(cls, source, **values):
        """An instance whose ``_VIEWS`` are built from ``source`` (its
        ``_views``) and whose other fields are ``values`` or defaults."""
        obj = cls.__new__(cls)
        for f in fields(cls):
            if f.name in values:
                obj.__dict__[f.name] = values.pop(f.name)
            elif f.name not in cls._VIEWS:
                obj.__dict__[f.name] = (
                    f.default if f.default is not MISSING else f.default_factory()
                )
        obj.__dict__["_positions"] = source
        return obj

    def positions(self):
        """The positional source, or ``None`` once the dicts were read."""
        return self.__dict__.get("_positions")

    def _rebase(self, source) -> None:
        """Hold ``source`` instead of the positional source: the same
        views as positions of another frame."""
        self.__dict__["_positions"] = source

    def __getattr__(self, name: str):
        source = self.__dict__.get("_positions")
        if source is None or name not in self._VIEWS:
            raise AttributeError(name)
        del self.__dict__["_positions"]
        self.__dict__.update(self._views(source))
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        state = dict.fromkeys(f.name for f in fields(self))  # field order
        state.update(self.__dict__)
        source = state.pop("_positions", None)
        if source is not None:
            state.update(self._views(source))
        return state


@dataclass
class RecoverySolution(PositionalViews):
    """Output of a recovery algorithm.

    Attributes
    ----------
    algorithm:
        Name of the producing algorithm (e.g. ``"pm"``, ``"optimal"``).
    mapping:
        X — offline switch → active controller, for mapped switches only.
    sdn_pairs:
        Y — (switch, flow id) pairs configured in SDN mode.  Pairs not in
        Y run in legacy mode on the hybrid pipeline.
    pair_controller:
        Controller actually serving each SDN pair.  For switch-level
        algorithms this is implied by ``mapping`` and may be left empty;
        for flow-level algorithms (PG) each pair may use a different
        controller than the switch's.
    extra_overhead_ms:
        Additional per-request processing charged on top of propagation
        delay (PG's FlowVisor middle layer).
    load_override:
        Per-controller control-resource consumption when it differs from
        the number of served SDN pairs.  Switch-level algorithms
        (RetroFlow, naive remapping) pay the *whole-switch* cost
        ``gamma_i`` per recovered switch — the coarse granularity the
        paper criticizes — so they record it here; the evaluator then
        verifies capacity and reports loads against this accounting.
    solve_time_s:
        Wall-clock seconds the algorithm took.
    feasible:
        False when the algorithm could not produce a solution (the paper's
        Optimal lacks results in some three-failure cases); the mapping
        and pairs are then empty.
    meta:
        Free-form diagnostics (solver status, gap, iterations...).
    """

    algorithm: str
    mapping: dict[NodeId, ControllerId] = field(default_factory=dict)
    sdn_pairs: set[tuple[NodeId, FlowId]] = field(default_factory=set)
    pair_controller: dict[tuple[NodeId, FlowId], ControllerId] = field(default_factory=dict)
    extra_overhead_ms: Milliseconds = 0.0
    load_override: dict[ControllerId, int] | None = None
    solve_time_s: float = 0.0
    feasible: bool = True
    meta: dict[str, object] = field(default_factory=dict)

    _VIEWS: ClassVar[tuple[str, ...]] = ("mapping", "sdn_pairs", "pair_controller")

    @classmethod
    def positional(cls, placement: Placement, **values) -> RecoverySolution:
        """A solution held as ``placement``; ``values`` are its other fields.

        ``mapping``, ``sdn_pairs`` and ``pair_controller`` are views of
        the placement (per-pair controllers only for :meth:`Placement.moved`
        pairs), built on first read.
        """
        return cls._from_positions(placement, **values)

    def _views(self, placement: Placement) -> dict[str, object]:
        return {
            "mapping": placement.mapping(),
            "sdn_pairs": placement.sdn_pairs(),
            "pair_controller": placement.pair_controller(),
        }

    def controller_for_pair(self, switch: NodeId, flow_id: FlowId) -> ControllerId:
        """Controller serving an SDN pair.

        Falls back to the switch's mapping when no per-pair assignment is
        recorded.  Raises :class:`SolutionError` if neither exists.
        """
        pair = (switch, flow_id)
        if pair in self.pair_controller:
            return self.pair_controller[pair]
        if switch in self.mapping:
            return self.mapping[switch]
        raise SolutionError(
            f"pair {pair!r} is in SDN mode but no controller serves it"
        )

    def active_pairs(self) -> tuple[tuple[NodeId, FlowId], ...]:
        """SDN pairs actually served by a controller, sorted.

        A pair in Y whose switch is unmapped (and with no per-pair
        controller) contributes nothing — the flow entry exists but no
        controller programs it; such pairs are excluded here.
        """
        active = []
        for pair in self.sdn_pairs:
            if pair in self.pair_controller or pair[0] in self.mapping:
                active.append(pair)
        return tuple(sorted(active))

    @property
    def n_mapped_switches(self) -> int:
        """Number of offline switches mapped to a controller."""
        return len(self.mapping)

    def recovered_switches(self) -> tuple[NodeId, ...]:
        """Switches hosting at least one served SDN pair, sorted."""
        return tuple(sorted({switch for switch, _ in self.active_pairs()}))

    def __repr__(self) -> str:
        return (
            f"RecoverySolution(algorithm={self.algorithm!r}, "
            f"mapped={len(self.mapping)}, sdn_pairs={len(self.sdn_pairs)}, "
            f"feasible={self.feasible})"
        )
