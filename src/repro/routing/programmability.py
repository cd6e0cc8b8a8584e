"""The programmability model: ``beta``, ``p`` and ``p̄`` for flows.

Binds a :class:`~repro.routing.path_count.PathCounter` to a set of flows
and exposes the paper's per-(flow, switch) coefficients.  This object is
the single source of ``p̄``: the per-network
:class:`~repro.fmssm.build.GroundingIndex` reads it once per switch
(:meth:`ProgrammabilityModel.pbar_toward`), and every FMSSM instance —
hence PM, the baselines and the exact solver — is sliced from that
index, so every algorithm is scored on identical coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import FlowError
from repro.flows.flow import Flow
from repro.routing.path_count import PathCounter
from repro.types import FlowId, NodeId

__all__ = ["ProgrammabilityModel"]


class ProgrammabilityModel:
    """Per-(flow, switch) programmability coefficients.

    Parameters
    ----------
    counter:
        Path-counting strategy (determines the topology too).
    flows:
        The flow population.  Coefficients are defined for pairs
        ``(flow, switch)`` where the switch is a transit switch of the
        flow's path.
    """

    def __init__(self, counter: PathCounter, flows: Iterable[Flow]) -> None:
        self._counter = counter
        self._flows: dict[FlowId, Flow] = {}
        for flow in flows:
            if flow.flow_id in self._flows:
                raise FlowError(f"duplicate flow id {flow.flow_id!r}")
            self._flows[flow.flow_id] = flow
        self._max_pro: dict[FlowId, int] = {}

    @property
    def counter(self) -> PathCounter:
        """The underlying path counter."""
        return self._counter

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows, in insertion order."""
        return tuple(self._flows.values())

    def flow(self, flow_id: FlowId) -> Flow:
        """Look up a flow by its ``(src, dst)`` id."""
        try:
            return self._flows[flow_id]
        except KeyError:
            raise FlowError(f"unknown flow id {flow_id!r}") from None

    # ------------------------------------------------------------------
    # Paper coefficients
    # ------------------------------------------------------------------
    def p(self, flow: Flow, switch: NodeId) -> int:
        """``p_i^l`` — forwarding choices at ``switch`` toward the flow's dst.

        Zero when the switch is not a transit switch of the flow.
        """
        if switch not in flow.transit_switches:
            return 0
        return self._counter.count(switch, flow.dst)

    def beta(self, flow: Flow, switch: NodeId) -> int:
        """``beta_i^l`` — 1 iff the flow transits ``switch`` with ≥ 2 paths."""
        return 1 if self.p(flow, switch) >= 2 else 0

    def pbar(self, flow: Flow, switch: NodeId) -> int:
        """``p̄_i^l = beta_i^l * p_i^l`` — programmability gained in SDN mode."""
        p = self.p(flow, switch)
        return p if p >= 2 else 0

    def pbar_toward(self, switch: NodeId, destinations: np.ndarray) -> np.ndarray:
        """``p̄`` at ``switch`` of flows that visit it, toward
        ``destinations`` (positions in the topology's ``nodes``), as an
        int64 array: the counter's :meth:`~repro.routing.path_count.
        PathCounter.counts` with ``beta`` applied.  A flow ending at
        ``switch`` gets 0, as :meth:`pbar` gives it (a switch's count
        toward itself is 0)."""
        p = self._counter.counts(switch, destinations)
        return np.where(p >= 2, p, 0)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def programmable_switches(self, flow: Flow) -> tuple[NodeId, ...]:
        """Transit switches of ``flow`` where ``beta == 1``."""
        return tuple(s for s in flow.transit_switches if self.beta(flow, s))

    def max_programmability(self, flow: Flow) -> int:
        """Upper bound on ``pro^l``: every programmable switch in SDN mode.

        Cached per flow — ``default_lambda`` and the evaluators query it
        repeatedly with identical arguments.
        """
        cached = self._max_pro.get(flow.flow_id)
        if cached is None:
            cached = sum(self.pbar(flow, s) for s in flow.transit_switches)
            self._max_pro[flow.flow_id] = cached
        return cached
