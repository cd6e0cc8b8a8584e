"""Switch-controller propagation delays and the ideal recovery delay G.

``D_ij`` is the propagation delay between offline switch ``s_i`` and
active controller ``C_j``.  The paper derives delays from Haversine
distance over fibre speed (Section VI-A); we default to that *geodesic*
interpretation and also offer a *routed* variant (delay of the shortest
path through the topology), which is never shorter.

``G`` (Eq. 6) is the total delay of the ideal recovery: every offline
switch talks to its nearest active controller for all of its flows.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.exceptions import ControlPlaneError
from repro.routing.shortest import dijkstra
from repro.topology.graph import Topology
from repro.types import ControllerId, NodeId

__all__ = ["DelayModel", "ideal_recovery_delay"]


class DelayModel:
    """Computes switch→controller-site propagation delays.

    Parameters
    ----------
    topology:
        Provides coordinates and links.
    mode:
        ``"geodesic"`` (paper default) — straight-line Haversine delay;
        ``"routed"`` — delay of the minimum-delay path over the links.
    """

    _MODES = ("geodesic", "routed")

    def __init__(self, topology: Topology, mode: str = "geodesic") -> None:
        if mode not in self._MODES:
            raise ControlPlaneError(f"unknown delay mode {mode!r}; use one of {self._MODES}")
        self._topology = topology
        self._mode = mode
        self._routed_cache: dict[NodeId, dict[NodeId, float]] = {}
        self._geo_cache: dict[tuple[NodeId, NodeId], float] = {}

    @property
    def mode(self) -> str:
        """The delay interpretation in use."""
        return self._mode

    def __getstate__(self) -> dict:
        """Drop the memo caches when pickling (workers rebuild on demand)."""
        state = self.__dict__.copy()
        state["_routed_cache"] = {}
        state["_geo_cache"] = {}
        return state

    def delay_ms(self, switch: NodeId, site: NodeId) -> float:
        """One-way delay between a switch and a controller site, in ms."""
        if switch not in self._topology or site not in self._topology:
            raise ControlPlaneError(f"unknown node: {switch!r} or {site!r}")
        if switch == site:
            return 0.0
        if self._mode == "geodesic":
            key = (switch, site)
            cached = self._geo_cache.get(key)
            if cached is None:
                cached = self._topology.geo_delay_ms(switch, site)
                self._geo_cache[key] = cached
            return cached
        if site not in self._routed_cache:
            self._routed_cache[site] = dijkstra(self._topology, site, "delay_ms")[0]
        return self._routed_cache[site][switch]

    def matrix(
        self,
        switches: Sequence[NodeId],
        sites: Mapping[ControllerId, NodeId],
    ) -> dict[tuple[NodeId, ControllerId], float]:
        """Dense ``D_ij`` for offline switches × active controllers."""
        return {
            (switch, controller_id): self.delay_ms(switch, site)
            for switch in switches
            for controller_id, site in sites.items()
        }

    def nearest_controller(
        self,
        switch: NodeId,
        sites: Mapping[ControllerId, NodeId],
    ) -> ControllerId:
        """Active controller with the smallest delay to ``switch``.

        Ties break toward the lower controller id for determinism — this
        is the paper's ``alpha_ij`` indicator.
        """
        if not sites:
            raise ControlPlaneError("no active controllers given")
        return min(sites, key=lambda c: (self.delay_ms(switch, sites[c]), c))


def ideal_recovery_delay(
    delay_model: DelayModel,
    switches: Sequence[NodeId],
    sites: Mapping[ControllerId, NodeId],
    gamma: Mapping[NodeId, int],
) -> float:
    """The paper's ``G`` (Eq. 6): total delay of nearest-controller recovery.

    ``G = sum_i gamma_i * D_{i, nearest(i)}`` — every offline switch is
    mapped to its nearest active controller and all of its ``gamma_i``
    flows incur that switch-controller delay.
    """
    total = 0.0
    for switch in switches:
        nearest = delay_model.nearest_controller(switch, sites)
        count = gamma.get(switch, 0)
        if count < 0:
            raise ControlPlaneError(f"gamma[{switch!r}] must be >= 0: {count!r}")
        total += count * delay_model.delay_ms(switch, sites[nearest])
    return total
