"""The SD-WAN control plane: controllers, domains, and baseline loads.

A :class:`ControlPlane` binds a topology to a set of controllers, each
owning a domain of switches.  It computes each controller's *baseline
load* (the flows in its own domain, the paper's Table III row) and thus
the spare control resource ``A_j^rest`` available for recovery when other
controllers fail.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.control.controller import Controller
from repro.exceptions import CapacityError, ControlPlaneError
from repro.flows.flow import Flow
from repro.flows.paths import switch_flow_counts
from repro.topology.graph import Topology
from repro.topology.partition import validate_partition
from repro.types import ControllerId, NodeId

__all__ = ["ControlPlane"]


class ControlPlane:
    """Topology + controllers + domain partition + workload loads.

    Parameters
    ----------
    topology:
        The data-plane topology.
    domains:
        Mapping from controller id to the switches in its domain; must
        partition the topology's nodes.  Controller sites default to the
        node with the same id as the controller (the paper's convention);
        pass ``sites`` to override.
    capacity:
        Either one integer applied to every controller (the paper uses
        500) or a per-controller mapping.
    sites:
        Optional controller id → site node id.
    """

    def __init__(
        self,
        topology: Topology,
        domains: Mapping[ControllerId, Sequence[NodeId]],
        capacity: int | Mapping[ControllerId, int],
        sites: Mapping[ControllerId, NodeId] | None = None,
    ) -> None:
        validate_partition(topology, domains)
        self._topology = topology
        self._domains: dict[ControllerId, tuple[NodeId, ...]] = {
            c: tuple(sorted(members)) for c, members in domains.items()
        }
        self._controller_of: dict[NodeId, ControllerId] = {}
        for controller_id, members in self._domains.items():
            for switch in members:
                self._controller_of[switch] = controller_id

        self._controllers: dict[ControllerId, Controller] = {}
        for controller_id in sorted(self._domains):
            if isinstance(capacity, Mapping):
                try:
                    cap = capacity[controller_id]
                except KeyError:
                    raise ControlPlaneError(
                        f"no capacity given for controller {controller_id!r}"
                    ) from None
            else:
                cap = capacity
            site = controller_id if sites is None else sites.get(controller_id, controller_id)
            if site not in topology:
                raise ControlPlaneError(
                    f"controller {controller_id!r} site {site!r} is not a topology node"
                )
            self._controllers[controller_id] = Controller(
                controller_id=controller_id, site=site, capacity=int(cap)
            )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The data-plane topology."""
        return self._topology

    @property
    def controller_ids(self) -> tuple[ControllerId, ...]:
        """Controller ids in sorted order."""
        return tuple(sorted(self._controllers))

    def controller(self, controller_id: ControllerId) -> Controller:
        """Look up a controller by id."""
        try:
            return self._controllers[controller_id]
        except KeyError:
            raise ControlPlaneError(f"unknown controller {controller_id!r}") from None

    def domain(self, controller_id: ControllerId) -> tuple[NodeId, ...]:
        """Switches in the controller's domain, sorted."""
        if controller_id not in self._domains:
            raise ControlPlaneError(f"unknown controller {controller_id!r}")
        return self._domains[controller_id]

    def controller_of(self, switch: NodeId) -> ControllerId:
        """The controller owning ``switch``."""
        try:
            return self._controller_of[switch]
        except KeyError:
            raise ControlPlaneError(f"unknown switch {switch!r}") from None

    @property
    def n_controllers(self) -> int:
        """Number of controllers."""
        return len(self._controllers)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def domain_loads(self, flows: Iterable[Flow]) -> dict[ControllerId, int]:
        """Baseline control load per controller: flows in its own switches.

        A flow consumes one unit at every switch on its path (destination
        included), so a controller's load is the sum of its switches'
        ``gamma`` values — the Table III quantities.
        """
        return self.gamma_loads(switch_flow_counts(flows))

    def gamma_loads(self, gamma: Mapping[NodeId, int]) -> dict[ControllerId, int]:
        """:meth:`domain_loads` from each switch's ``gamma`` (every
        domain switch must have one)."""
        return {
            controller_id: sum(gamma[s] for s in members)
            for controller_id, members in self._domains.items()
        }

    def spare_capacity(
        self, flows: Iterable[Flow], strict: bool = True
    ) -> dict[ControllerId, int]:
        """Spare control resource ``A_j^rest`` per controller.

        With ``strict=True`` a controller whose baseline load already
        exceeds its capacity raises :class:`CapacityError` (the network
        was mis-provisioned); otherwise the spare clamps at zero.
        """
        return self.spare_of(self.domain_loads(flows), strict)

    def spare_of(
        self, loads: Mapping[ControllerId, int], strict: bool = True
    ) -> dict[ControllerId, int]:
        """:meth:`spare_capacity` from the baseline ``loads`` of
        :meth:`domain_loads` or :meth:`gamma_loads`, checked in their order."""
        spare: dict[ControllerId, int] = {}
        for controller_id, load in loads.items():
            cap = self._controllers[controller_id].capacity
            if load > cap:
                if strict:
                    raise CapacityError(
                        f"controller {controller_id!r} baseline load {load} exceeds "
                        f"capacity {cap}; the scenario is mis-provisioned"
                    )
                spare[controller_id] = 0
            else:
                spare[controller_id] = cap - load
        return spare

    def __repr__(self) -> str:
        return (
            f"ControlPlane(controllers={list(self.controller_ids)}, "
            f"switches={self._topology.n_nodes})"
        )
