"""The default evaluation setup (Section VI-A) and custom setups.

An :class:`ExperimentContext` bundles everything the runner needs:
topology, flow workload, control plane, programmability model and delay
model.  :func:`default_att_context` reproduces the paper's configuration:
the ATT backbone, one flow per ordered node pair on hop-count shortest
paths, six controllers at nodes {2, 5, 6, 13, 20, 22} with processing
ability 500 each, Table III's domain partition, and geodesic
switch-controller delays.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.control.delay import DelayModel
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.flows.demands import all_pairs_flows
from repro.flows.flow import Flow
from repro.fmssm.arrays import Frame
from repro.fmssm.build import GroundingIndex
from repro.fmssm.instance import FMSSMInstance
from repro.perf.store import NetworkKey
from repro.routing.path_count import make_counter
from repro.routing.programmability import ProgrammabilityModel
from repro.topology.att import ATT_DEFAULT_CAPACITY, ATT_DOMAINS, att_topology
from repro.topology.graph import Topology
from repro.topology.partition import nearest_site_partition
from repro.types import ControllerId, NodeId

__all__ = [
    "ExperimentContext",
    "default_att_context",
    "custom_context",
]


@dataclass
class ExperimentContext:
    """Everything needed to ground FMSSM instances for one network."""

    topology: Topology
    flows: list[Flow]
    plane: ControlPlane
    programmability: ProgrammabilityModel
    delay_model: DelayModel
    #: Live instances by failed-controller set, held weakly: an instance
    #: lives as long as the request or sweep that grounded it.
    _instances: weakref.WeakValueDictionary[frozenset[ControllerId], FMSSMInstance] = field(
        default_factory=weakref.WeakValueDictionary, repr=False, compare=False
    )
    #: Per-network grounding data — the one materialized form of p̄ —
    #: built on the first :meth:`instance` or :meth:`materialize_table`.
    _grounding: GroundingIndex | None = field(default=None, repr=False, compare=False)
    #: The solve store's digest of this network, built on first use by
    #: :func:`repro.perf.store.network_key`.
    _network_key: NetworkKey | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        """Drop the grounding index, the network key and the live
        instances when pickling (the first two are rebuilt on first use,
        the instance map starts empty)."""
        state = self.__dict__.copy()
        state["_grounding"] = None
        state["_network_key"] = None
        del state["_instances"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._instances = weakref.WeakValueDictionary()

    def instance(self, scenario: FailureScenario) -> FMSSMInstance:
        """The FMSSM instance for a failure scenario.

        While any caller still holds the instance of ``scenario`` (a
        request, a sweep plan, a store probe), this returns that same
        object; once the last holder drops it, the context forgets it
        too and a later call grounds it afresh — equal field for field.
        The context never keeps an instance alive by itself, so an
        operator loop grounding a new failure set per request does not
        accumulate them.

        The first call builds the context's :class:`GroundingIndex`
        from the programmability model, and every scenario grounds from
        it.
        """
        key = scenario.failed
        instance = self._instances.get(key)
        if instance is None:
            instance = self._index().ground(scenario, delay_model=self.delay_model)
            self._instances[key] = instance
        return instance

    def _index(self) -> GroundingIndex:
        if self._grounding is None:
            self._grounding = GroundingIndex(self.plane, self.flows, self.programmability)
        return self._grounding

    def network_frame(self) -> Frame:
        """The frame of the context's whole network, which kept results
        and solve-store records are positions of (fills the grounding
        index on first call; see :meth:`GroundingIndex.network_frame`)."""
        return self._index().network_frame()

    def materialize_table(self) -> GroundingIndex:
        """Build (once) and return the context's filled grounding index.

        Callers that serve many scenarios call this up front, so every
        switch's ``p̄`` entries are read from the model exactly once.  It
        also fills every node's row of the
        context's delay model and builds the index's network frame, which
        kept results are positions of, so a request only gathers.  Spare
        capacity is not computed here.
        """
        index = self._index().fill().fill_delays(self.delay_model)
        index.network_frame()
        return index


def default_att_context(
    capacity: int = ATT_DEFAULT_CAPACITY,
    counter_strategy: str = "lfa",
    flow_weight: str = "hops",
    delay_mode: str = "geodesic",
    **counter_kwargs: object,
) -> ExperimentContext:
    """The paper's evaluation setup on the embedded ATT backbone.

    Parameters expose the knobs the ablation benchmarks sweep: controller
    ``capacity`` (paper: 500), the path-programmability
    ``counter_strategy`` (``"lfa"``/``"bounded"``/``"dag"``), the routing
    metric for flow paths, and the delay interpretation.
    """
    topology = att_topology()
    flows = all_pairs_flows(topology, weight=flow_weight)
    plane = ControlPlane(topology, ATT_DOMAINS, capacity)
    counter = make_counter(topology, strategy=counter_strategy, **counter_kwargs)
    programmability = ProgrammabilityModel(counter, flows)
    delay_model = DelayModel(topology, mode=delay_mode)
    return ExperimentContext(
        topology=topology,
        flows=flows,
        plane=plane,
        programmability=programmability,
        delay_model=delay_model,
    )


def custom_context(
    topology: Topology,
    controller_sites: Sequence[NodeId],
    capacity: int | Mapping[ControllerId, int],
    domains: Mapping[ControllerId, Sequence[NodeId]] | None = None,
    counter_strategy: str = "lfa",
    flow_weight: str = "hops",
    delay_mode: str = "geodesic",
    **counter_kwargs: object,
) -> ExperimentContext:
    """Build a context for an arbitrary topology.

    When ``domains`` is omitted, switches join their geographically
    nearest controller site (:func:`nearest_site_partition`).
    """
    if domains is None:
        domains = nearest_site_partition(topology, controller_sites)
    flows = all_pairs_flows(topology, weight=flow_weight)
    plane = ControlPlane(topology, domains, capacity)
    counter = make_counter(topology, strategy=counter_strategy, **counter_kwargs)
    programmability = ProgrammabilityModel(counter, flows)
    delay_model = DelayModel(topology, mode=delay_mode)
    return ExperimentContext(
        topology=topology,
        flows=flows,
        plane=plane,
        programmability=programmability,
        delay_model=delay_model,
    )
