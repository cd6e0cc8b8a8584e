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

import itertools
import math
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.control.delay import DelayModel
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.flows.demands import all_pairs_flows
from repro.flows.flow import Flow
from repro.geo.coordinates import GeoPoint
from repro.fmssm.build import GroundingIndex
from repro.fmssm.instance import FMSSMInstance
from repro.perf.coefficients import CoefficientTable
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
    "hub_capacity_context",
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
    #: Materialized coefficient table, built on demand by sweeps.
    _table: CoefficientTable | None = field(default=None, repr=False)
    #: Per-network grounding data, built on the first :meth:`instance`.
    _grounding: GroundingIndex | None = field(default=None, repr=False, compare=False)
    #: The solve store's digests and flow positions of this network,
    #: built on first use by :func:`repro.perf.store.network_key`.
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
        from the shared coefficient table once :meth:`materialize_table`
        has run, else from the lazy model — the values are identical by
        construction — and every scenario grounds from it.
        """
        key = scenario.failed
        instance = self._instances.get(key)
        if instance is None:
            if self._grounding is None:
                self._grounding = GroundingIndex(
                    self.plane,
                    self.flows,
                    self._table if self._table is not None else self.programmability,
                )
            instance = self._grounding.ground(scenario, delay_model=self.delay_model)
            self._instances[key] = instance
        return instance

    def materialize_table(self) -> CoefficientTable:
        """Build (once) and return the shared coefficient table.

        Sweeps call this before fanning scenarios out so every scenario —
        and every worker process — reuses one materialization of the
        ``beta`` / ``p̄`` coefficients and the inverted switch index.
        """
        if self._table is None:
            self._table = self.programmability.table()
        return self._table


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


def hub_capacity_context(
    n_leaves: int = 8,
    n_fail: int = 4,
    spare_per_leaf: int = 2,
    inflate: int = 2,
) -> tuple[ExperimentContext, list[FailureScenario]]:
    """A same-shaped scenario family whose exact solves are LP-bound.

    The batched-LP benchmarks need many structurally identical scenarios
    where the PM seed is optimal but only the *LP-relaxation* certificate
    can prove it (the closed-form combinatorial pre-certificate must
    miss, or there is no LP to batch).  This family is built for that:

    * a hub controller ``0`` (sites ``h``/``x``/``y``) with exactly
      ``n_fail * spare_per_leaf`` spare capacity, and ``n_leaves`` leaf
      controllers (two switches ``a_i``/``b_i`` each) with **zero**
      spare — their capacity equals their load;
    * per leaf, a "pure" flow ``a_i → x`` contributing one high-``p̄``
      pair and a "rich" flow ``a_i → h`` contributing two pairs, plus
      ``inflate`` filler flows that pad the leaf loads;
    * failing any ``n_fail`` of the leaf controllers yields
      ``C(n_leaves, n_fail)`` scenarios (70 at the defaults) that all
      share one (N, M, P) shape, are all feasible, and all
      certificate-accept through ``highs-lp`` — never through the
      pre-certificate, because the knapsack bound over-counts what the
      hub's capacity rows actually admit.

    Because every leaf controller has zero spare, the spare-zero
    reduction in :mod:`repro.perf.batch` shrinks each block by ~5x,
    which is what makes stacking them pay.  Returns the context and the
    scenario list.
    """
    lat0, lon0 = 40.0, -100.0
    nodes: dict[int, tuple[str, GeoPoint]] = {
        0: ("h", GeoPoint(lat0, lon0)),
        1: ("x", GeoPoint(lat0 + 0.15, lon0 + 0.10)),
        2: ("y", GeoPoint(lat0 + 0.15, lon0 - 0.10)),
    }
    edges: list[tuple[int, int]] = [(1, 0), (2, 0)]
    flows: list[Flow] = []
    for i in range(n_leaves):
        a, b = 3 + 2 * i, 4 + 2 * i
        theta = 2.0 * math.pi * i / n_leaves
        nodes[a] = (
            f"a{i}",
            GeoPoint(lat0 + 2.0 * math.cos(theta), lon0 + 2.0 * math.sin(theta)),
        )
        nodes[b] = (
            f"b{i}",
            GeoPoint(lat0 + 2.2 * math.cos(theta), lon0 + 2.2 * math.sin(theta)),
        )
        edges += [(a, b), (a, 0), (b, 0), (a, 1), (b, 2)]
        flows.append(Flow(a, 1, (a, 1)))  # pure: one high-pbar pair
        flows.append(Flow(a, 0, (a, b, 0)))  # rich: two pairs
        if inflate >= 1:
            flows.append(Flow(0, a, (0, a)))
        if inflate >= 2:
            flows.append(Flow(0, b, (0, b)))
        if inflate >= 3:
            flows.append(Flow(1, a, (1, a)))
        if inflate >= 4:
            flows.append(Flow(2, b, (2, b)))
    topology = Topology("hubfam", nodes, edges)
    domains: dict[ControllerId, list[NodeId]] = {0: [0, 1, 2]}
    sites: dict[ControllerId, NodeId] = {0: 0}
    for i in range(n_leaves):
        domains[i + 1] = [3 + 2 * i, 4 + 2 * i]
        sites[i + 1] = 3 + 2 * i
    # Capacities: every leaf controller gets exactly its load (zero
    # spare); the hub gets the spare the failed leaves will need.
    probe = ControlPlane(topology, domains, 10**6, sites=sites)
    loads = probe.domain_loads(flows)
    capacities = {
        c: loads[c] + (n_fail * spare_per_leaf if c == 0 else 0) for c in domains
    }
    plane = ControlPlane(topology, domains, capacities, sites=sites)
    counter = make_counter(topology, strategy="lfa")
    programmability = ProgrammabilityModel(counter, flows)
    delay_model = DelayModel(topology, mode="geodesic")
    context = ExperimentContext(
        topology=topology,
        flows=flows,
        plane=plane,
        programmability=programmability,
        delay_model=delay_model,
    )
    scenarios = [
        FailureScenario(tuple(c + 1 for c in combo))
        for combo in itertools.combinations(range(n_leaves), n_fail)
    ]
    return context, scenarios


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
