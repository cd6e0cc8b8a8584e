"""Shared fixtures for the test suite.

Expensive objects (the ATT context, its flows and programmability model)
are session-scoped; tests must not mutate them.  Small synthetic
topologies are provided for solver cross-validation, where exact MILP
solves must stay fast.
"""

from __future__ import annotations

import pytest

from repro.control.failures import FailureScenario
from repro.experiments.scenarios import ExperimentContext, custom_context, default_att_context
from repro.fmssm.instance import FMSSMInstance
from repro.topology.att import att_topology
from repro.topology.generators import ring_topology
from repro.types import FlowId, NodeId


def nx_graph(topology):
    """``topology`` as a ``networkx.Graph``, the tests' reference graph.

    Nodes are added in the topology's construction order and links in
    its insertion order, so each node's neighbours come in the same order
    as in ``topology.adjacency`` and networkx breaks ties the same way.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(topology.adjacency)
    for u, v in topology.links:
        link = topology.adjacency[u][v]
        graph.add_edge(u, v, distance_m=link.distance_m, delay_ms=link.delay_ms)
    return graph


@pytest.fixture(scope="session")
def att():
    """The embedded ATT topology."""
    return att_topology()


@pytest.fixture(scope="session")
def att_context() -> ExperimentContext:
    """The paper's default evaluation context (LFA counter, capacity 500)."""
    return default_att_context()


@pytest.fixture(scope="session")
def att_instance_13_20(att_context: ExperimentContext) -> FMSSMInstance:
    """The paper's flagship two-failure case (13, 20)."""
    return att_context.instance(FailureScenario(frozenset({13, 20})))


@pytest.fixture(scope="session")
def att_instance_5_13_20(att_context: ExperimentContext) -> FMSSMInstance:
    """A tight three-failure case where capacity runs out."""
    return att_context.instance(FailureScenario(frozenset({5, 13, 20})))


@pytest.fixture(scope="session")
def small_context() -> ExperimentContext:
    """A 10-node ring+chords network with 3 controllers — fast exact solves."""
    topology = ring_topology(10, chords=5, seed=7)
    return custom_context(
        topology,
        controller_sites=(0, 3, 7),
        capacity=160,
    )


@pytest.fixture(scope="session")
def small_instance(small_context: ExperimentContext) -> FMSSMInstance:
    """One controller down on the small network."""
    return small_context.instance(FailureScenario(frozenset({3})))


def make_tiny_instance(
    spare: dict[int, int] | None = None,
    lam: float = 0.001,
    ideal_delay_ms: float = 100.0,
) -> FMSSMInstance:
    """A hand-built 2-switch / 2-controller / 3-flow instance.

    Layout: offline switches 1 and 2; flows a=(10, 11), b=(10, 12),
    c=(11, 12); programmable pairs with p̄:

    ======== ======== ====
    switch   flow     p̄
    ======== ======== ====
    1        a        2
    1        b        3
    2        b        2
    2        c        4
    ======== ======== ====

    Flow a is recoverable only at switch 1; flow c only at switch 2.
    """
    switches: tuple[NodeId, ...] = (1, 2)
    controllers = (100, 200)
    flow_a: FlowId = (10, 11)
    flow_b: FlowId = (10, 12)
    flow_c: FlowId = (11, 12)
    from repro.flows.flow import Flow

    flows = {
        flow_a: Flow(10, 11, (10, 1, 11)),
        flow_b: Flow(10, 12, (10, 1, 2, 12)),
        flow_c: Flow(11, 12, (11, 2, 12)),
    }
    pbar = {
        (1, flow_a): 2,
        (1, flow_b): 3,
        (2, flow_b): 2,
        (2, flow_c): 4,
    }
    delay = {
        (1, 100): 1.0,
        (1, 200): 5.0,
        (2, 100): 4.0,
        (2, 200): 2.0,
    }
    return FMSSMInstance(
        switches=switches,
        controllers=controllers,
        spare=spare if spare is not None else {100: 2, 200: 2},
        delay=delay,
        flows=flows,
        pbar=pbar,
        gamma={1: 2, 2: 2},
        ideal_delay_ms=ideal_delay_ms,
        lam=lam,
        nearest={1: 100, 2: 200},
    )


@pytest.fixture
def tiny_instance() -> FMSSMInstance:
    """Fresh tiny instance per test (mutation safe)."""
    return make_tiny_instance()
