"""Path and flow-set utilities shared by routing and metrics code."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain

from repro.exceptions import FlowError, TopologyError
from repro.flows.flow import Flow
from repro.topology.graph import Topology
from repro.types import FlowId, NodeId, Path

__all__ = [
    "validate_path",
    "path_delay_ms",
    "flows_by_id",
    "flows_through",
    "switch_flow_counts",
]


def validate_path(topology: Topology, path: Sequence[NodeId]) -> None:
    """Check that ``path`` is a simple path over existing links.

    Raises :class:`TopologyError` on a missing link or unknown node, and
    :class:`FlowError` on a repeated node or a too-short path.
    """
    if len(path) < 2:
        raise FlowError(f"path must have at least 2 nodes: {tuple(path)!r}")
    if len(set(path)) != len(path):
        raise FlowError(f"path revisits a node: {tuple(path)!r}")
    for node in path:
        if node not in topology:
            raise TopologyError(f"unknown node {node!r} in path")
    for u, v in zip(path, path[1:]):
        if not topology.has_edge(u, v):
            raise TopologyError(f"path uses missing link ({u!r}, {v!r})")


def path_delay_ms(topology: Topology, path: Sequence[NodeId]) -> float:
    """Sum of link propagation delays along ``path``, in milliseconds."""
    validate_path(topology, path)
    return sum(topology.link_delay_ms(u, v) for u, v in zip(path, path[1:]))


def flows_by_id(flows: Iterable[Flow]) -> dict[FlowId, Flow]:
    """Index flows by their ``(src, dst)`` id, rejecting duplicates."""
    index: dict[FlowId, Flow] = {}
    for flow in flows:
        if flow.flow_id in index:
            raise FlowError(f"duplicate flow id {flow.flow_id!r}")
        index[flow.flow_id] = flow
    return index


def flows_through(
    flows: Iterable[Flow], node: NodeId, include_destination: bool = True
) -> list[Flow]:
    """Flows whose path visits ``node``.

    With ``include_destination=True`` (default) a flow counts at every
    switch on its path, including the one that terminates it — matching
    the paper's "number of flows in switch" (Table III), where a
    destination switch still holds state for the flow.  With ``False``
    only transit switches count (where a forwarding decision exists).
    """
    if include_destination:
        return [f for f in flows if node in f.path]
    return [f for f in flows if node in f.transit_switches]


def switch_flow_counts(
    flows: Iterable[Flow], include_destination: bool = True
) -> Counter[NodeId]:
    """Per-switch flow counts — the paper's ``gamma_i``.

    For the ATT default workload (hop-count shortest paths, destinations
    included) this regenerates the "Number of flows" row of Table III in
    shape: total ≈ 2050 vs the paper's 2055, hub switch 13 far above the
    median, leaf switches at ≈ 48 vs the paper's 49.
    """
    paths = (
        flow.path if include_destination else flow.transit_switches
        for flow in flows
    )
    return Counter(chain.from_iterable(paths))
