"""Path-programmability counting — the paper's ``beta``, ``p`` and ``p̄``.

Section IV of the paper defines, for flow ``f^l`` and offline switch
``s_i`` on its path:

* ``beta_i^l = 1`` iff ``s_i`` lies on the flow's forwarding path *and*
  has at least two paths to the flow's destination;
* ``p_i^l`` — "the number of paths from switch ``s_i``'s next hops to
  ``f^l``'s destination", i.e. how many distinct forwarding choices the
  controller can program at ``s_i``;
* ``p̄_i^l = beta_i^l * p_i^l`` — the programmability the flow gains when
  it runs in SDN mode at ``s_i`` under an active controller.

Exhaustive simple-path counting is exponential, so the paper's tiny
example generalizes ambiguously; we provide two well-defined strategies:

:class:`BoundedSimplePathCounter`
    Counts simple paths whose hop length is at most the shortest hop
    distance plus a ``slack`` (default 2).  With pruning by hop-distance
    this is fast on WAN-scale graphs and reproduces the magnitudes the
    paper reports (least programmability 2, hub flows much higher).

:class:`ShortestDagCounter`
    Counts distinct *shortest* paths (by delay or hops) via the
    shortest-path DAG — the most conservative notion, standard in ECMP.

:class:`LoopFreeAlternateCounter` (default)
    Counts distinct *next hops* through which the destination stays
    reachable without looping back, within a hop-length slack — the
    loop-free-alternates notion from IP fast-reroute.  This reads "the
    number of paths from switch s_i's next hops" as one usable path per
    programmable next hop: exactly the forwarding choices a controller
    can install at the switch.  It is the library default because it (a)
    is the physically meaningful count of programmable actions, (b)
    yields homogeneous values (bounded by node degree), under which the
    paper's reported near-equality of PM, PG and Optimal reproduces, and
    (c) keeps eligibility broad enough that three-controller failures
    exhaust controller capacity, reproducing the paper's partial-recovery
    and Optimal-infeasibility cases.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from weakref import WeakKeyDictionary

import numpy as np

from repro.exceptions import RoutingError
from repro.routing.shortest import hop_distances_to, shortest_path_dag
from repro.topology.graph import Topology
from repro.types import NodeId

__all__ = [
    "PathCounter",
    "BoundedSimplePathCounter",
    "ShortestDagCounter",
    "LoopFreeAlternateCounter",
    "make_counter",
    "shared_hop_distances",
]

#: Per-topology cache of per-destination hop-distance maps.  Counters of
#: different strategies (and several counters on one topology, as the
#: counting-strategy ablation creates) share one BFS per destination instead
#: of each recomputing it.  Keyed weakly so dropping the topology drops
#: its distances.
_HOP_DISTANCES: "WeakKeyDictionary[Topology, dict[NodeId, dict[NodeId, int]]]" = (
    WeakKeyDictionary()
)


def shared_hop_distances(topology: Topology, dst: NodeId) -> dict[NodeId, int]:
    """Hop distances of every node to ``dst``, cached per topology.

    The returned dict is shared — callers must treat it as read-only.
    """
    per_topology = _HOP_DISTANCES.get(topology)
    if per_topology is None:
        per_topology = {}
        _HOP_DISTANCES[topology] = per_topology
    distances = per_topology.get(dst)
    if distances is None:
        distances = hop_distances_to(topology, dst)
        per_topology[dst] = distances
    return distances


class PathCounter(ABC):
    """Counts forwarding paths between node pairs on a fixed topology."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._cache: dict[tuple[NodeId, NodeId], int] = {}

    @property
    def topology(self) -> Topology:
        """The topology this counter operates on."""
        return self._topology

    def count(self, src: NodeId, dst: NodeId) -> int:
        """Number of paths from ``src`` to ``dst`` under this strategy.

        Results are cached; ``count(x, x)`` is 0 by convention (a switch
        cannot reroute a flow it terminates).
        """
        if src not in self._topology or dst not in self._topology:
            raise RoutingError(f"unknown endpoint: {src!r} or {dst!r}")
        if src == dst:
            return 0
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = self._count(src, dst)
        return self._cache[key]

    def counts(self, src: NodeId, destinations: np.ndarray) -> np.ndarray:
        """Counts from ``src`` toward each of ``destinations``, given as
        positions in :attr:`Topology.nodes
        <repro.topology.graph.Topology.nodes>`, as an int64 array.

        This is what grounding reads, once per switch.  Here it asks
        :meth:`count` pair by pair; :class:`LoopFreeAlternateCounter`
        gathers from its rows.
        """
        nodes = self._topology.nodes
        return np.fromiter(
            (self.count(src, nodes[d]) for d in destinations.tolist()),
            dtype=np.int64,
            count=len(destinations),
        )

    @abstractmethod
    def _count(self, src: NodeId, dst: NodeId) -> int:
        """Strategy-specific uncached count."""


class BoundedSimplePathCounter(PathCounter):
    """Simple paths of hop length ≤ shortest + ``slack``.

    Parameters
    ----------
    topology:
        The graph to count on.
    slack:
        Extra hops allowed beyond the shortest hop distance.  ``slack=0``
        counts hop-shortest paths only; the default ``2`` admits modest
        detours, matching how much longer a rerouted WAN path may
        reasonably be.
    max_count:
        Enumeration stops once this many paths are found, guarding
        against pathological dense graphs.  The count saturates at this
        value rather than raising.
    """

    def __init__(self, topology: Topology, slack: int = 2, max_count: int = 1_000_000) -> None:
        if slack < 0:
            raise ValueError(f"slack must be non-negative: {slack!r}")
        if max_count < 1:
            raise ValueError(f"max_count must be positive: {max_count!r}")
        super().__init__(topology)
        self._slack = slack
        self._max_count = max_count

    @property
    def slack(self) -> int:
        """Extra hops allowed beyond the shortest hop distance."""
        return self._slack

    def _distances(self, dst: NodeId) -> dict[NodeId, int]:
        return shared_hop_distances(self._topology, dst)

    def _count(self, src: NodeId, dst: NodeId) -> int:
        dist = self._distances(dst)
        if src not in dist:  # pragma: no cover - topologies are connected
            return 0
        budget = dist[src] + self._slack
        adjacency = self._topology.adjacency
        found = 0
        # Iterative DFS; each stack frame is (node, remaining_budget).
        visited: set[NodeId] = {src}
        stack: list[tuple[NodeId, int, list[NodeId]]] = [
            (src, budget, list(adjacency[src]))
        ]
        while stack:
            node, remaining, pending = stack[-1]
            if not pending:
                stack.pop()
                visited.discard(node)
                continue
            nxt = pending.pop()
            if nxt in visited:
                continue
            if nxt == dst:
                found += 1
                if found >= self._max_count:
                    return self._max_count
                continue
            # Prune: reaching dst from nxt needs dist[nxt] more hops.
            if remaining - 1 < dist.get(nxt, float("inf")):
                continue
            visited.add(nxt)
            stack.append((nxt, remaining - 1, list(adjacency[nxt])))
        return found


class ShortestDagCounter(PathCounter):
    """Distinct shortest paths counted over the shortest-path DAG.

    ``weight`` selects the shortest-path metric; the default ``"hops"``
    matches the workload's routing metric — with continuous delay
    weights shortest paths are almost surely unique and every count
    degenerates to 1 (no programmability anywhere).
    """

    def __init__(self, topology: Topology, weight: str = "hops") -> None:
        super().__init__(topology)
        self._weight = weight
        self._dags: dict[NodeId, dict[NodeId, tuple[NodeId, ...]]] = {}
        self._counts: dict[NodeId, dict[NodeId, int]] = {}

    @property
    def weight(self) -> str:
        """Metric used to build the shortest-path DAG."""
        return self._weight

    def _dag_counts(self, dst: NodeId) -> dict[NodeId, int]:
        if dst in self._counts:
            return self._counts[dst]
        dag = self._dags.setdefault(dst, shortest_path_dag(self._topology, dst, self._weight))
        counts: dict[NodeId, int] = {dst: 1}

        def resolve(node: NodeId) -> int:
            # The DAG is acyclic, so memoized recursion terminates; an
            # explicit stack avoids Python recursion limits on long paths.
            stack = [node]
            while stack:
                top = stack[-1]
                if top in counts:
                    stack.pop()
                    continue
                missing = [s for s in dag[top] if s not in counts]
                if missing:
                    stack.extend(missing)
                else:
                    counts[top] = sum(counts[s] for s in dag[top])
                    stack.pop()
            return counts[node]

        for node in self._topology.nodes:
            if node != dst:
                resolve(node)
        self._counts[dst] = counts
        return counts

    def _count(self, src: NodeId, dst: NodeId) -> int:
        return self._dag_counts(dst).get(src, 0)


class LoopFreeAlternateCounter(PathCounter):
    """Programmable next hops with loop-free reachability (default).

    A neighbor ``v`` of ``src`` counts as a usable forwarding choice for
    destination ``dst`` when a simple path ``src -> v -> ... -> dst``
    exists that does not revisit ``src`` and whose total hop length is at
    most ``hop_shortest(src, dst) + slack``.  The count is the number of
    such neighbors — bounded by the node degree, which keeps
    programmability values homogeneous across flows.

    A switch's row of counts toward every node is filled the first time
    the switch is queried (see :meth:`_row`); :meth:`count` and
    :meth:`counts` read the rows.

    Parameters
    ----------
    topology:
        The graph to count on.
    slack:
        Extra hops allowed beyond the shortest hop distance (default 1:
        a detour may be one hop longer than the shortest path).
    """

    def __init__(self, topology: Topology, slack: int = 1) -> None:
        if slack < 0:
            raise ValueError(f"slack must be non-negative: {slack!r}")
        super().__init__(topology)
        self._slack = slack
        n = topology.n_nodes
        self._position = dict(zip(topology.nodes, range(n)))
        self._adjacency = np.zeros((n, n), dtype=bool)
        for u, v in topology.links:
            i, j = self._position[u], self._position[v]
            self._adjacency[i, j] = self._adjacency[j, i] = True
        self._neighbor_bits = np.packbits(self._adjacency, axis=1)
        #: Per node position, its counts toward every node, both in
        #: ``topology.nodes`` order; filled on first use.
        self._rows: dict[int, np.ndarray] = {}

    @property
    def slack(self) -> int:
        """Extra hops allowed beyond the shortest hop distance."""
        return self._slack

    def count(self, src: NodeId, dst: NodeId) -> int:
        """As :meth:`PathCounter.count`, read from the rows (no per-pair
        cache; a row's own entry is 0)."""
        if src not in self._topology or dst not in self._topology:
            raise RoutingError(f"unknown endpoint: {src!r} or {dst!r}")
        return self._count(src, dst)

    def counts(self, src: NodeId, destinations: np.ndarray) -> np.ndarray:
        if src not in self._topology:
            raise RoutingError(f"unknown endpoint: {src!r}")
        return self._row(self._position[src])[destinations]

    def _count(self, src: NodeId, dst: NodeId) -> int:
        return int(self._row(self._position[src])[self._position[dst]])

    def _row(self, switch: int) -> np.ndarray:
        """The row of the node at position ``switch``: one BFS from each
        of its neighbors ``v``, in the graph without it, all advanced
        together.

        BFS ``i`` runs from ``start[i]``.  Reached sets are bit rows, so
        a level is one gather of the frontier nodes' neighbor bits,
        OR-reduced per BFS; over all levels each BFS touches each node
        once, and no array outgrows degree × nodes.  Since a shortest
        path from the switch never revisits it, its distance to ``t`` is
        ``1 + min_v detour_v(t)``, and ``v`` counts toward ``t`` iff
        ``detour_v(t)`` is within ``slack`` of that minimum.
        """
        row = self._rows.get(switch)
        if row is not None:
            return row
        n = len(self._position)
        start = np.flatnonzero(self._adjacency[switch])
        bfs = np.arange(start.size)
        reached = np.zeros((start.size, n), dtype=bool)
        reached[:, switch] = True
        reached[bfs, start] = True
        reached = np.packbits(reached, axis=1)
        unreached = n  # longer than any hop distance
        detour = np.full((start.size, n), unreached, dtype=np.int32)
        detour[bfs, start] = 0
        frontier_bfs, frontier_node = bfs, start
        depth = 0
        while frontier_bfs.size:
            depth += 1
            first = np.flatnonzero(
                np.concatenate(([True], frontier_bfs[1:] != frontier_bfs[:-1]))
            )
            live = frontier_bfs[first]
            grown = np.bitwise_or.reduceat(self._neighbor_bits[frontier_node], first, axis=0)
            grown &= ~reached[live]
            reached[live] |= grown
            rows, frontier_node = np.nonzero(np.unpackbits(grown, axis=1, count=n))
            frontier_bfs = live[rows]
            detour[frontier_bfs, frontier_node] = depth
        best = detour.min(axis=0, initial=unreached)
        usable = (detour <= best + self._slack) & (detour < unreached)
        row = self._rows[switch] = usable.sum(axis=0)
        return row


_STRATEGIES = ("lfa", "bounded", "dag")


def make_counter(
    topology: Topology,
    strategy: str = "lfa",
    **kwargs: object,
) -> PathCounter:
    """Factory: build a :class:`PathCounter` by strategy name.

    ``"lfa"`` -> :class:`LoopFreeAlternateCounter` (default),
    ``"bounded"`` -> :class:`BoundedSimplePathCounter`,
    ``"dag"`` -> :class:`ShortestDagCounter`.  Extra keyword arguments are
    forwarded to the strategy constructor.
    """
    if strategy == "lfa":
        return LoopFreeAlternateCounter(topology, **kwargs)  # type: ignore[arg-type]
    if strategy == "bounded":
        return BoundedSimplePathCounter(topology, **kwargs)  # type: ignore[arg-type]
    if strategy == "dag":
        return ShortestDagCounter(topology, **kwargs)  # type: ignore[arg-type]
    raise RoutingError(f"unknown counting strategy {strategy!r}; use one of {_STRATEGIES}")
