"""Assemble an :class:`~repro.fmssm.instance.FMSSMInstance` from a network.

This is the glue between the substrates (topology, flows, programmability
model, control plane, failure scenario) and the optimization/heuristic
layer.  Every recovery algorithm consumes the instance built here, so all
algorithms are compared on identical ground data.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from collections.abc import Iterable
from itertools import chain, repeat

import numpy as np

from repro.control.delay import DelayModel
from repro.control.failures import FailureScenario
from repro.control.plane import ControlPlane
from repro.exceptions import FlowError
from repro.flows.flow import Flow
from repro.fmssm.arrays import Frame, build_arrays
from repro.fmssm.instance import FMSSMInstance
from repro.routing.programmability import ProgrammabilityModel

__all__ = ["GroundingIndex", "build_instance", "default_lambda"]


def default_lambda(total_max_programmability: int) -> float:
    """A weight that keeps obj1 strictly prioritized over obj2.

    The paper combines ``obj = r + lambda * sum(pro)`` and picks the
    weight "following [17]" so the combined optimum matches the two-stage
    optimum.  Any ``lambda < 1 / max(obj2)`` works: raising ``r`` by one
    unit (its smallest step, since programmabilities are integers) then
    always beats any achievable obj2 gain.  We use half that bound.
    """
    return 0.5 / max(1, total_max_programmability)


class GroundingIndex:
    """Everything about a network that is the same for every scenario.

    A sweep, a store probe or an operator's request loop grounds many
    failure scenarios against one plane and one flow population.  The
    index holds that data as arrays over node codes (one per node),
    flow positions (the population's order) and controller positions
    (``plane.controller_ids`` order), built once:

    * each node's ``gamma`` over the full workload (its visits);
    * each controller's spare capacity under the full workload, from
      the domains' ``gamma`` (computed on the first :meth:`ground`, so a
      mis-provisioned plane raises :class:`~repro.exceptions.CapacityError`
      there, after the scenario itself was validated);
    * a node → flow-position incidence in CSR form, and each flow's
      rank in flow-id order;
    * per switch, its programmable entries ``(flow position, position
      on the path, p̄)`` sorted by flow id, with their ``(switch, flow
      id)`` key tuples, which every instance shares.  A switch's entries
      are gathered the first time it is offline (or by :meth:`fill`):
      one :meth:`~repro.routing.programmability.ProgrammabilityModel.
      pbar_toward` call over the destinations of the flows visiting
      it, read off the incidence;
    * per delay model, each node's delay row over all controllers,
      filled from :meth:`DelayModel.delay_ms
      <repro.control.delay.DelayModel.delay_ms>` the first time the node
      is offline (or by :meth:`fill_delays`).

    :meth:`ground` then produces an instance's
    :class:`~repro.fmssm.arrays.InstanceArrays` as slices and gathers
    of these arrays, with the same contents — and dict views in the
    same insertion order — as a scan of the flows in order would give.
    :meth:`network_frame` names every entry of the filled index as one
    position, for results that outlive their instances (kept results
    and the solve store's records); once it is built, :meth:`ground`
    also builds each instance's map onto it
    (:meth:`InstanceArrays.network_map
    <repro.fmssm.arrays.InstanceArrays.network_map>`).

    Parameters
    ----------
    plane:
        Control plane (topology, domains, capacities).
    flows:
        The full flow population, with unique flow ids.
    programmability:
        Source of ``p̄``; only its ``pbar_toward(switch, destinations)``
        is read, once per switch.
    """

    def __init__(
        self,
        plane: ControlPlane,
        flows: Iterable[Flow],
        programmability: ProgrammabilityModel,
    ) -> None:
        self._plane = plane
        self._flows = tuple(flows)
        self._ids = tuple(flow.flow_id for flow in self._flows)
        if len(set(self._ids)) != len(self._ids):
            raise FlowError("duplicate flow id in the flow population")
        self._programmability = programmability
        self._spare: np.ndarray | None = None
        self._controllers = plane.controller_ids
        self._controller_pos = dict(zip(self._controllers, range(len(self._controllers))))
        self._sites = tuple(plane.controller(c).site for c in self._controllers)

        paths = [flow.path for flow in self._flows]
        # Node codes are the topology's node positions, which the
        # counter's rows are indexed by.
        self._nodes = plane.topology.nodes
        self._codes = dict(zip(self._nodes, range(len(self._nodes))))

        # Node → flow-position incidence (CSR over node codes); a flow
        # appears once per node, paths being simple.  Each visit keeps
        # its position on the path; gamma counts the visits.
        lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        try:
            visited = np.fromiter(
                map(self._codes.__getitem__, chain.from_iterable(paths)),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
        except KeyError as exc:
            raise FlowError(f"a flow path visits {exc.args[0]!r}, not in the topology") from None
        ends = np.cumsum(lengths)
        self._destination = visited[ends - 1]
        order = np.argsort(visited, kind="stable")
        self._incidence = np.repeat(np.arange(len(paths)), lengths)[order]
        self._incidence_hop = order - (ends - lengths)[self._incidence]
        self._gamma = np.bincount(visited, minlength=len(self._nodes))
        self._incidence_ptr = np.concatenate(([0], np.cumsum(self._gamma))).tolist()
        self._rank = np.empty(len(self._ids), dtype=np.int64)
        self._rank[sorted(range(len(self._ids)), key=self._ids.__getitem__)] = np.arange(
            len(self._ids)
        )
        #: Per node code, ``(int64[3, k] rows of flow position, path
        #: position and p̄, (switch, flow id) keys)``; filled on first use.
        self._entries: list[tuple[np.ndarray, tuple] | None] = [None] * len(self._nodes)
        self._filled = False
        self._frame: Frame | None = None
        self._geodesic = DelayModel(plane.topology, mode="geodesic")
        #: Per delay model: (delay rows over all controllers, filled codes).
        self._delays: weakref.WeakKeyDictionary[DelayModel, tuple[np.ndarray, set[int]]] = (
            weakref.WeakKeyDictionary()
        )

    def _switch_entries(self, code: int) -> tuple[np.ndarray, tuple]:
        """The programmable entries of the switch with node code ``code``."""
        entries = self._entries[code]
        if entries is None:
            switch = self._nodes[code]
            start, stop = self._incidence_ptr[code], self._incidence_ptr[code + 1]
            flows = self._incidence[start:stop]
            # A flow ending here has p̄ 0: a switch's count toward itself is 0.
            pbar = self._programmability.pbar_toward(switch, self._destination[flows])
            held = np.flatnonzero(pbar)
            held = held[np.argsort(self._rank[flows[held]])]  # by flow id, which is unique
            table = np.stack((flows[held], self._incidence_hop[start + held], pbar[held]))
            keys = tuple(zip(repeat(switch), map(self._ids.__getitem__, table[0].tolist())))
            entries = self._entries[code] = (table, keys)
        return entries

    def fill(self) -> GroundingIndex:
        """Read every switch's entries now, so ``programmability`` is
        never consulted again.  Spare capacity stays unread until the
        first :meth:`ground`."""
        if not self._filled:
            for code in range(len(self._nodes)):
                self._switch_entries(code)
            self._filled = True
            # CPython runs a process's first full collection after ~11
            # gen-1 collections, whatever the heap holds.  Filling the
            # index is set-up: a process that has not had it yet takes it
            # here, not inside the first requests that follow.
            if not gc.get_stats()[2]["collections"]:
                gc.collect()
        return self

    def network_frame(self) -> Frame:
        """The :class:`~repro.fmssm.arrays.Frame` of the whole network
        (fills the index, built once).

        Switches are the node codes, controllers the plane's, flows the
        population in order; the pairs are every switch's entries in
        the index's CSR order, with the key tuples the index holds.  An
        instance grounded from this index maps its positions onto it with
        :meth:`InstanceArrays.network_map
        <repro.fmssm.arrays.InstanceArrays.network_map>`.
        """
        if self._frame is None:
            indptr, table = self.fill().packed_entries()
            pair_switch = np.repeat(np.arange(len(self._nodes)), np.diff(indptr))
            pair_flow = table[0]
            rank = np.empty(pair_flow.size, dtype=np.int64)
            rank[np.lexsort((pair_switch, pair_flow))] = np.arange(pair_flow.size)
            self._frame = Frame(
                switches=self._nodes,
                controllers=self._controllers,
                population_ids=self._ids,
                pairs=tuple(chain.from_iterable(keys for _, keys in self._entries)),
                switch_pos=self._codes,
                controller_pos=self._controller_pos,
                pair_switch=pair_switch,
                pair_flow=pair_flow,
                switch_indptr=indptr,
                network_pos=np.arange(len(self._ids)),
                view_rank=rank,
            )
        return self._frame

    def packed_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every switch's entries as one CSR over node codes: ``(indptr,
        int64[3, total] rows of flow position, path position and p̄)``."""
        tables = [self._switch_entries(code)[0] for code in range(len(self._nodes))]
        indptr = np.zeros(len(tables) + 1, dtype=np.int64)
        np.cumsum([table.shape[1] for table in tables], out=indptr[1:])
        return indptr, np.concatenate(tables, axis=1)

    def digest(self, delay_model: DelayModel) -> str:
        """A digest of the filled index with ``delay_model``'s rows: 32
        hex digits of SHA-256, the same in every process.

        It covers everything :meth:`ground` reads: node and controller
        ids, each controller's site, capacity and domain, the flows'
        paths in population order (the node → flow incidence with each
        visit's path position, which fixes every flow id), every
        switch's entries, ``gamma`` and the delay rows.  Two indexes
        that ground different instances for some scenario therefore
        differ in digest.
        """
        plane = self._plane
        h = hashlib.sha256(repr((
            self._nodes,
            tuple(
                (c, site, plane.controller(c).capacity, plane.domain(c))
                for c, site in zip(self._controllers, self._sites)
            ),
        )).encode())
        indptr, table = self.fill().packed_entries()
        for array in (
            self._gamma,
            self._incidence,
            self._incidence_hop,
            indptr,
            table,
            self._delay_rows(delay_model, range(len(self._nodes))),
        ):
            h.update(array.tobytes())
        return h.hexdigest()[:32]

    def fill_delays(self, model: DelayModel) -> GroundingIndex:
        """Fill ``model``'s delay row of every node now, so no
        :meth:`ground` computes one."""
        self._delay_rows(model, range(len(self._nodes)))
        return self

    def _delay_rows(self, model: DelayModel, codes: Iterable[int]) -> np.ndarray:
        """``model``'s delay rows, filled for every node in ``codes``."""
        rows = self._delays.get(model)
        if rows is None:
            rows = self._delays[model] = (
                np.zeros((len(self._nodes), len(self._sites))),
                set(),
            )
        matrix, filled = rows
        for code in codes:
            if code not in filled:
                node = self._nodes[code]
                matrix[code] = [model.delay_ms(node, site) for site in self._sites]
                filled.add(code)
        return matrix

    def ground(
        self,
        scenario: FailureScenario,
        delay_model: DelayModel | None = None,
        lam: float | None = None,
    ) -> FMSSMInstance:
        """Ground the FMSSM problem for one failure scenario.

        Parameters
        ----------
        scenario:
            Which controllers failed; validated once.
        delay_model:
            Switch-controller delay interpretation; defaults to the
            paper's geodesic model.
        lam:
            Objective weight; defaults to :func:`default_lambda` of the
            instance's obj2 upper bound.
        """
        active, offline = scenario.resolve(self._plane)
        if self._spare is None:
            # Spare capacity of every controller given the *full*
            # workload — active controllers keep serving their own
            # domains (the paper's "without interrupting their normal
            # operations").  The domains' loads are sums of the gamma
            # the index holds.
            plane = self._plane
            loads = plane.gamma_loads(dict(zip(self._nodes, self._gamma.tolist())))
            spare = plane.spare_of(loads)
            self._spare = np.array([spare[c] for c in self._controllers], dtype=np.int64)
        codes = list(map(self._codes.__getitem__, offline))
        columns = list(map(self._controller_pos.__getitem__, active))

        # Offline flows: every flow visiting an offline switch (its
        # destination included), in flow order.
        offline_mask = np.zeros(len(self._flows), dtype=bool)
        incidence, ptr = self._incidence, self._incidence_ptr
        for code in codes:
            offline_mask[incidence[ptr[code] : ptr[code + 1]]] = True
        positions = np.flatnonzero(offline_mask)
        local = np.cumsum(offline_mask) - 1

        # Pairs: the offline switches' entries, each sorted by flow id,
        # concatenated in switch order — the lexicographic pair order.
        entries = list(map(self._switch_entries, codes))
        flow_pos, path_pos, pair_pbar = np.concatenate(
            [table for table, _ in entries], axis=1
        )
        pairs = tuple(chain.from_iterable(keys for _, keys in entries))

        delay = self._delay_rows(delay_model or self._geodesic, codes)[np.ix_(codes, columns)]
        arrays = build_arrays(
            offline,
            active,
            self._ids,
            self._rank[positions],
            pairs,
            spare=self._spare[columns],
            gamma=self._gamma[codes],
            delay=delay,
            pair_switch=np.repeat(
                np.arange(len(codes)), [len(keys) for _, keys in entries]
            ),
            pair_flow=local[flow_pos],
            pair_pbar=pair_pbar,
            network_pos=positions,
        )
        # G (Eq. 6): every switch's gamma flows at its nearest
        # controller, summed left to right as the scalar definition does.
        nearest_delay = delay[np.arange(len(codes)), arrays.delay_order[:, 0]]
        ideal = float((arrays.gamma * nearest_delay).cumsum()[-1])
        if lam is None:
            lam = default_lambda(int(pair_pbar.sum()))
        if self._frame is not None:
            arrays.network_map(self._frame)  # the kept results' map, built with the instance
        return FMSSMInstance.from_arrays(
            arrays,
            ideal_delay_ms=ideal,
            lam=lam,
            flows=self._flows,
            flow_positions=positions,
            pair_path_pos=path_pos,
        )


def build_instance(
    plane: ControlPlane,
    flows: Iterable[Flow],
    programmability: ProgrammabilityModel,
    scenario: FailureScenario,
    delay_model: DelayModel | None = None,
    lam: float | None = None,
) -> FMSSMInstance:
    """Ground one failure scenario through a one-off :class:`GroundingIndex`.

    Callers grounding several scenarios of one network should build the
    index once (as :meth:`ExperimentContext.instance
    <repro.experiments.scenarios.ExperimentContext.instance>` does) and
    call :meth:`GroundingIndex.ground` per scenario.
    """
    return GroundingIndex(plane, flows, programmability).ground(scenario, delay_model, lam)
