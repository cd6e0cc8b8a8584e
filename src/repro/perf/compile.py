"""Problem P′ (Section IV-E) in matrix standard form — its one formulation.

:func:`compile_fmssm` assembles P′ directly as ``scipy.sparse``
CSR blocks from an :class:`FMSSMInstance`, vectorized over (pair,
controller) index arrays, and :func:`repro.lp.highs.solve_form_with_highs`
solves it.  The layout, which ``tests/test_fmssm_formulation.py`` holds
block by block against the paper's equations
(``tests/fmssm_oracle.py``):

columns
    ``x[s,c]`` switch-major (``s * M + c``), then per programmable pair
    ``k``: ``y_k`` followed by ``w[k,0..M-1]``, and finally ``r``.
rows (all ``<=``)
    Eq. (2) mapping rows, the Eqs. (9)–(11) McCormick triples in
    (pair, controller) order, Eq. (12) capacity rows (when there are
    pairs), Eq. (13) programmability rows ``r - Σ p̄ w <= 0`` per
    recoverable flow, and the Eq. (14) delay row (when enforced).
bounds
    binaries in ``[0, 1]``; ``r`` continuous in ``[0, r_ub]`` with
    ``r_ub`` the least max programmability of a recoverable flow (0 when
    none is), raised to ``r >= 1`` under full recovery.
objective
    ``max r + λ · Σ p̄ w``, negated to a minimization.

Every compile builds its structural index arrays (McCormick row
numbers, ``w``/``y`` column layouts, capacity-row patterns) afresh:
they are a fraction of a millisecond of a compile that precedes a
MILP of seconds, and a per-shape cache of them measured no faster.
``scipy.sparse`` is imported when a form is built, not with the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.point import FEASIBILITY_TOL, Point, feasible_point
from repro.fmssm.solution import Placement, RecoverySolution
from repro.lp.standard_form import StandardForm
from repro.types import ControllerId, FlowId, NodeId

__all__ = ["CompiledFMSSM", "compile_fmssm"]

_BINARY_THRESHOLD = 0.5


@dataclass
class CompiledFMSSM:
    """P′ in matrix standard form plus what it takes to read answers back.

    The remaining fields let callers convert between solutions and raw
    solver vectors by position.  Column
    of ``x[s,c]`` is ``s * M + c`` and pair ``k``'s ``y`` is column
    ``n_x + k * (M + 1)``, its ``w`` the ``M`` columns after it, by
    position in the instance's :class:`~repro.fmssm.arrays.InstanceArrays`.
    """

    form: StandardForm
    switches: tuple[NodeId, ...]
    controllers: tuple[ControllerId, ...]
    pairs: tuple[tuple[NodeId, FlowId], ...]
    recoverable: tuple[FlowId, ...]
    #: The compiled instance and flags: what ``embed_solution`` checks against.
    instance: FMSSMInstance = field(repr=False)
    require_full_recovery: bool
    enforce_delay: bool
    r_col: int = 0

    @property
    def n_x(self) -> int:
        """Number of ``x`` columns (N * M); also the first ``y`` column."""
        return len(self.switches) * len(self.controllers)

    # ------------------------------------------------------------------
    # Solution <-> vector conversion
    # ------------------------------------------------------------------
    def embed_solution(self, solution: RecoverySolution) -> np.ndarray | None:
        """A feasible point of the compiled form from a heuristic solution.

        :func:`~repro.fmssm.point.feasible_point` checks the solution
        against the constraints this form was compiled with, and its
        point is scattered into a solver vector (:meth:`scatter`).
        Returns ``None`` when the check rejects it — e.g. the solution is
        infeasible under ``r >= 1`` full recovery, breaks the delay
        bound, serves a pair from a controller other than its switch's
        mapping, or is not a switch-level solution.
        """
        point = feasible_point(
            self.instance, solution, self.require_full_recovery, self.enforce_delay
        )
        return None if point is None else self.scatter(point)

    def scatter(self, point: Point) -> np.ndarray:
        """The solver vector of a checked point of this form's instance.

        The mapping fills ``x``, served pairs fill ``y``/``w``, and ``r``
        takes the largest value Eq. (13) permits.
        """
        m = len(self.controllers)
        x = np.zeros(self.form.n_vars)
        mapped = np.flatnonzero(point.switch_ctrl >= 0)
        x[mapped * m + point.switch_ctrl[mapped]] = 1.0
        y_cols = self.n_x + point.pairs * (m + 1)
        x[y_cols] = 1.0
        x[y_cols + 1 + point.pair_ctrl] = 1.0
        if self.recoverable:
            x[self.r_col] = float(point.least)
        return x

    def is_feasible_point(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        """Whether ``x`` satisfies the form's rows and bounds within ``tol``."""
        if np.any(x < self.form.lb - tol) or np.any(x > self.form.ub + tol):
            return False
        return not np.any(self.form.a_ub @ x > self.form.b_ub + tol)

    def objective_value(self, x: np.ndarray) -> float:
        """Objective of ``x`` in P′'s (maximization) sense."""
        return self.form.objective_value(float(self.form.c @ x))

    def extract(self, x: np.ndarray) -> Placement:
        """The :class:`Placement` of a solver vector.

        The mapping comes from the ``x`` columns and the served pairs
        from ``w``, whose blocks are in pair order; ``w <= x`` puts each
        served pair on its switch's controller.  A vector off Eq. (2)
        (a corrupted one) keeps each switch's last controller.
        """
        m = len(self.controllers)
        hot = x[: self.n_x].reshape(-1, m) > _BINARY_THRESHOLD
        switch_ctrl = (hot * np.arange(1, m + 1)).max(axis=1) - 1
        block = x[self.n_x : self.n_x + len(self.pairs) * (m + 1)].reshape(-1, m + 1)
        pairs = np.flatnonzero((block[:, 1:] > _BINARY_THRESHOLD).any(axis=1))
        return Placement.switch_level(self.instance.arrays().frame, switch_ctrl, pairs)


def compile_fmssm(
    instance: FMSSMInstance,
    require_full_recovery: bool = False,
    enforce_delay: bool = True,
) -> CompiledFMSSM:
    """Compile ``instance`` to the standard form of problem P′.

    ``require_full_recovery`` raises ``r``'s lower bound to 1 (when a
    flow is recoverable); ``enforce_delay`` writes the Eq. (14) row.
    """
    from scipy import sparse

    switches = instance.switches
    controllers = instance.controllers
    pairs = instance.pairs
    n, m, p = len(switches), len(controllers), len(pairs)
    n_x = n * m
    q = p * m  # number of w variables
    n_vars = n_x + p * (m + 1) + 1
    r_col = n_vars - 1

    arrays = instance.arrays()
    pair_switch_idx = arrays.pair_switch
    pbar_values = arrays.pair_pbar.astype(np.float64)

    recoverable = instance.recoverable_flows
    if recoverable:
        r_ub = float(min(instance.max_programmability(f) for f in recoverable))
        r_lb = 1.0 if require_full_recovery else 0.0
    else:
        r_ub = 0.0
        r_lb = 0.0

    # w/y columns and controller indices in (pair, controller) order,
    # and the x column of each w variable.
    ci_tile = np.tile(np.arange(m, dtype=np.int64), p)
    w_cols = n_x + np.repeat(np.arange(p, dtype=np.int64) * (m + 1) + 1, m) + ci_tile
    y_cols_rep = np.repeat(n_x + np.arange(p, dtype=np.int64) * (m + 1), m)
    x_cols_rep = np.repeat(pair_switch_idx, m) * m + ci_tile
    pbar_rep = np.repeat(pbar_values, m)
    ones_q = np.ones(q)
    neg_ones_q = np.full(q, -1.0)

    data_blocks: list[np.ndarray] = []
    row_blocks: list[np.ndarray] = []
    col_blocks: list[np.ndarray] = []
    b_blocks: list[np.ndarray] = []

    def block(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        row_blocks.append(rows)
        col_blocks.append(cols)
        data_blocks.append(values)

    # Eq. (2): each switch maps to at most one controller.
    block(
        np.repeat(np.arange(n, dtype=np.int64), m),
        np.arange(n_x, dtype=np.int64),
        np.ones(n_x),
    )
    b_blocks.append(np.ones(n))
    n_rows = n

    if p:
        # Eqs. (9)-(11): w <= x, w <= y, x + y - w <= 1, one row triple
        # (wx, wy, wxy) per w variable.
        wx_rows = n + 3 * np.arange(q, dtype=np.int64)
        wy_rows = wx_rows + 1
        wxy_rows = wx_rows + 2
        block(wx_rows, w_cols, ones_q)
        block(wx_rows, x_cols_rep, neg_ones_q)
        block(wy_rows, w_cols, ones_q)
        block(wy_rows, y_cols_rep, neg_ones_q)
        block(wxy_rows, x_cols_rep, ones_q)
        block(wxy_rows, y_cols_rep, ones_q)
        block(wxy_rows, w_cols, neg_ones_q)
        b_blocks.append(np.tile(np.array([0.0, 0.0, 1.0]), q))
        n_rows += 3 * q

        # Eq. (12): controller capacity over SDN pairs.
        block(n_rows + ci_tile, w_cols, ones_q)
        b_blocks.append(
            np.fromiter(
                (float(instance.spare[c]) for c in controllers),
                dtype=np.float64,
                count=m,
            )
        )
        n_rows += m

    # Eq. (13): pro^l >= r per recoverable flow, negated to <= form.
    n_rec = len(recoverable)
    if n_rec:
        flow_row = {f: i for i, f in enumerate(recoverable)}
        pair_flow_row = np.fromiter(
            (flow_row[f] for _, f in pairs), dtype=np.int64, count=p
        )
        pro_rows_rep = n_rows + np.repeat(pair_flow_row, m)
        block(pro_rows_rep, w_cols, -pbar_rep)
        block(
            n_rows + np.arange(n_rec, dtype=np.int64),
            np.full(n_rec, r_col, dtype=np.int64),
            np.ones(n_rec),
        )
        b_blocks.append(np.zeros(n_rec))
        n_rows += n_rec

    # Eq. (14): total switch-controller delay bounded by G.
    if enforce_delay and q:
        block(
            np.full(q, n_rows, dtype=np.int64),
            w_cols,
            arrays.delay[pair_switch_idx].ravel(),
        )
        b_blocks.append(np.array([float(instance.ideal_delay_ms)]))
        n_rows += 1

    a_ub = sparse.csr_matrix(
        (
            np.concatenate(data_blocks),
            (np.concatenate(row_blocks), np.concatenate(col_blocks)),
        ),
        shape=(n_rows, n_vars),
    )
    b_ub = np.concatenate(b_blocks)

    # Objective max(r + lambda * sum(pbar * w)), negated to min form.
    c = np.zeros(n_vars)
    if q:
        c[w_cols] = -instance.lam * pbar_rep
    c[r_col] = -1.0

    lb = np.zeros(n_vars)
    ub = np.ones(n_vars)
    lb[r_col] = r_lb
    ub[r_col] = r_ub
    integrality = np.ones(n_vars)
    integrality[r_col] = 0.0

    return CompiledFMSSM(
        form=StandardForm(
            c=c, a_ub=a_ub, b_ub=b_ub, lb=lb, ub=ub, integrality=integrality
        ),
        switches=switches,
        controllers=controllers,
        pairs=pairs,
        recoverable=recoverable,
        instance=instance,
        require_full_recovery=require_full_recovery,
        enforce_delay=enforce_delay,
        r_col=r_col,
    )
