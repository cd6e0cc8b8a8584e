"""Matrix standard form and its HiGHS adapter.

Every exact solve in the package writes its problem directly as a
:class:`StandardForm` (P′ in :mod:`repro.perf.compile`, the RetroFlow
assignment IP in :mod:`repro.baselines.retroflow`) and solves it with
:func:`solve_form_with_highs`.
"""

from repro.lp.highs import solve_form_relaxation, solve_form_with_highs
from repro.lp.solution import SolveResult, SolveStatus
from repro.lp.standard_form import StandardForm

__all__ = [
    "StandardForm",
    "SolveResult",
    "SolveStatus",
    "solve_form_with_highs",
    "solve_form_relaxation",
]
