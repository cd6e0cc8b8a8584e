"""Matrix standard form and its HiGHS adapter.

Every exact solve in the package writes its problem directly as a
:class:`StandardForm` (P′ in :mod:`repro.perf.compile`, the RetroFlow
assignment IP in :mod:`repro.baselines.retroflow`) and solves it with
:func:`solve_form_with_highs`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.lp.highs": ("solve_form_relaxation", "solve_form_with_highs"),
        "repro.lp.solution": ("SolveResult", "SolveStatus"),
        "repro.lp.standard_form": ("StandardForm",),
    },
)
