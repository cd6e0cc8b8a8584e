"""Metric helpers: distribution summaries and fairness indices."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.fairness": ("balance_report", "jain_fairness_index"),
        "repro.metrics.summary": ("FiveNumberSummary", "summarize"),
    },
)
