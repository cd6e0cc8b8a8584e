"""Experiment harness: scenarios, runners, figure/table regeneration."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.ablation": (
            "capacity_sweep",
            "counter_strategy_comparison",
            "delay_constraint_ablation",
            "lambda_sweep",
            "phase2_ablation",
        ),
        "repro.experiments.figures": (
            "failure_figure_data",
            "fig4_data",
            "fig5_data",
            "fig6_data",
            "fig7_data",
            "headline_ratios",
        ),
        "repro.experiments.report": (
            "render_fig7",
            "render_figure",
            "render_table",
            "render_table3",
        ),
        "repro.experiments.runner": (
            "PAPER_ALGORITHMS",
            "ScenarioResult",
            "run_failure_sweep",
            "run_failure_sweep_parallel",
            "run_scenario",
        ),
        "repro.experiments.successive": ("SuccessiveStage", "run_successive"),
        "repro.experiments.scenarios": (
            "ExperimentContext",
            "custom_context",
            "default_att_context",
        ),
        "repro.experiments.tables": ("PAPER_TABLE3_FLOWS", "table3_data"),
    },
)
