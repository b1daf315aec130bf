"""Benchmark harness reproducing the paper's evaluation section."""

from .paperdata import PAPER_FIGURE_14, Claim, claims_for_figure
from .plot import ascii_plot
from .scaling import ScalingCurve, best_scaling_strategy, scaling_curve, scaling_report
from .report import (
    evaluate_claims,
    figure14_table,
    figure_report,
    markdown_figure_section,
)
from .runner import all_sweeps, figure_sweeps, sweep
from .workloads import (
    Experiment,
    FIGURE_OF_SHAPE,
    LARGE_CARDINALITY,
    LARGE_PROCESSORS,
    SIZE_LABELS,
    SMALL_CARDINALITY,
    SMALL_PROCESSORS,
    Series,
    SweepResult,
    all_paper_experiments,
    paper_experiments,
    run_sweep,
)

__all__ = [
    "Claim",
    "Experiment",
    "FIGURE_OF_SHAPE",
    "LARGE_CARDINALITY",
    "LARGE_PROCESSORS",
    "PAPER_FIGURE_14",
    "SIZE_LABELS",
    "SMALL_CARDINALITY",
    "SMALL_PROCESSORS",
    "ScalingCurve",
    "Series",
    "best_scaling_strategy",
    "scaling_curve",
    "scaling_report",
    "SweepResult",
    "all_paper_experiments",
    "ascii_plot",
    "all_sweeps",
    "claims_for_figure",
    "evaluate_claims",
    "figure14_table",
    "figure_report",
    "figure_sweeps",
    "markdown_figure_section",
    "paper_experiments",
    "run_sweep",
    "sweep",
]
