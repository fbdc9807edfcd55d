"""Clique statistics, the measurement harness and text plots."""

from .comparison import (
    MeasurementRow,
    alpha_sweep,
    compare_algorithms,
    format_table,
    runtime_vs_output_size,
    size_threshold_sweep,
)
from .statistics import CliqueStatistics, clique_statistics, vertex_participation
from .text_plots import ascii_bar_chart, ascii_line_chart

__all__ = [
    "CliqueStatistics",
    "clique_statistics",
    "vertex_participation",
    "MeasurementRow",
    "compare_algorithms",
    "alpha_sweep",
    "size_threshold_sweep",
    "runtime_vs_output_size",
    "format_table",
    "ascii_line_chart",
    "ascii_bar_chart",
]
