"""The paper's experiments: one function per table or figure
(:mod:`.workflows`) and one table, :data:`EXPERIMENTS`, that the CLI and the
paper suite read (:mod:`.paper`)."""

from .config import ExperimentConfig, default_config
from .paper import EXPERIMENTS, Experiment
from .report import format_series, format_table, format_value
from .workflows import (
    TrajectoryResult,
    combined_measurements_ablation,
    degree_sequence_ablation,
    figure1_comparison,
    figure3_tbd_bucketing,
    figure4_tbi_fitting,
    figure5_epsilon_sensitivity,
    figure6_scalability,
    jdd_accuracy_ablation,
    run_tbd_synthesis,
    run_tbi_synthesis,
    smooth_sensitivity_ablation,
    table1_graph_statistics,
    table2_tbi_triangles,
    table3_barabasi,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentConfig",
    "default_config",
    "format_table",
    "format_series",
    "format_value",
    "TrajectoryResult",
    "figure1_comparison",
    "table1_graph_statistics",
    "figure3_tbd_bucketing",
    "table2_tbi_triangles",
    "figure4_tbi_fitting",
    "figure5_epsilon_sensitivity",
    "table3_barabasi",
    "figure6_scalability",
    "jdd_accuracy_ablation",
    "degree_sequence_ablation",
    "combined_measurements_ablation",
    "smooth_sensitivity_ablation",
    "run_tbi_synthesis",
    "run_tbd_synthesis",
]
