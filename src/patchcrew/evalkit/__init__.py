"""Evaluation machinery: metrics, test execution, regression analysis."""

from .driver import (AnalysisResult, EvaluationReport, InstanceEvaluation,
                     analyze_results, evaluate_directory, evaluate_instance,
                     format_analysis, headline, read_results_csv,
                     render_summary, write_results_csv)
from .execution import CommandResult, TestRunResult, run_tests
from .logistic import LogisticFit, logistic_fit
from .metrics import (ComplexityIndices, InstanceOutcome, applied_ratio,
                      change_intervals, change_overlap_ratio, complexity_of,
                      format_summary_table, overlap_ratio, recall,
                      recall_curve, resolved_ratio, summarize_indices)

__all__ = [
    "AnalysisResult", "CommandResult", "ComplexityIndices",
    "EvaluationReport", "InstanceEvaluation", "InstanceOutcome",
    "LogisticFit", "TestRunResult", "analyze_results", "applied_ratio",
    "change_intervals", "change_overlap_ratio", "complexity_of",
    "evaluate_directory", "evaluate_instance", "format_analysis",
    "format_summary_table", "headline", "logistic_fit", "overlap_ratio",
    "read_results_csv", "recall", "recall_curve", "render_summary",
    "resolved_ratio", "run_tests", "summarize_indices", "write_results_csv",
]
