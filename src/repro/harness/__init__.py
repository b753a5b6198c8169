"""Evaluation harness: experiment plans, the engine, aggregation and reporting."""

from .aggregate import (
    arithmetic_mean,
    harmonic_mean,
    hmean_by_key,
    relative_error,
)
from .engine import EngineStats, PlanRun, run_plan
from .plans import PLAN_BUILDERS, Cell, ExperimentPlan, build_plan
from .progress import ProgressCallback, ProgressEvent
from .paper import PAPER_SECTION33, PAPER_TABLES
from .tables import ResultTable, compare_tables

__all__ = [
    "Cell",
    "EngineStats",
    "ExperimentPlan",
    "PAPER_SECTION33",
    "PAPER_TABLES",
    "PLAN_BUILDERS",
    "PlanRun",
    "ProgressCallback",
    "ProgressEvent",
    "ResultTable",
    "arithmetic_mean",
    "build_plan",
    "compare_tables",
    "run_plan",
    "harmonic_mean",
    "hmean_by_key",
    "relative_error",
]
