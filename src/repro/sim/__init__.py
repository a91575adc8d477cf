"""Simulation runners and fairness metrics."""

from .metrics import (
    avg_delay,
    manhattan,
    signed_gap,
    unfairness,
    utilization_ratio,
)
from .runner import AlgorithmOutcome, Comparison, compare_algorithms, run_schedule

__all__ = [
    "AlgorithmOutcome",
    "Comparison",
    "avg_delay",
    "compare_algorithms",
    "manhattan",
    "run_schedule",
    "signed_gap",
    "unfairness",
    "utilization_ratio",
]
