"""Core substrate: jobs, organizations, workloads, coalitions, schedules,
and the event-driven cluster simulation engine.

These are the building blocks of the paper's model (Section 2): a
multi-organizational system with identical processors, online non-clairvoyant
sequential jobs, FIFO-per-organization order, and greedy schedules.
"""

from .coalition import (
    Coalition,
    iter_members,
    iter_proper_subsets,
    iter_subsets,
    popcount,
    scaled_shapley_weights,
    shapley_weight,
    subsets_by_size,
)
from .engine import ClusterEngine
from .fleet import CoalitionFleet
from .kernel import KERNEL_MIN_ENGINES, FleetKernel, KernelEngineView, kernel_certified
from .job import Job, merge_jobs, sort_jobs, split_job, validate_jobs
from .organization import Organization
from .schedule import Schedule, ScheduledJob
from .workload import Workload, WorkloadStats

__all__ = [
    "Coalition",
    "CoalitionFleet",
    "ClusterEngine",
    "FleetKernel",
    "Job",
    "KERNEL_MIN_ENGINES",
    "KernelEngineView",
    "kernel_certified",
    "Organization",
    "Schedule",
    "ScheduledJob",
    "Workload",
    "WorkloadStats",
    "iter_members",
    "iter_proper_subsets",
    "iter_subsets",
    "merge_jobs",
    "popcount",
    "scaled_shapley_weights",
    "shapley_weight",
    "sort_jobs",
    "split_job",
    "subsets_by_size",
    "validate_jobs",
]
