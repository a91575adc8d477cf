"""Workload substrate: SWF parsing, synthetic trace generation, the four
paper-trace stand-ins, federated-cloud burst workloads, and the paper's
preprocessing transforms."""

from .federated import FederatedSpec, federated_records
from .swf import SwfJob, SwfTrace, load_swf, parse_swf, write_swf
from .synthetic import SyntheticSpec, generate_jobs
from .traces import (
    PAPER_TRACES,
    TRACE_PROFILES,
    TraceProfile,
    make_trace,
)
from .transforms import (
    assign_users_to_orgs,
    build_swf_instance,
    build_workload,
    machine_split,
    parallel_to_sequential,
    uniform_machine_split,
    zipf_machine_split,
)

__all__ = [
    "FederatedSpec",
    "PAPER_TRACES",
    "SwfJob",
    "SwfTrace",
    "SyntheticSpec",
    "TraceProfile",
    "TRACE_PROFILES",
    "assign_users_to_orgs",
    "build_swf_instance",
    "build_workload",
    "federated_records",
    "generate_jobs",
    "load_swf",
    "machine_split",
    "make_trace",
    "parallel_to_sequential",
    "parse_swf",
    "uniform_machine_split",
    "write_swf",
    "zipf_machine_split",
]
