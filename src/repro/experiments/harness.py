"""The Section 7.2 instance sampler (steps 1-4 of the paper's protocol).

One *instance* of the paper's experiment:

1. generate (or load) a long trace;
2. pick a random sub-trace window ``[t_start, t_start + D)``;
3. distribute user identifiers uniformly among ``k`` organizations;
4. distribute the processors among organizations (Zipf or uniform counts);
5. run every algorithm plus the exact REF reference;
6. score each algorithm with :math:`\\Delta\\psi / p_{tot}` at ``t_end = D``.

This module is steps 1-4 as plain functions of their parameters; the
``synthetic`` and ``churn`` scenario families
(:mod:`repro.experiments.registry`) derive the RNG and call them, and
steps 5-6, repeats, fan-out, caching and aggregation are
:func:`repro.experiments.pipeline.run_pipeline`.

**Scaling** -- the paper's full-size configuration (e.g. RICC: 8192
processors, horizon 5*10^5, 100 repetitions) needs hours of CPU.  The
``scale`` knob shrinks machines/users/job-lengths proportionally (see
:meth:`repro.workloads.traces.TraceProfile.spec`) while preserving load
factors and therefore the paper's qualitative comparisons; EXPERIMENTS.md
records both the paper's numbers and ours.
"""

from __future__ import annotations

import numpy as np

from ..core.workload import Workload
from ..workloads.traces import make_trace
from ..workloads.transforms import (
    assign_users_to_orgs,
    build_workload,
    machine_split,
)

__all__ = [
    "DEFAULT_SCALES",
    "assign_instance",
    "sample_instance",
    "sample_window",
]

#: Default per-trace shrink factors chosen so a scaled instance keeps
#: 14-35 machines and a realistic queueing regime (see DESIGN.md §3).
DEFAULT_SCALES: dict[str, float] = {
    "LPC-EGEE": 0.2,
    "PIK-IPLEX": 0.012,
    "SHARCNET-Whale": 0.008,
    "RICC": 0.004,
}


def sample_window(
    trace: str,
    duration: int,
    rng: np.random.Generator,
    *,
    scale: "float | None" = None,
    pool_factor: int = 4,
):
    """Steps 1-2 of the protocol: generate the long trace (``pool_factor *
    duration`` long, shrunk by ``scale`` -- ``None``: the trace's
    :data:`DEFAULT_SCALES` entry) and pick the sub-trace window.  Split out
    so sweeps (e.g. Figure 10's organization-count sweep) can hold the
    window fixed while varying the assignment -- common-random-numbers
    variance reduction."""
    if scale is None:
        scale = DEFAULT_SCALES.get(trace, 0.05)
    long_horizon = duration * pool_factor
    records, spec = make_trace(trace, long_horizon, seed=rng, scale=scale)
    t_start = int(rng.integers(0, max(1, long_horizon - duration)))
    return records, spec, t_start


def assign_instance(
    records,
    spec,
    t_start: int,
    duration: int,
    n_orgs: int,
    rng: np.random.Generator,
    *,
    machine_dist: str = "zipf",
    zipf_exponent: float = 1.0,
) -> Workload:
    """Steps 3-4 of the protocol: user->org and machine->org assignment."""
    users = [r.user for r in records]
    user_map = assign_users_to_orgs(users, n_orgs, rng)
    machines = machine_split(
        spec.n_machines, n_orgs, machine_dist, zipf_exponent
    )
    full = build_workload(records, machines, user_map)
    return full.window(t_start, t_start + duration)


def sample_instance(
    trace: str,
    duration: int,
    n_orgs: int,
    rng: np.random.Generator,
    *,
    scale: "float | None" = None,
    machine_dist: str = "zipf",
    pool_factor: int = 4,
) -> Workload:
    """Steps 1-4 of the protocol: one concrete fair-scheduling instance."""
    records, spec, t_start = sample_window(
        trace, duration, rng, scale=scale, pool_factor=pool_factor
    )
    return assign_instance(
        records, spec, t_start, duration, n_orgs, rng, machine_dist=machine_dist
    )
