"""The paper's workload preprocessing (Section 7.2).

Three steps turn an archive-style trace into a fair-scheduling instance:

1. **parallel to sequential** -- "We replaced parallel jobs that required
   q > 1 processors with q copies of a sequential job having the same
   duration";
2. **users to organizations** -- "we uniformly distributed the user
   identifiers between the organizations; the job sent by the given user
   was assigned to the corresponding organization";
3. **machines to organizations** -- "the processors were assigned to
   organizations so that the counts follow Zipf and (in different runs)
   uniform distributions".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.job import Job
from ..core.organization import Organization
from ..core.workload import Workload
from .swf import SwfJob, SwfTrace

__all__ = [
    "parallel_to_sequential",
    "assign_users_to_orgs",
    "zipf_machine_split",
    "uniform_machine_split",
    "build_workload",
    "build_window",
    "machine_split",
    "build_swf_instance",
]


def parallel_to_sequential(jobs: Sequence[SwfJob]) -> list[SwfJob]:
    """Replace each q-processor job with q sequential copies (same runtime)."""
    out: list[SwfJob] = []
    next_id = 1
    for j in jobs:
        q = max(1, j.cpus)
        for _ in range(q):
            out.append(
                SwfJob(
                    job_id=next_id,
                    submit=j.submit,
                    run=j.run,
                    cpus=1,
                    req_cpus=1,
                    user=j.user,
                )
            )
            next_id += 1
    return out


def assign_users_to_orgs(
    users: Sequence[int], n_orgs: int, rng: np.random.Generator
) -> dict[int, int]:
    """Uniformly distribute user identifiers among organizations.

    Users are shuffled and dealt round-robin so organization job counts are
    balanced in expectation while whole users (and hence their submission
    bursts) stay together -- the paper's assignment.
    """
    if n_orgs < 1:
        raise ValueError("n_orgs must be >= 1")
    distinct = sorted(set(users))
    perm = rng.permutation(len(distinct))
    return {distinct[int(p)]: i % n_orgs for i, p in enumerate(perm)}


def zipf_machine_split(
    n_machines: int, n_orgs: int, exponent: float = 1.0
) -> list[int]:
    """Split machines so per-organization counts follow a Zipf law.

    Weights ``1/r^exponent`` for rank r = 1..n_orgs; every organization gets
    at least one machine when capacity allows (an organization with zero
    machines would trivialize its contribution).  Remainders go to the
    largest fractional parts (deterministic).
    """
    if n_orgs < 1 or n_machines < 0:
        raise ValueError("need n_orgs >= 1 and n_machines >= 0")
    weights = np.array([1.0 / (r**exponent) for r in range(1, n_orgs + 1)])
    weights /= weights.sum()
    raw = weights * n_machines
    counts = np.floor(raw).astype(int)
    if n_machines >= n_orgs:
        counts = np.maximum(counts, 1)
    # distribute the remaining machines by largest fractional part
    while counts.sum() > n_machines:
        counts[int(np.argmax(counts))] -= 1
    frac = raw - np.floor(raw)
    order = np.argsort(-frac)
    i = 0
    while counts.sum() < n_machines:
        counts[int(order[i % n_orgs])] += 1
        i += 1
    # remainder distribution can locally break monotonicity; a Zipf
    # endowment is by definition rank-ordered, so sort descending
    return sorted((int(c) for c in counts), reverse=True)


def uniform_machine_split(n_machines: int, n_orgs: int) -> list[int]:
    """Split machines as evenly as possible (the paper's uniform variant)."""
    if n_orgs < 1 or n_machines < 0:
        raise ValueError("need n_orgs >= 1 and n_machines >= 0")
    base, extra = divmod(n_machines, n_orgs)
    return [base + (1 if i < extra else 0) for i in range(n_orgs)]


def machine_split(
    n_machines: int,
    n_orgs: int,
    machine_dist: str = "zipf",
    zipf_exponent: float = 1.0,
) -> list[int]:
    """Dispatch on the paper's two machine-assignment variants."""
    if machine_dist == "zipf":
        return zipf_machine_split(n_machines, n_orgs, zipf_exponent)
    if machine_dist == "uniform":
        return uniform_machine_split(n_machines, n_orgs)
    raise ValueError("machine_dist must be 'zipf' or 'uniform'")


def build_swf_instance(
    trace: SwfTrace,
    duration: int,
    n_orgs: int,
    rng: np.random.Generator,
    *,
    machine_dist: str = "zipf",
    zipf_exponent: float = 1.0,
    scale: "float | None" = None,
) -> Workload:
    """The full Section 7.2 protocol over a *real* parsed SWF trace.

    This closes the DESIGN.md §1.5 gap: drop an archive file in, and it
    flows end-to-end into :class:`~repro.core.workload.Workload`
    construction.  Steps:

    1. keep completed records with known users and positive run times
       (mirrors the paper's use of *cleaned* traces);
    2. pick a random window ``[t_start, t_start + duration)`` inside the
       trace's submit span;
    3. deal user identifiers uniformly among ``n_orgs`` organizations;
    4. split ``MaxProcs`` (optionally shrunk by ``scale``) machines among
       organizations by Zipf or uniform counts;
    5. assemble (parallel jobs become q sequential copies) and re-base the
       window so time 0 = ``t_start``.

    RNG consumption order (window position, then user assignment) is part
    of the reproducibility contract — see DESIGN.md §3.
    """
    jobs = [j for j in trace.jobs if j.run > 0 and j.user >= 0 and j.status != 0]
    if not jobs:
        raise ValueError("SWF trace has no usable records")
    n_machines = trace.max_procs
    if scale is not None:
        n_machines = int(round(n_machines * scale))
    n_machines = max(n_orgs, n_machines)
    lo = min(j.submit for j in jobs)
    hi = max(j.submit for j in jobs)
    t_start = lo + int(rng.integers(0, max(1, hi - lo - duration + 1)))
    user_map = assign_users_to_orgs([j.user for j in jobs], n_orgs, rng)
    machines = machine_split(n_machines, n_orgs, machine_dist, zipf_exponent)
    return build_window(jobs, machines, user_map, t_start, t_start + duration)


def build_workload(
    jobs: Sequence[SwfJob],
    machine_counts: Sequence[int],
    user_to_org: dict[int, int],
    *,
    sequentialize: bool = True,
) -> Workload:
    """Assemble a :class:`~repro.core.workload.Workload` from trace records.

    Parameters
    ----------
    jobs:
        SWF records (submit, run, cpus, user).
    machine_counts:
        Per-organization machine endowments (index = organization id).
    user_to_org:
        The user-identifier assignment; records with users missing from the
        map are dropped (mirrors trace cleaning).
    sequentialize:
        Apply :func:`parallel_to_sequential` first (the paper's step 1).
    """
    return _assemble(jobs, machine_counts, user_to_org, 0, sequentialize)


def build_window(
    jobs: Sequence[SwfJob],
    machine_counts: Sequence[int],
    user_to_org: dict[int, int],
    start: int,
    end: int,
    *,
    sequentialize: bool = True,
) -> Workload:
    """``build_workload(jobs, ...).window(start, end)``, building only the
    jobs released in ``[start, end)``: the records are cut to the window
    first, then assembled and re-based so time 0 = ``start``."""
    if end < start:
        raise ValueError("end must be >= start")
    kept = [j for j in jobs if start <= max(0, j.submit) < end]
    return _assemble(kept, machine_counts, user_to_org, start, sequentialize)


def _assemble(
    jobs: Sequence[SwfJob],
    machine_counts: Sequence[int],
    user_to_org: dict[int, int],
    origin: int,
    sequentialize: bool,
) -> Workload:
    """The jobs of ``jobs`` whose users are mapped, released at
    ``max(0, submit) - origin`` and FIFO-indexed per organization in
    ``(submit, job_id)`` order."""
    records = parallel_to_sequential(jobs) if sequentialize else list(jobs)
    n_orgs = len(machine_counts)
    orgs = [Organization(i, int(machine_counts[i])) for i in range(n_orgs)]
    counters = [0] * n_orgs
    out: list[Job] = []
    for rec in sorted(records, key=lambda r: (r.submit, r.job_id)):
        if rec.user not in user_to_org:
            continue
        org = user_to_org[rec.user]
        out.append(
            Job(
                release=max(0, rec.submit) - origin,
                org=org,
                index=counters[org],
                size=max(1, rec.run),
                id=-1,
            )
        )
        counters[org] += 1
    return Workload(orgs, out)
