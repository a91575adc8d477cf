"""Seeded synthetic supercomputer-trace generation.

The paper's evaluation uses four Parallel Workloads Archive traces; this
module generates statistically similar stand-ins (DESIGN.md §1.5 documents
the substitution).  The generator reproduces the trace features that drive
the paper's fairness results:

* **per-user sessions** -- "users usually send their jobs in consecutive
  blocks" (Section 7.2): each user submits bursts of jobs close together,
  so assigning users to organizations produces *clumped* per-organization
  demand -- exactly the dynamic-arrival pattern under which static fair
  share shares mis-measure contributions;
* **heavy-tailed job sizes** -- bounded lognormal run times;
* **diurnal arrival modulation** -- day/night intensity cycle;
* **load factor** -- total work relative to capacity over the horizon,
  the main lever separating the four traces' unfairness magnitudes;
* **occasional parallel jobs** -- emitted with small probability so the
  paper's parallel-to-sequential preprocessing path is exercised.

Everything is driven by an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .swf import SwfJob

__all__ = ["SyntheticSpec", "generate_jobs"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic trace.

    Attributes
    ----------
    n_machines:
        Capacity of the simulated system (the SWF MaxProcs).
    n_users:
        Distinct submitting users (the unit later mapped to organizations).
    horizon:
        Length of the generated submission window (time units).
    load:
        Target utilization: total work ~= load * n_machines * horizon.
    size_mu, size_sigma:
        Lognormal run-time parameters (of the underlying normal).
    max_size:
        Run-time clip (archive traces have wall-clock limits).
    session_jobs_mean:
        Mean burst length of one user session (geometric).
    session_gap_mean:
        Mean gap between consecutive submissions inside a session.
    diurnal_amplitude:
        0 = flat arrivals; 1 = full day/night swing.
    day_length:
        Period of the diurnal cycle in time units.
    parallel_prob, parallel_max:
        Probability and width cap for multi-processor jobs.
    """

    n_machines: int
    n_users: int
    horizon: int
    load: float
    size_mu: float = 5.0
    size_sigma: float = 1.5
    max_size: int = 50_000
    session_jobs_mean: float = 4.0
    session_gap_mean: float = 30.0
    diurnal_amplitude: float = 0.5
    day_length: int = 86_400
    parallel_prob: float = 0.0
    parallel_max: int = 4

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise ValueError("n_machines must be >= 1")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < self.load:
            raise ValueError("load must be positive")
        if not 0 <= self.diurnal_amplitude <= 1:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if not 0 <= self.parallel_prob < 1:
            raise ValueError("parallel_prob must be in [0, 1)")


def _sample_sizes(
    spec: SyntheticSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    sizes = rng.lognormal(spec.size_mu, spec.size_sigma, size=n)
    return np.clip(np.rint(sizes), 1, spec.max_size).astype(np.int64)


def _diurnal_times(
    spec: SyntheticSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` session start times with day/night modulation.

    Rejection sampling against the intensity
    ``1 + A * sin(2 pi t / day)`` normalized by its maximum ``1 + A``.
    """
    amp = spec.diurnal_amplitude
    if amp == 0.0:
        return rng.integers(0, spec.horizon, size=n).astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        want = (n - filled) * 2 + 8
        cand = rng.uniform(0, spec.horizon, size=want)
        intensity = 1.0 + amp * np.sin(2.0 * np.pi * cand / spec.day_length)
        keep = cand[rng.uniform(0, 1 + amp, size=want) < intensity]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take].astype(np.int64)
        filled += take
    return out


def generate_jobs(
    spec: SyntheticSpec, rng: np.random.Generator
) -> list[SwfJob]:
    """Generate a submission-ordered SWF job list for ``spec``.

    The number of jobs is calibrated so that expected total work (run time
    times processor width) is ``load * n_machines * horizon``.
    """
    # expected per-job work, accounting for the size clip and width
    probe = _sample_sizes(spec, 4096, rng)
    mean_size = float(probe.mean())
    mean_width = 1.0
    if spec.parallel_prob > 0:
        cap = max(2, min(spec.parallel_max, spec.n_machines))
        # mean of the log-uniform width distribution on [2, cap+1)
        mean_w = (cap + 1.0 - 2.0) / np.log((cap + 1.0) / 2.0)
        mean_width = 1.0 + spec.parallel_prob * (mean_w - 1.0)
    target_work = spec.load * spec.n_machines * spec.horizon
    n_jobs = max(1, int(round(target_work / (mean_size * mean_width))))

    sizes = _sample_sizes(spec, n_jobs, rng)
    widths = np.ones(n_jobs, dtype=np.int64)
    if spec.parallel_prob > 0:
        cap = max(2, min(spec.parallel_max, spec.n_machines))
        parallel = rng.uniform(size=n_jobs) < spec.parallel_prob
        # log-uniform widths: many small, few near the cap (archive-like)
        n_par = int(parallel.sum())
        widths[parallel] = np.exp(
            rng.uniform(np.log(2), np.log(cap + 1), size=n_par)
        ).astype(np.int64)

    # sessions: split jobs into bursts, assign each burst a user and a
    # diurnal start time, space jobs inside the burst by exponential gaps;
    # rows are (submit, generation order, user), the order a unique key
    sizes_l = sizes.tolist()
    widths_l = widths.tolist()
    last = spec.horizon - 1
    rows: list[tuple[int, int, int]] = []
    i = 0
    while i < n_jobs:
        burst = 1 + rng.geometric(1.0 / spec.session_jobs_mean)
        burst = min(burst, n_jobs - i)
        user = int(rng.integers(0, spec.n_users))
        t = int(_diurnal_times(spec, 1, rng)[0])
        for b in range(i, i + burst):
            rows.append((min(t, last), b, user))
            t += 1 + int(rng.exponential(spec.session_gap_mean))
        i += burst

    rows.sort()
    # numbered in submit order (SWF convention)
    return [
        SwfJob(
            job_id=n + 1,
            submit=submit,
            run=sizes_l[b],
            cpus=widths_l[b],
            req_cpus=widths_l[b],
            user=user,
        )
        for n, (submit, b, user) in enumerate(rows)
    ]
