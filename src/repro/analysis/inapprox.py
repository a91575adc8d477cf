"""The inapproximability gap construction (paper Theorem 5.3's core).

Theorem 5.3 shows no polynomial (1/2 - eps)-approximate fair scheduler
exists (unless P=NP).  The heart of the argument is a family of instances
where the *relative Manhattan distance* between two feasible schedules --
``sigma_ord`` (organizations served in order 1..m) and ``sigma_rev`` (the
exact reverse) -- tends to 1: m organizations, one machine, one identical
job each.  An approximation better than 1/2 could tell the two apart and
would decode a SUBSETSUM answer.

This module computes the gap exactly so tests and the properties benchmark
can verify ``gap -> 1`` as m grows -- and, since the approximation ladder
(DESIGN.md §12) landed, *runs* registered policies on the very same gadget
(:func:`gap_workload` / :func:`policy_order_gap`): ``repro gap --policy
ref_adaptive`` places a sampled scheduler's realized utility vector between
the two extremes at org counts far past the exact policies' ``max_orgs``
ceiling, while exact entries refuse with a typed capability error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.job import Job
from ..core.organization import Organization
from ..core.workload import Workload
from ..utility.strategyproof import psi_sp

__all__ = [
    "OrderReverseGap",
    "gap_workload",
    "order_reverse_gap",
    "policy_order_gap",
]


@dataclass(frozen=True)
class OrderReverseGap:
    """The exact gap numbers for one (m, p) instance."""

    n_orgs: int
    job_size: int
    delta_psi: int  #: Manhattan distance between the two utility vectors
    total_value: int  #: v = sum of utilities (equal in both schedules)
    ratio: float  #: delta_psi / total_value

    def __str__(self) -> str:
        return (
            f"m={self.n_orgs} p={self.job_size}: "
            f"delta={self.delta_psi} v={self.total_value} "
            f"ratio={self.ratio:.4f}"
        )


def order_reverse_gap(n_orgs: int, job_size: int = 1) -> OrderReverseGap:
    """Exact relative distance between sigma_ord and sigma_rev.

    One machine; organization u's single size-``p`` job starts at ``u*p`` in
    sigma_ord and at ``(m-1-u)*p`` in sigma_rev; utilities evaluated when
    the last job completes (``t = m*p``).
    """
    if n_orgs < 1:
        raise ValueError("need at least one organization")
    if job_size < 1:
        raise ValueError("job size must be >= 1")
    m, p = n_orgs, job_size
    t = m * p
    ord_util = [psi_sp([(u * p, p)], t) for u in range(m)]
    rev_util = [psi_sp([((m - 1 - u) * p, p)], t) for u in range(m)]
    delta = sum(abs(a - b) for a, b in zip(ord_util, rev_util))
    total = sum(ord_util)
    assert total == sum(rev_util)  # same schedule shape, same total value
    return OrderReverseGap(
        n_orgs=m,
        job_size=p,
        delta_psi=delta,
        total_value=total,
        ratio=delta / total if total else 0.0,
    )


def gap_workload(n_orgs: int, job_size: int = 1) -> Workload:
    """The Theorem 5.3 gadget as a runnable workload: ``n_orgs``
    organizations, one identical size-``p`` job each released at 0, and a
    single machine (owned by org 0 -- some org must own it; the schedule
    *shape* is ownership-independent, only the fairness keys see it)."""
    if n_orgs < 1:
        raise ValueError("need at least one organization")
    if job_size < 1:
        raise ValueError("job size must be >= 1")
    orgs = tuple(
        Organization(u, 1 if u == 0 else 0) for u in range(n_orgs)
    )
    jobs = tuple(Job(0, u, 0, job_size) for u in range(n_orgs))
    return Workload(orgs, jobs)


def policy_order_gap(
    policy, n_orgs: int, job_size: int = 1, *, seed: int = 0
) -> dict:
    """Run a registered policy on the gadget and place its realized
    utility vector between the two Theorem 5.3 extremes.

    Returns ``{"n_orgs", "job_size", "gap", "ratio_ord", "ratio_rev"}``:
    ``ratio_ord`` / ``ratio_rev`` are the relative Manhattan distances of
    the policy's realized psi-vector (at ``t = m*p``) from ``sigma_ord``
    and ``sigma_rev``, each normalized by the schedule's total value, and
    ``gap`` is the analytic ord/rev distance the two schedules themselves
    realize.  Exact policies raise their registry
    :class:`~repro.policies.CapabilityError` past ``max_orgs`` -- the
    whole point of running the sampled ladder here instead.
    """
    from ..policies import CapabilityError, build_scheduler, get_policy
    from ..policies import PolicySpec

    m, p = n_orgs, job_size
    t = m * p
    spec = PolicySpec.parse(policy)
    cap = get_policy(spec.name).capabilities.max_orgs
    if cap is not None and m > cap:
        raise CapabilityError(
            f"policy {spec.name!r} caps at max_orgs={cap} (got m={m}); "
            f"use a sampled policy (rand, ref_stratified, ref_adaptive, "
            f"ref_hier) past the ceiling"
        )
    result = build_scheduler(spec, seed=seed, horizon=t).run(
        gap_workload(m, p)
    )
    util = result.utilities(t)
    ord_util = [psi_sp([(u * p, p)], t) for u in range(m)]
    rev_util = [psi_sp([((m - 1 - u) * p, p)], t) for u in range(m)]
    total = sum(ord_util)
    d_ord = sum(abs(a - b) for a, b in zip(util, ord_util))
    d_rev = sum(abs(a - b) for a, b in zip(util, rev_util))
    return {
        "n_orgs": m,
        "job_size": p,
        "gap": order_reverse_gap(m, p).ratio,
        "ratio_ord": d_ord / total if total else 0.0,
        "ratio_rev": d_rev / total if total else 0.0,
    }
