"""Executable forms of Propositions 4.2, 5.4 and 5.5.

* **Prop. 4.2** -- for a fixed set of equal-size jobs all completed by
  ``t``, maximizing psi_sp is equivalent to minimizing flow time; the exact
  affine identity is
  ``psi_sp = |J| (p t + (p^2+p)/2) - p * sum(r) - p * flowtime``.
  (The paper's derivation prints the release-time term as ``sum(r)``; the
  factor ``p`` is required -- expand ``p(t - (2s+p-1)/2)`` against
  ``p((s+p) - r)`` -- and our property-based tests verify the corrected
  identity.  The proposition's conclusion is unaffected: ``p`` and
  ``sum(r)`` are constants either way.)
* **Prop. 5.4** -- with unit-size jobs, every greedy algorithm completes
  the same number of jobs by every time moment, so coalition values are
  policy-independent (the fact that makes RAND an FPRAS).
* **Prop. 5.5** -- the scheduling game is *not* supermodular; the paper's
  3-organization witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.engine import ClusterEngine
from ..core.fleet import CoalitionFleet
from ..core.job import Job
from ..core.organization import Organization
from ..core.workload import Workload
from ..shapley.games import unit_coalition_value
from ..utility.strategyproof import psi_sp

__all__ = [
    "psi_flowtime_identity",
    "greedy_value_invariance",
    "SupermodularityWitness",
    "non_supermodular_witness",
]


def psi_flowtime_identity(
    pairs: Sequence[tuple[int, int]],
    releases: Sequence[int],
    t: int,
) -> tuple[int, int, bool]:
    """Check Prop. 4.2's identity on equal-size, all-completed jobs.

    Returns ``(psi, flow, holds)`` where ``holds`` verifies
    ``psi == n*(p*t + (p^2+p)/2) - p*sum(r) - p*flow``
    (the corrected form -- see the module docstring).
    """
    if not pairs:
        return 0, 0, True
    sizes = {p for _, p in pairs}
    if len(sizes) != 1:
        raise ValueError("Prop. 4.2 requires equal-size jobs")
    p = sizes.pop()
    if any(s + p > t for s, _ in pairs):
        raise ValueError("Prop. 4.2 requires every job completed by t")
    if len(releases) != len(pairs):
        raise ValueError("releases must align with pairs")
    psi = psi_sp(pairs, t)
    flow = sum((s + p) - r for (s, _), r in zip(pairs, releases))
    n = len(pairs)
    expected = n * (p * t + (p * p + p) // 2) - p * sum(releases) - p * flow
    # exact integer arithmetic: p^2 + p is always even
    return psi, flow, psi == expected


def greedy_value_invariance(
    workload: Workload,
    policies: Sequence[Callable[[ClusterEngine], int]],
    times: Sequence[int],
) -> bool:
    """Prop. 5.4 checker: for a **unit-size** workload, every greedy policy
    yields identical coalition values at every time in ``times`` (also
    cross-checked against the Lindley closed form)."""
    if any(j.size != 1 for j in workload.jobs):
        raise ValueError("Prop. 5.4 is about unit-size jobs")
    members = list(range(workload.n_orgs))
    grand_mask = (1 << workload.n_orgs) - 1
    horizon = max(times) if times else 0
    values: list[list[int]] = []
    for policy in policies:
        fleet = CoalitionFleet(workload, (grand_mask,), horizon=horizon + 1)
        row = []
        for t in sorted(times):
            row.append(fleet.values_at(t, select=policy)[grand_mask])
        values.append(row)
    reference = [
        unit_coalition_value(workload, members, t) for t in sorted(times)
    ]
    return all(row == reference for row in values)


@dataclass(frozen=True)
class SupermodularityWitness:
    """The four coalition values of Prop. 5.5's counterexample."""

    v_ac: int
    v_bc: int
    v_abc: int
    v_c: int

    @property
    def is_supermodular_here(self) -> bool:
        """Supermodularity would require
        ``v(A ∪ B) + v(A ∩ B) >= v(A) + v(B)`` for A={a,c}, B={b,c}."""
        return self.v_abc + self.v_c >= self.v_ac + self.v_bc


def non_supermodular_witness() -> SupermodularityWitness:
    """Prop. 5.5's instance: orgs a, b, c with one machine each; a and b
    release two unit jobs at t=0; c has none.  At t=2:
    v({a,c}) = v({b,c}) = 4, v({a,b,c}) = 7, v({c}) = 0, and
    7 + 0 < 4 + 4 refutes supermodularity."""
    orgs = [Organization(0, 1), Organization(1, 1), Organization(2, 1)]
    jobs = [
        Job(0, 0, 0, 1),
        Job(0, 0, 1, 1),
        Job(0, 1, 0, 1),
        Job(0, 1, 1, 1),
    ]
    wl = Workload(orgs, jobs)
    t = 2
    return SupermodularityWitness(
        v_ac=unit_coalition_value(wl, [0, 2], t),
        v_bc=unit_coalition_value(wl, [1, 2], t),
        v_abc=unit_coalition_value(wl, [0, 1, 2], t),
        v_c=unit_coalition_value(wl, [2], t),
    )
