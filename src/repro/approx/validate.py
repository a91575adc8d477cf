"""Exact-oracle comparator for the certified approximation ladder.

The adaptive certifier estimates, per decision time ``t``, the Shapley
value of the *FIFO-driven* scheduling game: each sampled prefix coalition
is tracked by its own greedy FIFO schedule (exactly RAND's oracle, exact
for unit jobs by Prop. 5.4).  The estimand is therefore reproducible
without sampling at ``k <= 10``: build the full ``2^k - 1`` coalition
lattice, FIFO-drive it to ``t``, and take the exact subset-formula Shapley
value (Eq. 1).  A *certified* adaptive decision claims its winner equals
the argmax of ``phi - psi`` under that exact value -- this module checks
the claim, decision by decision, from the frozen state each
:class:`~repro.approx.adaptive.DecisionCertificate` carries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..algorithms.base import fair_select, members_mask
from ..algorithms.greedy import fifo_select
from ..core.coalition import iter_subsets
from ..core.fleet import CoalitionFleet
from ..core.workload import Workload
from ..shapley.exact import shapley_exact_scaled

__all__ = ["ExactDecisionOracle", "agreement_report"]

#: Largest member count the full-lattice oracle will build (2^k engines).
ORACLE_MAX_ORGS = 12


class ExactDecisionOracle:
    """Full-lattice FIFO-driven exact Shapley keys, advanced incrementally.

    One fleet serves a whole transcript of decisions as long as the query
    times are non-decreasing (certificates from one run always are).
    """

    def __init__(
        self,
        workload: Workload,
        members: "Iterable[int] | None" = None,
        horizon: "int | None" = None,
    ) -> None:
        self.members_t, self.grand_mask = members_mask(workload, members)
        if len(self.members_t) > ORACLE_MAX_ORGS:
            raise ValueError(
                f"exact oracle caps at {ORACLE_MAX_ORGS} orgs "
                f"(got {len(self.members_t)}); it builds 2^k engines"
            )
        masks = [sub for sub in iter_subsets(self.grand_mask) if sub]
        self.fleet = CoalitionFleet(workload, masks, horizon=horizon)
        self._n_orgs = workload.n_orgs

    def keys(
        self, t: int, psis: "dict[int, int]"
    ) -> "dict[int, int]":
        """Exact integer keys ``k! * (phi_u - psi_u)`` at decision time
        ``t``; ``psis`` is the carrier's executed-parts vector frozen in
        the certificate."""
        values = self.fleet.values_at(t, select=fifo_select)
        vf = lambda m: 0 if m == 0 else values[m]  # noqa: E731
        phi_scaled, denom = shapley_exact_scaled(
            vf, self._n_orgs, grand=self.grand_mask
        )
        return {
            u: phi_scaled[u] - denom * psis[u] for u in self.members_t
        }

    def winner(
        self, t: int, waiting: Sequence[int], psis: "dict[int, int]"
    ) -> int:
        """The exact fair-select winner among ``waiting`` at ``t``."""
        return fair_select(waiting, self.keys(t, psis))


def agreement_report(
    workload: Workload,
    certificates: Sequence,
    *,
    horizon: "int | None" = None,
) -> dict:
    """Score a run's :class:`DecisionCertificate` transcript against the
    exact oracle.

    Returns ``{"decisions", "certified", "checked", "agreed",
    "mismatches", "agreement"}`` where ``mismatches`` lists
    ``(t, certified_winner, exact_winner, kind)`` for every *certified*
    decision whose winner differs from the exact argmax (the acceptance
    criterion demands this list be empty) and ``agreement`` is the
    certified-agreement flag.  Uncertified decisions are never counted
    against the policy -- they are exactly the ones the certifier
    declined to vouch for.
    """
    oracle: "ExactDecisionOracle | None" = None
    members_key: "tuple[int, ...] | None" = None
    checked = agreed = certified = 0
    mismatches: list[tuple[int, int, int, str]] = []
    for cert in certificates:
        if not cert.certified:
            continue
        certified += 1
        if len(cert.waiting) <= 1:
            # singleton decisions are trivially exact; skip the lattice
            checked += 1
            agreed += 1
            continue
        if oracle is None or members_key != cert.members:
            oracle = ExactDecisionOracle(workload, cert.members, horizon)
            members_key = cert.members
        psis = dict(zip(cert.members, cert.psis))
        exact_winner = oracle.winner(cert.t, cert.waiting, psis)
        checked += 1
        if exact_winner == cert.winner:
            agreed += 1
        else:
            mismatches.append((cert.t, cert.winner, exact_winner, cert.kind))
    return {
        "decisions": len(certificates),
        "certified": certified,
        "checked": checked,
        "agreed": agreed,
        "mismatches": mismatches,
        "agreement": not mismatches,
    }
