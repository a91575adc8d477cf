"""Adaptive-N sampled Shapley with per-decision certification (DESIGN.md §12.2).

RAND fixes its sample budget up front (N = 15/75, or Theorem 5.6's
worst-case Hoeffding choice, which is quadratic in k).  But the scheduler
does not need tight contribution *values* -- it needs the right *winner*
of ``argmax(phi - psi)``, and most decisions are easy: one org waiting, or
one org far ahead.  :class:`AdaptiveRun` therefore pre-draws its orderings
in geometric **waves** (each wave its own lazily-driven oracle
:class:`~repro.core.fleet.CoalitionFleet`) and, at each decision, activates
waves only until the confidence intervals separate the winner from every
rival -- or the budget runs dry, in which case the decision is taken on
the best estimate and honestly flagged uncertified.

Every job start emits a :class:`DecisionCertificate`.  Three certificate
kinds are sound by construction:

* ``singleton`` -- one org waiting: no sampling can change the winner;
* ``degenerate`` -- no released work could have executed by ``t`` (the
  FIFO-driven full-member coalition, always in the sample, has value 0),
  so every true key is 0 and the tie-break (lowest org id) is exact;
* ``separated`` -- the winner's lower confidence bound strictly clears
  every rival's upper bound, where half-widths are the tighter of
  Hoeffding and empirical-Bernstein at a union-bounded ``delta`` (split
  over members, waves, and the two interval families).  The marginal
  range feeding both bounds is per-member: org ``u``'s marginal
  contribution at time ``t`` is within ``t * (2*W_u(t) + m_u*t)`` of 0,
  where ``W_u(t)`` is ``u``'s released work and ``m_u`` its machines --
  ``u``'s jobs add at most ``W_u(t)`` executed units and its machines at
  most ``m_u*t``, each worth at most ``t`` under psi_sp, and ``u``'s jobs
  can displace at most the machine-time they consume (exact for unit
  jobs, where greedy schedules are optimal and the game is monotone; for
  general sizes a greedy-anomaly caveat applies, which the agreement
  suite checks empirically).  This is ~k times tighter than the naive
  ``2 * max |coalition value|`` bound, which is also applied as a
  fallback cap.

A fourth kind, ``exact``, is the ladder's bottom rung: when the sample
budget covers *every* joining order (``k! <= n_max``), Monte-Carlo
estimation is pointless -- the deduplicated sampled prefixes would
approach the full ``2^k - 1`` lattice anyway -- so the run builds the
lattice outright and takes the subset-formula Shapley value
(:func:`~repro.shapley.exact.shapley_keys_scaled`) over the FIFO-driven
coalition values.  Every contested decision is then exact (ties broken
canonically), which also covers the case CI separation structurally
cannot: exact key ties, common whenever the game is locally additive.
At larger ``k`` a persistent tie among rivals keeps the decision
*uncertified* -- a tie observed in the sample is not a proof of a tie.

Exact integer key comparisons are preserved: the decision itself uses
``sum-of-sampled-marginals - n*psi`` exactly like RAND; floats only decide
*when to stop sampling* and whether to stamp the certificate.  Runs are
deterministic given a seed, so the online service replays them
bit-identically through snapshot/restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..algorithms.base import (
    Scheduler,
    SchedulerResult,
    drive_fleet,
    fair_select,
    members_mask,
)
from bisect import bisect_left, bisect_right
from math import factorial

from ..algorithms.greedy import fifo_select
from ..core.coalition import iter_subsets
from ..core.fleet import CoalitionFleet
from ..core.workload import Workload
from ..shapley.confidence import interval_halfwidth, separates_argmax
from ..shapley.exact import shapley_keys_scaled
from ..shapley.sampling import ORDERING_SAMPLERS, SampledPrefixes, hoeffding_samples

__all__ = [
    "AdaptiveRun",
    "AdaptiveScheduler",
    "CertificateSummary",
    "DecisionCertificate",
    "summarize_certificates",
]


#: Every :attr:`DecisionCertificate.kind`, the certified ones first.
CERTIFICATE_KINDS = (
    "singleton", "degenerate", "separated", "exact", "budget_exhausted"
)


@dataclass(frozen=True)
class DecisionCertificate:
    """One job-start decision's audit record.

    ``kind`` is ``"singleton"`` / ``"degenerate"`` / ``"separated"`` /
    ``"exact"`` (certified) or ``"budget_exhausted"`` (uncertified).  ``n_used`` is
    the orderings consumed for this decision's estimate (0 when no
    sampling was needed), ``budget`` the total available.  ``halfwidth``
    is the winner's confidence half-width on the mean-key scale and
    ``margin`` the worst-case separation  ``min_rivals(lo_winner -
    hi_rival)`` (``inf`` for structural certificates).  ``waiting`` and
    ``psis`` (aligned with ``members``) freeze the decision state so the
    exact-oracle comparator can re-score it independently.
    """

    t: int
    winner: int
    certified: bool
    kind: str
    n_used: int
    budget: int
    halfwidth: float
    margin: float
    waiting: tuple[int, ...]
    members: tuple[int, ...]
    psis: tuple[int, ...]


@dataclass(frozen=True)
class CertificateSummary:
    """Aggregate view of a run's certificates."""

    decisions: int
    certified: int
    uncertified: int
    samples_mean: float
    samples_max: int

    @property
    def certified_rate(self) -> float:
        return self.certified / self.decisions if self.decisions else 1.0


def summarize_certificates(
    certificates: "Iterable[DecisionCertificate]",
) -> CertificateSummary:
    certs = list(certificates)
    n = len(certs)
    good = sum(1 for c in certs if c.certified)
    used = [c.n_used for c in certs]
    return CertificateSummary(
        decisions=n,
        certified=good,
        uncertified=n - good,
        samples_mean=(sum(used) / n) if n else 0.0,
        samples_max=max(used, default=0),
    )


def wave_sizes(n_min: int, n_max: int) -> list[int]:
    """Geometric wave plan: cumulative budgets n_min, 2*n_min, 4*n_min,
    ... capped at n_max (the final wave is truncated to land exactly on
    the budget)."""
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    sizes = [n_min]
    total = n_min
    while total < n_max:
        step = min(total, n_max - total)
        sizes.append(step)
        total += step
    return sizes


class _Wave:
    """One wave's orderings, sampled-prefix structure, and oracle fleet.

    The prefix walk and the oracle fleet are built on first use: a wave
    that no decision ever escalates to costs only its (pre-drawn)
    ordering array.  Accessing :attr:`oracle` (as the online adapter
    does, to mirror submissions) forces construction.
    """

    def __init__(
        self,
        k: int,
        orderings: np.ndarray,
        oracle_factory: "Callable[[list[int]], CoalitionFleet]",
    ):
        self._k = k
        self._orderings = orderings
        self._factory = oracle_factory
        self.n = int(orderings.shape[0])
        self._built = False

    def _ensure(self) -> None:
        if self._built:
            return
        self.prefixes = SampledPrefixes(self._k, self._orderings)
        self._oracle = self._factory(list(self.prefixes.order))
        self._built = True

    @property
    def oracle(self) -> CoalitionFleet:
        self._ensure()
        return self._oracle

    def stats(
        self, t: int
    ) -> "tuple[list[int], dict[int, np.ndarray], int]":
        """``(exact scaled sums, per-member float marginal samples, max
        absolute sampled value)`` at time ``t``.  Sums are RAND's guarded
        estimate (:meth:`~repro.shapley.sampling.SampledPrefixes.
        estimate_scaled_at`); the per-sample view (variance only) is
        float."""
        self._ensure()
        sums, values, max_abs = self.prefixes.estimate_scaled_at(
            self.oracle, t, fifo_select
        )
        marginals = self.prefixes.marginal_samples(values.astype(np.float64))
        return sums, marginals, max_abs


class AdaptiveRun:
    """One adaptive run's state plus its per-event body.

    Mirrors :class:`~repro.algorithms.rand.RandRun`'s interface (``drive``
    for batch, ``step`` for the online service, ``oracle_factory`` /
    ``fleet`` injection for dynamic cluster state) so the same adapters
    carry it.  All waves are drawn at construction from the seeded RNG --
    adaptivity controls which waves are *valued*, never which exist, which
    is what keeps replays and snapshot/restore bit-identical.
    """

    def __init__(
        self,
        workload: Workload,
        members_t: tuple[int, ...],
        grand_mask: int,
        rng: np.random.Generator,
        horizon: "int | None",
        *,
        epsilon: float = 0.1,
        delta: float = 0.05,
        n_min: int = 8,
        n_max: int = 1024,
        sampler: "str | Callable" = "antithetic",
        oracle_factory: "Callable[[list[int]], CoalitionFleet] | None" = None,
        fleet: "CoalitionFleet | None" = None,
    ) -> None:
        self.members_t = members_t
        self.grand_mask = grand_mask
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        k_members = len(members_t)
        if n_max <= 0:
            # auto budget: the Theorem 5.6 worst-case choice
            n_max = hoeffding_samples(k_members, epsilon, 1.0 - delta)
        self.n_min = int(min(n_min, n_max))
        self.n_max = int(n_max)
        member_arr = np.array(members_t, dtype=np.int64)
        draw = (
            ORDERING_SAMPLERS[sampler] if isinstance(sampler, str) else sampler
        )
        factory = oracle_factory or (
            lambda sampled: CoalitionFleet(workload, sampled, horizon=horizon)
        )
        k = workload.n_orgs
        self._n_orgs = k
        # bottom rung: when the budget covers every joining order, the
        # deduplicated sampled prefixes would approach the full lattice
        # anyway -- build it outright and be exact (every contested
        # decision certified, kind="exact").  The mode depends only on
        # (k_members, n_max), so replays pick the same rung every time.
        self.exact_mode = (
            k_members > 0 and factorial(k_members) <= self.n_max
        )
        if self.exact_mode:
            self.waves: list[_Wave] = []
            self._exact_oracle = factory(
                [sub for sub in iter_subsets(grand_mask) if sub]
            )
        else:
            self._exact_oracle = None
            self.waves = [
                _Wave(k, draw(member_arr, size, rng), factory)
                for size in wave_sizes(self.n_min, self.n_max)
            ]
        # delta budget: union bound over members, waves, and the two
        # interval families raced inside interval_halfwidth
        self._delta_each = self.delta / (
            2.0 * max(1, k_members) * max(1, len(self.waves))
        )
        self.fleet = (
            fleet
            if fleet is not None
            else CoalitionFleet(workload, (grand_mask,), horizon=horizon)
        )
        self.certificates: list[DecisionCertificate] = []
        #: earlier membership epochs' certificates (online; see carry)
        self.earlier: list[DecisionCertificate] = []
        #: certificates by kind, every epoch's (online status counters)
        self.kinds = dict.fromkeys(CERTIFICATE_KINDS, 0)
        # per-member marginal-range ingredients: sorted release times with
        # work prefix sums, and machine counts
        self._releases: dict[int, list[int]] = {}
        self._work_cum: dict[int, list[int]] = {}
        for u in members_t:
            jobs = sorted(
                (j.release, j.size) for j in workload.jobs if j.org == u
            )
            rel, cum = [], [0]
            for r, p in jobs:
                rel.append(r)
                cum.append(cum[-1] + p)
            self._releases[u] = rel
            self._work_cum[u] = cum
        self._machines = {
            u: workload.organizations[u].machines for u in members_t
        }

    # ------------------------------------------------------------------
    @property
    def grand(self):
        """The carrier's grand engine, asked for afresh: a held kernel
        view goes stale when a pool change materializes the carrier."""
        return self.fleet.engine(self.grand_mask)

    @property
    def oracles(self) -> "tuple[CoalitionFleet, ...]":
        """Every oracle fleet, every wave's built (the online adapter
        feeds and drives them all)."""
        if self.exact_mode:
            return (self._exact_oracle,)
        return tuple(w.oracle for w in self.waves)

    def drive(self) -> int:
        return drive_fleet(self.fleet, self._on_event)

    def step(self, t: int) -> None:
        self._on_event(self.fleet, t)

    def all_certificates(self) -> "list[DecisionCertificate]":
        """Every decision certificate, earlier membership epochs' first."""
        return [*self.earlier, *self.certificates]

    def summary(self) -> CertificateSummary:
        return summarize_certificates(self.all_certificates())

    def carry(self, prev: "AdaptiveRun") -> None:
        """Continue ``prev``'s service-long state in this membership
        epoch: its certificates and their counts, and each surviving
        member's released-work ledger (a joiner's starts empty)."""
        self.earlier = prev.all_certificates()
        self.kinds = prev.kinds
        for u in self.members_t:
            if u in prev._releases:
                self._releases[u] = prev._releases[u]
                self._work_cum[u] = prev._work_cum[u]

    def counters(self) -> dict:
        """What an online service reports in ``policy_backend``."""
        return {"certificates": dict(self.kinds)}

    # ------------------------------------------------------------------
    def _on_event(self, fleet: CoalitionFleet, t: int) -> None:
        fleet.advance_all(t)
        grand = self.grand
        if grand.free_count == 0 or not grand.has_waiting():
            return
        psis = grand.psis(t)
        psis_t = tuple(psis[u] for u in self.members_t)
        # per-event estimate state, escalated lazily at the first
        # contested pick and frozen for the rest of the event (keys are
        # fixed within an event, exactly like REF/RAND)
        est: "dict | None" = None
        while grand.free_count > 0 and grand.has_waiting():
            waiting = tuple(grand.waiting_orgs())
            if len(waiting) == 1:
                winner = waiting[0]
                cert = DecisionCertificate(
                    t=t, winner=winner, certified=True,
                    kind="singleton",
                    n_used=0 if est is None else est["n"],
                    budget=self.n_max, halfwidth=0.0,
                    margin=float("inf"), waiting=waiting,
                    members=self.members_t, psis=psis_t,
                )
            else:
                if est is None:
                    est = self._estimate(t, waiting, psis)
                winner = fair_select(waiting, est["keys"])
                cert = self._certify(t, waiting, winner, psis, est)
            self.certificates.append(cert)
            self.kinds[cert.kind] += 1
            fleet.start_next(self.grand_mask, winner)

    def _estimate(self, t: int, waiting, psis) -> dict:
        """Activate waves until the argmax separates (or budget is dry);
        return the frozen per-event estimate state."""
        if self.exact_mode:
            return self._estimate_exact(t, psis)
        sums = {u: 0 for u in self.members_t}
        samples = {u: [] for u in self.members_t}
        n = 0
        max_abs = 0
        done = 0
        separated = False
        for wave in self.waves:
            wave_sums, wave_marg, wave_max = wave.stats(t)
            n += wave.n
            done += 1
            max_abs = max(max_abs, wave_max)
            for u in self.members_t:
                sums[u] += wave_sums[u]
                if u in wave_marg:
                    samples[u].append(wave_marg[u])
            state = self._interval_state(t, sums, samples, psis, n, max_abs)
            keys = state["keys"]
            winner = fair_select(waiting, keys)
            if max_abs == 0 and all(psis[u] == 0 for u in waiting):
                # degenerate: the FIFO-driven full-member coalition (always
                # sampled) did zero work, so no coalition could have -- all
                # true keys are exactly 0 and the tie-break is exact
                separated = True
                state["degenerate"] = True
                break
            if separates_argmax(
                winner, waiting, state["means"], state["halfwidths"]
            ):
                separated = True
                break
        state["n"] = n
        state["waves_used"] = done
        state["separated"] = separated
        state.setdefault("degenerate", False)
        return state

    def _estimate_exact(self, t: int, psis) -> dict:
        """Bottom-rung state: exact subset-formula keys from the full
        FIFO-driven lattice (no sampling, nothing to separate)."""
        keys = shapley_keys_scaled(
            self._exact_oracle.values_at(t, select=fifo_select),
            self._n_orgs,
            self.grand_mask,
            psis,
        )
        return {
            "keys": keys,
            "n": 0,
            "waves_used": 0,
            "separated": True,
            "degenerate": False,
            "exact": True,
        }

    def note_job(self, job) -> None:
        """Online ingest: fold one submitted job into the per-member
        marginal-range ledger.  Construction only sees ``workload.jobs``,
        and the service builds runs over jobless workloads -- without
        this hook (and :meth:`carry` at a membership change) the range
        bound would undercount released work and the certificates would
        be unsound."""
        rel = self._releases.get(job.org)
        if rel is None:
            return
        cum = self._work_cum[job.org]
        i = bisect_right(rel, job.release)
        rel.insert(i, job.release)
        cum.insert(i + 1, cum[i] + job.size)
        for j in range(i + 2, len(cum)):
            cum[j] += job.size

    def note_machines(self, machines: "dict[int, int]") -> None:
        """Online ingest: refresh members' live machine counts (range
        bound ingredient; ids absent from ``machines`` keep their
        count, non-members are ignored)."""
        for u, m in machines.items():
            if u in self._machines:
                self._machines[u] = int(m)

    def _marginal_range(self, u: int, t: int) -> float:
        """Sound width of org ``u``'s marginal-contribution range at
        ``t``: its jobs add at most ``W_u(t)`` executed units, its
        machines at most ``m_u * t``, each worth at most ``t`` under
        psi_sp, and its jobs displace at most the ``W_u(t)`` machine-time
        they consume."""
        released = self._work_cum[u][bisect_left(self._releases[u], t)]
        return float(t) * (2.0 * released + self._machines[u] * t)

    def _interval_state(self, t, sums, samples, psis, n, max_abs) -> dict:
        """Float means/half-widths on the mean-key scale plus the exact
        integer decision keys."""
        keys = {u: sums[u] - n * psis[u] for u in self.members_t}
        means: dict[int, float] = {}
        halfwidths: dict[int, float] = {}
        # fallback range: sampled values are nonnegative (psi_sp is a sum
        # of nonnegative utilities) and every with-u coalition is itself
        # sampled, so each marginal lies in [-M, M] with M the largest
        # sampled value; the per-member bound is usually ~k times tighter
        global_range = 2.0 * float(max_abs)
        for u in self.members_t:
            parts = samples[u]
            if parts:
                x = np.concatenate(parts)
                mean_phi = float(x.mean())
                var = float(x.var())
                count = len(x)
            else:
                mean_phi, var, count = 0.0, 0.0, max(1, n)
            means[u] = mean_phi - float(psis[u])
            value_range = min(global_range, self._marginal_range(u, t))
            halfwidths[u] = (
                interval_halfwidth(count, var, value_range, self._delta_each)
                if value_range > 0
                else 0.0
            )
        return {
            "keys": keys,
            "means": means,
            "halfwidths": halfwidths,
            "max_abs": max_abs,
        }

    def _certify(
        self, t: int, waiting, winner: int, psis, est: dict
    ) -> DecisionCertificate:
        """Stamp one pick against the frozen per-event estimate (the
        waiting set shrinks as the event's capacity fills; separation is
        re-checked against the current rivals)."""
        if est.get("exact"):
            return DecisionCertificate(
                t=t, winner=winner, certified=True, kind="exact",
                n_used=0, budget=self.n_max, halfwidth=0.0,
                margin=float("inf"), waiting=tuple(waiting),
                members=self.members_t,
                psis=tuple(psis[u] for u in self.members_t),
            )
        if est["degenerate"] and all(psis[u] == 0 for u in waiting):
            return DecisionCertificate(
                t=t, winner=winner, certified=True, kind="degenerate",
                n_used=est["n"], budget=self.n_max, halfwidth=0.0,
                margin=float("inf"), waiting=tuple(waiting),
                members=self.members_t,
                psis=tuple(psis[u] for u in self.members_t),
            )
        means, halfwidths = est["means"], est["halfwidths"]
        lo = means[winner] - halfwidths[winner]
        margin = min(
            (lo - (means[u] + halfwidths[u]) for u in waiting if u != winner),
            default=float("inf"),
        )
        ok = separates_argmax(winner, waiting, means, halfwidths)
        return DecisionCertificate(
            t=t, winner=winner, certified=ok,
            kind="separated" if ok else "budget_exhausted",
            n_used=est["n"], budget=self.n_max,
            halfwidth=halfwidths[winner], margin=margin,
            waiting=tuple(waiting), members=self.members_t,
            psis=tuple(psis[u] for u in self.members_t),
        )


class AdaptiveScheduler(Scheduler):
    """``ref_adaptive``: certified adaptive-N sampled Shapley scheduling.

    Parameters mirror :class:`AdaptiveRun`; ``n_max=0`` selects the
    Theorem 5.6 worst-case budget automatically from ``epsilon`` /
    ``delta`` (honest but quadratic in k -- the explicit default keeps
    the oracle fleet bounded).  Bad knobs are refused here, so a batch
    run and an online service refuse the same spec the same way.
    """

    name = "RefAdaptive"

    def __init__(
        self,
        seed: "int | np.random.Generator | None" = 0,
        horizon: "int | None" = None,
        *,
        epsilon: float = 0.1,
        delta: float = 0.05,
        n_min: int = 8,
        n_max: int = 1024,
        sampler: str = "antithetic",
    ):
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if n_min < 1 or n_max < 0:
            raise ValueError("need n_min >= 1 and n_max >= 0")
        if not n_max and not epsilon > 0:
            raise ValueError("epsilon must be positive for the n_max=0 budget")
        if isinstance(sampler, str) and sampler not in ORDERING_SAMPLERS:
            raise ValueError(
                f"unknown sampler {sampler!r}; "
                f"known: {sorted(ORDERING_SAMPLERS)}"
            )
        self.horizon = horizon
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.sampler = sampler
        self._seed = seed
        self.name = f"RefAdaptive(delta={self.delta:g},n_max={self.n_max})"

    def make_run(
        self,
        workload: Workload,
        members_t: tuple[int, ...],
        grand_mask: int,
        rng: np.random.Generator,
        *,
        oracle_factory: "Callable[[list[int]], CoalitionFleet] | None" = None,
        fleet: "CoalitionFleet | None" = None,
    ) -> AdaptiveRun:
        """One run over ``members_t`` with this scheduler's knobs and
        horizon; the batch path and the online service's adapter both make
        their runs here (``oracle_factory`` / ``fleet`` as in
        :class:`AdaptiveRun`)."""
        return AdaptiveRun(
            workload,
            members_t,
            grand_mask,
            rng,
            self.horizon,
            epsilon=self.epsilon,
            delta=self.delta,
            n_min=self.n_min,
            n_max=self.n_max,
            sampler=self.sampler,
            oracle_factory=oracle_factory,
            fleet=fleet,
        )

    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        members_t, grand_mask = members_mask(workload, members)
        run = self.make_run(
            workload, members_t, grand_mask, np.random.default_rng(self._seed)
        )
        run.drive()
        summary = run.summary()
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=members_t,
            schedule=run.grand.schedule(),
            horizon=self.horizon,
            meta={
                "certificates": tuple(run.certificates),
                "decisions": summary.decisions,
                "certified": summary.certified,
                "certified_rate": summary.certified_rate,
                "samples_mean": summary.samples_mean,
                "samples_max": summary.samples_max,
                "budget": run.n_max,
            },
        )
