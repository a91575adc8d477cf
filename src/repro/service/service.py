"""ClusterService: the long-lived incremental fair-share scheduler.

Where the batch path (:mod:`repro.sim.runner`) freezes a complete
:class:`~repro.core.workload.Workload` and runs a scheduler to
completion, :class:`ClusterService` is a *daemon*: jobs are submitted as
they appear, organizations join and leave, machines are added and
drained, and the fair-share state of the configured policy -- REF's full
subcoalition recursion, RAND's sampled prefix oracle, DIRECTCONTR's
machine-owner accounting, or any :class:`~repro.algorithms.base.
PolicyScheduler` -- advances one decision event at a time.

Equivalence contract (tested, and asserted by
:class:`~repro.service.replay.ReplayDriver`): feeding a frozen workload
through the service in release order reproduces the batch scheduler's
schedule **bit for bit**, because

* engines receive jobs through :meth:`~repro.core.engine.ClusterEngine.
  submit`, which keeps the stream in the same canonical order the batch
  constructor sorts into;
* decision times flow through the same
  :class:`~repro.core.events.EventQueue` (releases pushed at ingest,
  completions pushed by starts) and are therefore popped in the same
  deduplicated ascending order;
* the per-event bodies are literally the batch ones
  (:meth:`repro.algorithms.ref.RefRun.step`,
  :meth:`repro.algorithms.rand.RandRun.step`,
  :meth:`~repro.algorithms.base.PolicyScheduler.schedule_event`), stepped
  instead of driven.

Dynamic membership semantics (DESIGN.md §6): the *physical* cluster is
always the grand coalition's engine and mutates in place -- a joiner's
machines and jobs extend it, a leaver's unstarted jobs are withdrawn
while its running jobs complete (non-preemption) and its machines drain.
Counterfactual coalition engines (REF subcoalitions, RAND samples) keep
their history when their member set survives the change and start fresh
at the change epoch when it does not.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..algorithms.base import PolicyScheduler
from ..algorithms.rand import RandRun
from ..algorithms.ref import RefRun
from ..core.coalition import iter_members, popcount, subsets_by_size
from ..core.engine import ClusterEngine
from ..core.fleet import CoalitionFleet
from ..core.job import Job
from ..core.organization import Organization
from ..core.schedule import Schedule
from ..core.workload import Workload
from ..policies import (
    REF_MAX_ORGS,
    CapabilityError,
    PolicySpec,
    get_policy,
    policy_names,
)
from .snapshot import (
    build_snapshot,
    check_snapshot,
    schedule_digest,
)
from .state import ClusterCensus

__all__ = [
    "ClusterService",
    "OnlinePolicy",
    "REF_MAX_ORGS",
]


# ----------------------------------------------------------------------
# online policy adapters
# ----------------------------------------------------------------------
class OnlinePolicy(ABC):
    """Event-granular policy driver bound to one :class:`ClusterService`.

    The service owns time: it asks :meth:`pending` for the next decision
    time and calls :meth:`step` exactly once per popped time, in
    ascending order.  Mutation hooks keep the policy's engines aligned
    with the live census.
    """

    #: Batch display name (matches the equivalent batch scheduler's).
    name: str = "policy"

    @abstractmethod
    def pending(self) -> "int | None":
        """Next unprocessed decision time (None: idle / past horizon)."""

    @abstractmethod
    def step(self, t: int) -> None:
        """Process the decision round at time ``t``."""

    @abstractmethod
    def force_round(self, t: int) -> None:
        """Run an out-of-band scheduling round at ``t`` (capacity or work
        appeared *after* the round at ``t`` was already processed)."""

    @abstractmethod
    def submit(self, job: Job) -> None:
        """Feed one job to every engine covering its organization."""

    @abstractmethod
    def grand_engine(self) -> ClusterEngine:
        """The physical cluster: the grand coalition's engine."""

    def backend_status(self) -> "dict | None":
        """What simulates the policy's coalitions (``status()``'s
        ``policy_backend``); ``None`` for single-engine policies."""
        return None

    @abstractmethod
    def join(self, org: int) -> None:
        """An organization was admitted (census already updated)."""

    @abstractmethod
    def leave(self, org: int, machine_ids: "list[int]") -> None:
        """An organization left; retire its machines on the physical
        engine (census already updated)."""

    @abstractmethod
    def machines_added(self, org: int, machine_ids: "list[int]") -> None:
        """Fresh machines joined the pool."""

    @abstractmethod
    def machines_removed(self, org: int, machine_ids: "list[int]") -> None:
        """Machines were removed (busy ones drain)."""


class _SingleEnginePolicy(OnlinePolicy):
    """Adapter for any :class:`PolicyScheduler`: one physical engine,
    stepped through the exact batch event loop (advance, then
    ``schedule_event``)."""

    def __init__(self, service: "ClusterService", scheduler: PolicyScheduler):
        self.service = service
        self.scheduler = scheduler
        self.name = scheduler.name
        self.engine = ClusterEngine(
            service.genesis_workload(), None, horizon=service.horizon
        )
        self._draining = False
        self._pool_target = self.engine.n_machines
        scheduler.on_run_start(self.engine)

    def pending(self) -> "int | None":
        return self.engine.next_event_time()

    def step(self, t: int) -> None:
        self.engine.advance_to(t)
        if self._draining:
            # a machine drain can only complete at an event; re-derive
            # pool-dependent state (e.g. fair-share targets) before
            # scheduling against the shrunken pool
            self._draining = self.engine.n_machines > self._pool_target
            self.scheduler.on_cluster_change(self.engine)
        self.scheduler.schedule_event(self.engine)

    def force_round(self, t: int) -> None:
        self.step(t)

    def _note_drain(self) -> None:
        """A removal may have hit busy machines; until the pool shrinks to
        the census's live count, every step re-derives pool state."""
        self._pool_target = len(self.service.census.live_machines())
        self._draining = self.engine.n_machines > self._pool_target

    def submit(self, job: Job) -> None:
        self.engine.submit(job)

    def grand_engine(self) -> ClusterEngine:
        return self.engine

    def join(self, org: int) -> None:
        self.engine.add_member(org)
        for mid, owner in self.service.census.live_machines((org,)):
            self.engine.add_machine(mid, owner)
        self.scheduler.on_cluster_change(self.engine)

    def leave(self, org: int, machine_ids: "list[int]") -> None:
        self.engine.remove_member(org)
        for mid in machine_ids:
            self.engine.retire_machine(mid)
        self._note_drain()
        self.scheduler.on_cluster_change(self.engine)

    def machines_added(self, org: int, machine_ids: "list[int]") -> None:
        for mid in machine_ids:
            self.engine.add_machine(mid, org)
        self.scheduler.on_cluster_change(self.engine)

    def machines_removed(self, org: int, machine_ids: "list[int]") -> None:
        for mid in machine_ids:
            self.engine.retire_machine(mid)
        self._note_drain()
        self.scheduler.on_cluster_change(self.engine)


class _FleetPolicy(OnlinePolicy):
    """Shared machinery for the fleet-driven policies (REF, RAND): the
    decision queue lives on a :class:`CoalitionFleet` whose grand engine
    is the physical cluster."""

    def __init__(self, service: "ClusterService"):
        self.service = service

    # the fleet carrying the decision queue (set by subclasses)
    fleet: CoalitionFleet
    grand_mask: int

    def pending(self) -> "int | None":
        return self.fleet.peek_decision()

    def step(self, t: int) -> None:
        popped = self.fleet.next_decision()
        if popped != t:
            raise RuntimeError(
                f"decision queue out of sync: popped {popped}, expected {t}"
            )
        self._round(t)

    def force_round(self, t: int) -> None:
        self._round(t)

    def submit(self, job: Job) -> None:
        self.fleet.submit(job)

    def grand_engine(self) -> ClusterEngine:
        return self.fleet.engine(self.grand_mask)

    @abstractmethod
    def _round(self, t: int) -> None:
        """The policy's per-event body."""

    # -- physical-engine mutation (shared by join/leave) ----------------
    def _grow_grand(self, org: int) -> ClusterEngine:
        """Move the physical engine from the old grand mask to the one
        including ``org`` (with its machines); returns it."""
        phys = self.fleet.remove_mask(self.grand_mask)
        phys.add_member(org)
        for mid, owner in self.service.census.live_machines((org,)):
            phys.add_machine(mid, owner)
        self.grand_mask |= 1 << org
        self.fleet.add_mask(self.grand_mask, phys)
        return phys

    def _shrink_grand(
        self, org: int, machine_ids: "list[int]"
    ) -> ClusterEngine:
        """Expel ``org`` from the physical engine: withdraw its unstarted
        jobs, drain its machines, move to the reduced mask."""
        phys = self.fleet.remove_mask(self.grand_mask)
        phys.remove_member(org)
        for mid in machine_ids:
            phys.retire_machine(mid)
        self.grand_mask &= ~(1 << org)
        if self.grand_mask in self.fleet:
            # the physical truth supersedes the counterfactual that
            # simulated this coalition "as if the leaver never joined"
            self.fleet.remove_mask(self.grand_mask)
        self.fleet.add_mask(self.grand_mask, phys)
        return phys

    def _mutate_pool(
        self, org: int, machine_ids: "list[int]", add: bool
    ) -> None:
        bit = 1 << org
        for fl in self._fleets():
            for mask in fl.masks:
                if mask & bit:
                    eng = fl.engine(mask)
                    for mid in machine_ids:
                        if add:
                            eng.add_machine(mid, org)
                        else:
                            eng.retire_machine(mid)

    def _fleets(self) -> "tuple[CoalitionFleet, ...]":
        return (self.fleet,)

    def backend_status(self) -> dict:
        """The policy's fleets as one record: on the kernel while any of
        them is, with their fallbacks and start-log entries summed."""
        parts = [fl.backend_status() for fl in self._fleets()]
        on_kernel = any(p["backend"] == "kernel" for p in parts)
        return {
            "backend": "kernel" if on_kernel else "engines",
            "materializations": sum(p["materializations"] for p in parts),
            "start_log_entries": sum(p["start_log_entries"] for p in parts),
        }

    def machines_added(self, org: int, machine_ids: "list[int]") -> None:
        self._mutate_pool(org, machine_ids, add=True)

    def machines_removed(self, org: int, machine_ids: "list[int]") -> None:
        self._mutate_pool(org, machine_ids, add=False)


class _RefPolicy(_FleetPolicy):
    """Online REF: the full subcoalition recursion, stepped per event.

    Coalition engines whose member set survives a membership change keep
    their simulated history; coalitions that only become feasible at the
    change (they contain the joiner) start fresh at the change epoch.
    The old grand coalition forks at a join: the physical engine grows
    into the new grand mask while a deep copy continues the old mask's
    counterfactual ("as if the joiner never arrived").
    """

    name = "REF"

    def __init__(self, service: "ClusterService"):
        super().__init__(service)
        self._check_size(len(service.census.members))
        members = service.census.members
        self.grand_mask = service.census.members_mask
        self.run = RefRun(
            service.genesis_workload(),
            members,
            self.grand_mask,
            service.horizon,
        )
        self.fleet = self.run.fleet

    def _check_size(self, k: int) -> None:
        cap = self.service.max_orgs
        if cap is not None and k > cap:
            raise CapabilityError(
                f"online REF keeps 2^k - 1 coalition engines; {k} active "
                f"members exceeds the cap of {cap} (use RAND or "
                f"DIRECTCONTR for larger federations)"
            )

    def _round(self, t: int) -> None:
        self.run.step(t)

    def backend_status(self) -> dict:
        """The fleet record plus what the fused REF body did with the
        decision events that reached it (``RefRun.ref_events``)."""
        return {
            **super().backend_status(),
            "ref_events": dict(self.run.ref_events),
        }

    def join(self, org: int) -> None:
        self._check_size(len(self.service.census.members))
        old_grand = self.grand_mask
        # fork: the physical engine grows into the new grand coalition
        # while its fork carries on the old grand mask's counterfactual
        # ("as if the joiner never arrived"), keeping that ledger row in
        # place
        phys = self.fleet.engine(old_grand)
        self.fleet.replace_engine(old_grand, phys.fork())
        phys.add_member(org)
        for mid, owner in self.service.census.live_machines((org,)):
            phys.add_machine(mid, owner)
        self.grand_mask |= 1 << org
        self.fleet.add_mask(self.grand_mask, phys)
        # fresh epoch engines for every other newcomer coalition
        for group in subsets_by_size(self.grand_mask)[1:]:
            for mask in group:
                if mask not in self.fleet:
                    self.fleet.add_mask(mask, self.service.build_engine(mask))
        self._rebuild()

    def leave(self, org: int, machine_ids: "list[int]") -> None:
        self._shrink_grand(org, machine_ids)
        bit = 1 << org
        for mask in [m for m in self.fleet.masks if m & bit]:
            self.fleet.remove_mask(mask)
        self._rebuild()

    def _rebuild(self) -> None:
        seen = self.run.ref_events
        self.run = RefRun(
            self.service.zero_workload(),
            self.service.census.members,
            self.grand_mask,
            self.service.horizon,
            fleet=self.fleet,
        )
        self.run.ref_events = seen  # counts span membership epochs


class _RandPolicy(_FleetPolicy):
    """Online RAND: sampled-prefix contribution estimates, stepped per
    event.  At a membership change the joining orders are redrawn over
    the new member set (continuing the policy's RNG stream) and the
    oracle engines restart at the change epoch; the physical engine keeps
    its history like every other policy.

    The budget controls mirror :class:`~repro.algorithms.rand.
    RandScheduler`: explicit ``n_samples`` beats the Theorem 5.6
    ``epsilon``/``delta`` choice beats the fixed ``n_orderings``, and an
    epsilon-driven budget is re-resolved from the *live* member count at
    every membership epoch.  ``sampler`` selects the ordering draw
    (:data:`~repro.shapley.sampling.ORDERING_SAMPLERS`), which is how
    ``ref_stratified`` rides this same adapter online.
    """

    def __init__(
        self,
        service: "ClusterService",
        n_orderings: int = 15,
        *,
        epsilon: float = 0.0,
        delta: float = 0.05,
        n_samples: int = 0,
        sampler: "str | None" = None,
        name: "str | None" = None,
    ):
        super().__init__(service)
        self.n_orderings = int(n_orderings)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.n_samples = int(n_samples)
        self.sampler = sampler
        self.rng = np.random.default_rng(service.seed)
        self.grand_mask = service.census.members_mask
        budget = self._budget(len(service.census.members))
        self.name = name or f"Rand(N={budget})"
        genesis = service.genesis_workload()
        carrier = CoalitionFleet(
            genesis, (self.grand_mask,), horizon=service.horizon
        )
        self.fleet = carrier
        self.run = RandRun(
            genesis,
            service.census.members,
            self.grand_mask,
            budget,
            self.rng,
            service.horizon,
            sampler=sampler,
            oracle_factory=lambda sampled: CoalitionFleet(
                genesis, sampled, horizon=service.horizon, track_events=False
            ),
            fleet=carrier,
        )

    def _round(self, t: int) -> None:
        self.run.step(t)

    def submit(self, job: Job) -> None:
        self.fleet.submit(job)
        self.run.oracle.submit(job)

    def _fleets(self) -> "tuple[CoalitionFleet, ...]":
        return (self.fleet, self.run.oracle)

    def join(self, org: int) -> None:
        self._grow_grand(org)
        self._redraw()

    def leave(self, org: int, machine_ids: "list[int]") -> None:
        self._shrink_grand(org, machine_ids)
        self._redraw()

    def _budget(self, k: int) -> int:
        """The joining-order budget for ``k`` live members (explicit
        ``n_samples``, else Theorem 5.6, else fixed ``n_orderings``)."""
        if self.n_samples:
            return self.n_samples
        if self.epsilon:
            from ..shapley.sampling import hoeffding_samples

            return hoeffding_samples(k, self.epsilon, 1.0 - self.delta)
        return self.n_orderings

    def _redraw(self) -> None:
        service = self.service
        self.run = RandRun(
            service.zero_workload(),
            service.census.members,
            self.grand_mask,
            self._budget(len(service.census.members)),
            self.rng,
            service.horizon,
            sampler=self.sampler,
            oracle_factory=self._epoch_oracle,
            fleet=self.fleet,
        )

    def _epoch_oracle(self, sampled: "list[int]") -> CoalitionFleet:
        fleet = CoalitionFleet(
            self.service.zero_workload(),
            (),
            horizon=self.service.horizon,
            track_events=False,
        )
        for mask in sampled:
            fleet.add_mask(mask, self.service.build_engine(mask))
        return fleet


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class ClusterService:
    """A long-lived, stateful fair-share scheduling daemon.

    Parameters
    ----------
    machine_counts:
        Genesis endowment: machines per organization (orgs get ids
        ``0..len-1``, machine ids follow the canonical layout so the
        service agrees with batch engines).
    policy:
        A registered policy: a :class:`~repro.policies.PolicySpec`, a
        name, or a CLI string such as ``"rand:n_orderings=30"``.  The
        policy must declare the ``step`` capability
        (:class:`~repro.policies.CapabilityError` otherwise), and its
        ``max_orgs`` cap is enforced here at ingest — at genesis and on
        every :meth:`join_org`.
    seed:
        Policy RNG seed (RAND's orderings, DIRECTCONTR's machine order).
    horizon:
        Optional stop time: decision events at/after it are ignored,
        exactly like the batch schedulers' ``horizon``.
    policy_params:
        Extra policy knobs merged over the spec's params (kept for
        backward compatibility; prefer params on the spec itself).

    Ingest API: :meth:`submit`, :meth:`join_org`, :meth:`leave_org`,
    :meth:`add_machines`, :meth:`remove_machines`; time advances through
    :meth:`advance` / :meth:`drain`.  Every one of those calls appends
    one ``(kind, clock, *ints)`` row to :attr:`journal`
    (:data:`repro.service.state.OP_FIELDS`); :meth:`snapshot` carries
    the rows as they are and :meth:`restore` feeds them back through
    the same methods.
    """

    def __init__(
        self,
        machine_counts: Sequence[int],
        policy: "str | PolicySpec" = "directcontr",
        *,
        seed: int = 0,
        horizon: "int | None" = None,
        policy_params: "dict | None" = None,
    ) -> None:
        counts = tuple(int(c) for c in machine_counts)
        if not counts:
            raise ValueError("need at least one genesis organization")
        spec = PolicySpec.parse(policy)
        if policy_params:
            spec = spec.with_params(**policy_params)
        entry = get_policy(spec.name)
        if not entry.capabilities.step:
            raise CapabilityError(
                f"policy {spec.name!r} has no step capability: it cannot "
                f"drive the online service (online policies: "
                f"{policy_names('step')})"
            )
        resolved = entry.resolve_params(spec)  # typed error on bad params
        cap = entry.capabilities.max_orgs
        if cap is not None and len(counts) > cap:
            raise CapabilityError(
                f"policy {spec.name!r} has a max_orgs cap of {cap} active "
                f"organizations; genesis has {len(counts)}"
            )
        self.genesis_machines = counts
        self.policy_entry = entry
        self.policy_spec = spec
        self.policy_name = spec.name
        self.seed = int(seed)
        self.horizon = horizon
        #: Explicit (non-default) params — what :meth:`snapshot` records,
        #: keeping snapshot hashes identical to pre-registry ones.
        self.policy_params = spec.as_dict()
        self.census = ClusterCensus.genesis(counts)
        self.clock = 0
        self.journal: "list[tuple]" = []
        self.n_events = 0
        self.n_jobs = 0
        self._last_decision: "int | None" = None
        self._policy: OnlinePolicy = entry.online_factory(self, resolved)

    @property
    def capabilities(self):
        """The resolved policy's :class:`~repro.policies.PolicyCapabilities`."""
        return self.policy_entry.capabilities

    @property
    def max_orgs(self) -> "int | None":
        """The policy's active-organization cap (``None``: unbounded)."""
        return self.policy_entry.capabilities.max_orgs

    # ------------------------------------------------------------------
    # engine construction helpers (used by the policy adapters)
    # ------------------------------------------------------------------
    def genesis_workload(self) -> Workload:
        """The jobless workload describing the genesis cluster -- batch
        engines built from it share machine ids with the service."""
        return Workload(
            tuple(
                Organization(i, m) for i, m in enumerate(self.genesis_machines)
            ),
            (),
        )

    def zero_workload(self) -> Workload:
        """A jobless, machineless workload spanning every org id ever
        issued (epoch engines get their machines explicitly)."""
        return Workload(
            tuple(Organization(i, 0) for i in range(self.census.n_orgs)), ()
        )

    def build_engine(self, mask: int) -> ClusterEngine:
        """A fresh epoch engine for coalition ``mask``: current live
        machines of its members, empty history, clock-aligned."""
        members = [u for u in iter_members(mask)]
        eng = ClusterEngine(
            self.zero_workload(), members, horizon=self.horizon
        )
        for mid, owner in self.census.live_machines(tuple(members)):
            eng.add_machine(mid, owner)
        if self.clock > 0:
            eng.advance_to(self.clock)
        return eng

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance(self, until: int) -> int:
        """Process every decision event at times ``<= until`` and move the
        service clock there; returns the number of events processed.

        Advances are journaled: *when* rounds ran relative to same-time
        submissions is part of the state a snapshot must reproduce.
        """
        self.journal.append(("advance", self.clock, until))
        done = 0
        while True:
            t = self._policy.pending()
            if t is None or t > until:
                break
            self._step(t)
            done += 1
        if until > self.clock:
            self.clock = until
        return done

    def drain(self) -> int:
        """Process every remaining decision event (up to the horizon);
        returns the service clock afterwards."""
        self.journal.append(("drain", self.clock))
        while True:
            t = self._policy.pending()
            if t is None:
                break
            self._step(t)
        if self._last_decision is not None:
            self.clock = max(self.clock, self._last_decision)
        return self.clock

    def _require_dynamic(self, action: str) -> None:
        if not self.capabilities.dynamic_membership:
            raise CapabilityError(
                f"policy {self.policy_name!r} has no dynamic_membership "
                f"capability: cannot {action} on a live service"
            )

    def _step(self, t: int) -> None:
        self._policy.step(t)
        self.n_events += 1
        self._last_decision = t

    def _force_round(self) -> None:
        """Re-open the scheduling round at the current clock (capacity or
        work appeared after that round was processed)."""
        self._policy.force_round(self.clock)
        self.n_events += 1

    # ------------------------------------------------------------------
    # ingest API
    # ------------------------------------------------------------------
    def submit(
        self,
        org: int,
        size: int,
        release: "int | None" = None,
        *,
        index: "int | None" = None,
        job_id: "int | None" = None,
    ) -> Job:
        """Submit one job; returns the canonical :class:`Job` record.

        ``release`` defaults to (and is clamped up to) the service clock:
        a job cannot be injected into the already-simulated past.  FIFO
        indices are auto-assigned per organization; passing an explicit
        ``index`` (the replay path) asserts it matches the sequence.
        Per organization, releases must be non-decreasing in submission
        order (otherwise FIFO order would be unrealizable).
        """
        self.census.require_member(org)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        effective = self.clock if release is None else max(release, self.clock)
        if effective < self.census.last_release[org]:
            raise ValueError(
                f"org {org}: release {effective} precedes an earlier "
                f"submission ({self.census.last_release[org]}); FIFO order "
                f"would be unrealizable"
            )
        expected = self.census.next_index[org]
        if index is not None and index != expected:
            raise ValueError(
                f"org {org}: expected FIFO index {expected}, got {index}"
            )
        jid = self.census.next_job_id if job_id is None else job_id
        self.census.next_job_id = max(self.census.next_job_id, jid + 1)
        self.census.next_index[org] = expected + 1
        self.census.last_release[org] = effective
        job = Job(effective, org, expected, int(size), id=jid)
        self.journal.append(
            ("submit", self.clock, org, job.size, effective, expected, jid)
        )
        self._policy.submit(job)
        self.n_jobs += 1
        if self._last_decision is not None and effective <= self._last_decision:
            # the round at this time already ran; re-open it so a free
            # machine cannot idle past a job that just arrived
            self._force_round()
        return job

    def submit_job(self, job: Job) -> Job:
        """Submit a pre-built :class:`Job` (the replay driver's path),
        preserving its identity fields."""
        return self.submit(
            job.org,
            job.size,
            release=job.release,
            index=job.index,
            job_id=job.id,
        )

    def join_org(self, machines: int = 0) -> int:
        """Admit a new organization with ``machines`` fresh processors;
        returns its (never reused) id.

        Capability-validated at ingest: a join beyond the policy's
        ``max_orgs`` cap (or under a policy without
        ``dynamic_membership``) fails with a typed
        :class:`~repro.policies.CapabilityError` before any state
        mutates.
        """
        if machines < 0:
            raise ValueError("machines must be >= 0")
        self._require_dynamic("admit an organization")
        cap = self.max_orgs
        if cap is not None and len(self.census.members) + 1 > cap:
            raise CapabilityError(
                f"policy {self.policy_name!r} has a max_orgs cap of {cap} "
                f"active organizations; a join would make "
                f"{len(self.census.members) + 1}"
            )
        org, _ = self.census.admit(machines)
        self.journal.append(("join_org", self.clock, machines))
        try:
            self._policy.join(org)
        except Exception:
            # keep census and engines consistent on refusal (e.g. the
            # REF size cap): roll the admission back
            self.census.rollback_admit(org, machines)
            self.journal.pop()
            raise
        if machines > 0:
            self._force_round()
        return org

    def leave_org(self, org: int) -> None:
        """Expel an organization: its waiting jobs are withdrawn, its
        running jobs complete (non-preemption), its machines drain."""
        self._require_dynamic("expel an organization")
        self.census.require_member(org)
        if len(self.census.members) == 1:
            raise ValueError("cannot remove the last member organization")
        machine_ids = self.census.expel(org)
        self.journal.append(("leave_org", self.clock, org))
        self._policy.leave(org, machine_ids)

    def add_machines(self, org: int, count: int) -> "list[int]":
        """Grow an organization's endowment; returns the new global ids."""
        if count < 1:
            raise ValueError("count must be >= 1")
        machine_ids = self.census.grow(org, count)
        self.journal.append(("add_machines", self.clock, org, count))
        self._policy.machines_added(org, machine_ids)
        self._force_round()
        return machine_ids

    def remove_machines(self, org: int, count: int) -> "list[int]":
        """Shrink an organization's endowment (highest ids first; busy
        machines drain); returns the retired global ids."""
        if count < 1:
            raise ValueError("count must be >= 1")
        machine_ids = self.census.shrink(org, count)
        self.journal.append(("remove_machines", self.clock, org, count))
        self._policy.machines_removed(org, machine_ids)
        return machine_ids

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def policy(self) -> OnlinePolicy:
        """The live policy adapter."""
        return self._policy

    def schedule(self) -> Schedule:
        """The physical cluster's schedule so far."""
        return self._policy.grand_engine().schedule()

    def psis(self, t: "int | None" = None) -> "list[int]":
        """Per-organization psi_sp on the physical cluster."""
        return self._policy.grand_engine().psis(t)

    def status(self) -> dict:
        """A JSON-friendly health/throughput summary.

        ``ingest`` counts the jobs fed to the policy, one feed per job
        (both keys equal ``jobs_submitted``; ``perf/`` reads them);
        ``per_org`` carries the ingest and queue counters the gateway's
        aggregate status rolls up;
        ``policy_backend`` says whether a fleet-backed policy (REF, RAND,
        the approximation ladder) still runs on the batched kernel or fell
        back to per-coalition engines, which is several times slower
        (``None`` for single-engine policies).
        """
        engine = self._policy.grand_engine()
        running = engine.running_counts()
        return {
            "policy": self._policy.name,
            "clock": self.clock,
            "members": list(self.census.members),
            "machines": {
                str(org): len(ids) for org, ids in self.census.machines.items()
            },
            "jobs_submitted": self.n_jobs,
            "jobs_started": len(engine.schedule()),
            "events_processed": self.n_events,
            "waiting": sum(
                engine.waiting_count(u) for u in engine.members
            ),
            "running": sum(running),
            "free_machines": engine.free_count,
            "ingest": {
                "flushes": self.n_jobs,
                "jobs_flushed": self.n_jobs,
            },
            "policy_backend": self._policy.backend_status(),
            "per_org": {
                str(u): {
                    "jobs_submitted": self.census.next_index.get(u, 0),
                    "waiting": engine.waiting_count(u),
                    "running": running[u] if u < len(running) else 0,
                }
                for u in self.census.members
            },
        }

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialize the full scheduler state (event-sourced: genesis +
        journal + clock, content-hashed; see :mod:`repro.service.snapshot`)."""
        return build_snapshot(
            policy={
                "name": self.policy_name,
                "seed": self.seed,
                "params": dict(self.policy_params),
            },
            genesis_machines=self.genesis_machines,
            horizon=self.horizon,
            clock=self.clock,
            journal=self.journal,
            digest=schedule_digest(self.schedule()),
            n_events=self.n_events,
        )

    @classmethod
    def restore(
        cls,
        payload: dict,
        *,
        verify: bool = True,
    ) -> "ClusterService":
        """Rebuild a service from a snapshot, bit-identically.

        Nothing is built until the whole payload has been checked
        (:func:`~repro.service.snapshot.check_snapshot`: format, version,
        content hash, every journal row).  Then the journal is replayed
        through the live ingest path (each op at its recorded clock) and
        the replayed clock must equal the snapshot's.  With ``verify``
        (default) the restored schedule's digest must match the recorded
        one.
        """
        journal = check_snapshot(payload)
        policy = payload["policy"]
        service = cls(
            payload["genesis_machines"],
            policy["name"],
            seed=int(policy["seed"]),
            horizon=payload["horizon"],
            policy_params=policy.get("params") or {},
        )
        for op in journal:
            service._apply(op)
        if service.clock != payload["clock"]:
            raise ValueError(
                f"restore verification failed: replayed clock "
                f"{service.clock} != recorded {payload['clock']}"
            )
        if verify:
            digest = schedule_digest(service.schedule())
            if digest != payload["schedule_digest"]:
                raise ValueError(
                    f"restore verification failed: replayed schedule digest "
                    f"{digest} != recorded {payload['schedule_digest']}"
                )
        return service

    def _apply(self, op: "list | tuple") -> None:
        """Re-apply one journal row through the ingest method its kind
        names (:func:`check_snapshot` has vetted kind, arity and types)."""
        if op[0] == "submit":
            _, _, org, size, release, index, jid = op
            self.submit(org, size, release, index=index, job_id=jid)
        else:
            getattr(self, op[0])(*op[2:])
