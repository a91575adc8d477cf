"""Online adapter for the certified adaptive policy (``ref_adaptive``).

Mirrors the online RAND adapter: the physical cluster is the grand
engine of a carrier fleet, the wave oracles are coalition fleets fed
every submission, and a membership change redraws the waves over the new
member set (continuing the policy's RNG stream) with epoch engines that
start at the change clock.  Two adaptive-specific obligations on top:

* the run's waves are built lazily in batch mode, but an oracle fleet
  constructed *after* jobs were submitted would silently miss them --
  the adapter therefore forces every wave at construction / redraw and
  fans each submission out to all of them;
* the certificate soundness bound needs released work and live machine
  counts per member, which the service's jobless/machineless epoch
  workloads cannot provide -- the adapter replays the submission ledger
  into :meth:`AdaptiveRun.note_job` and pushes census machine counts
  through :meth:`AdaptiveRun.note_machines` at every epoch.

Certificates survive membership epochs: ``certificates`` concatenates
every epoch's transcript, so a service-long certified rate is one
:func:`~repro.approx.adaptive.summarize_certificates` call away.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core.fleet import CoalitionFleet
from ..core.job import Job
from ..service.service import _FleetPolicy
from .adaptive import AdaptiveRun, summarize_certificates

__all__ = ["_AdaptivePolicy"]


class _AdaptivePolicy(_FleetPolicy):
    """Online certified adaptive sampling, stepped per event."""

    def __init__(
        self,
        service,
        *,
        epsilon: float = 0.1,
        delta: float = 0.05,
        n_min: int = 8,
        n_max: int = 1024,
        sampler: str = "antithetic",
    ):
        super().__init__(service)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.sampler = str(sampler)
        self.name = f"RefAdaptive(delta={self.delta:g},n_max={self.n_max})"
        self.rng = np.random.default_rng(service.seed)
        self.grand_mask = service.census.members_mask
        genesis = service.genesis_workload()
        carrier = CoalitionFleet(
            genesis, (self.grand_mask,), horizon=service.horizon
        )
        self.fleet = carrier
        self._jobs: list[Job] = []
        self.certificates: list = []  # closed epochs' transcripts
        self.run = self._make_run(genesis, carrier, self._genesis_oracle)
        self._oracles = self.run.oracles  # force lazy waves pre-ingest

    # ------------------------------------------------------------------
    def _make_run(self, workload, carrier, factory) -> AdaptiveRun:
        service = self.service
        run = AdaptiveRun(
            workload,
            service.census.members,
            self.grand_mask,
            self.rng,
            service.horizon,
            epsilon=self.epsilon,
            delta=self.delta,
            n_min=self.n_min,
            n_max=self.n_max,
            sampler=self.sampler,
            oracle_factory=factory,
            fleet=carrier,
        )
        run.note_machines(
            Counter(
                owner
                for _, owner in service.census.live_machines(
                    service.census.members
                )
            )
        )
        for job in self._jobs:
            run.note_job(job)
        return run

    def _genesis_oracle(self, sampled: "list[int]") -> CoalitionFleet:
        service = self.service
        return CoalitionFleet(
            service.genesis_workload(), sampled, horizon=service.horizon
        )

    def _epoch_oracle(self, sampled: "list[int]") -> CoalitionFleet:
        fleet = CoalitionFleet(
            self.service.zero_workload(), (), horizon=self.service.horizon
        )
        for mask in sampled:
            fleet.add_mask(mask, self.service.build_engine(mask))
        return fleet

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self.fleet.submit(job)
        for oracle in self._oracles:
            oracle.submit(job)
        self.run.note_job(job)
        self._jobs.append(job)

    def _fleets(self) -> "tuple[CoalitionFleet, ...]":
        return (self.fleet, *self._oracles)

    def machines_added(self, org: int, machine_ids: "list[int]") -> None:
        super().machines_added(org, machine_ids)
        self._note_census_machines()

    def machines_removed(self, org: int, machine_ids: "list[int]") -> None:
        super().machines_removed(org, machine_ids)
        self._note_census_machines()

    def _note_census_machines(self) -> None:
        census = self.service.census
        counts = Counter(
            owner for _, owner in census.live_machines(census.members)
        )
        self.run.note_machines(
            {u: counts.get(u, 0) for u in census.members}
        )

    # ------------------------------------------------------------------
    def join(self, org: int) -> None:
        self._grow_grand(org)
        self._redraw()

    def leave(self, org: int, machine_ids: "list[int]") -> None:
        self._shrink_grand(org, machine_ids)
        self._redraw()

    def _redraw(self) -> None:
        self.certificates.extend(self.run.certificates)
        self.run = self._make_run(
            self.service.zero_workload(), self.fleet, self._epoch_oracle
        )
        self._oracles = self.run.oracles

    # ------------------------------------------------------------------
    def all_certificates(self) -> list:
        """Every decision certificate across all membership epochs."""
        return [*self.certificates, *self.run.certificates]

    def summary(self):
        """Service-long certificate tallies (all epochs)."""
        return summarize_certificates(self.all_certificates())
