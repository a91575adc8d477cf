"""ReplayDriver: stream a frozen workload through the live service.

This is both the service's proof harness and its load generator: any
workload source -- synthetic stand-ins, real SWF traces, the federated /
churn families of the scenario registry -- is replayed as timed events
(jobs submitted in release order, the clock advanced between release
groups), and the resulting schedule is compared **bit for bit** against
the batch scheduler the policy mirrors (the `sim/runner.py` path).

``snapshot_every`` exercises the crash story: after every N release
groups the service is snapshotted, discarded, and restored from the
snapshot before streaming continues -- so a passing replay proves the
kill / restore / resume cycle is invisible in the output.

:func:`replay_scenario` plugs the driver into the PR 2 scenario
registry: the same family builders that feed the batch pipeline feed the
service, so "replay == batch over every registered scenario family" is
one parameterized assertion (see tests/test_service.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

from ..core.schedule import Schedule
from ..core.workload import Workload
from ..policies import PolicySpec, build_scheduler
from .service import ClusterService

__all__ = ["ReplayDriver", "ReplayReport", "replay_scenario"]


@dataclass
class ReplayReport:
    """Outcome of one replay: throughput plus the equivalence verdict."""

    policy: str
    n_jobs: int
    n_events: int
    n_snapshots: int
    wall_time_s: float
    schedule: Schedule
    equivalent: "bool | None" = None
    batch_schedule: "Schedule | None" = None
    metrics: dict = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_events / self.wall_time_s

    def summary(self) -> str:
        verdict = (
            "not checked"
            if self.equivalent is None
            else ("OK (bit-identical)" if self.equivalent else "FAILED")
        )
        lines = [
            f"policy            {self.policy}",
            f"jobs streamed     {self.n_jobs}",
            f"decision events   {self.n_events}",
            f"snapshot cycles   {self.n_snapshots}",
            f"wall time         {self.wall_time_s:.3f}s",
            f"events/sec        {self.events_per_sec:,.0f}",
            f"replay == batch   {verdict}",
        ]
        for name, value in self.metrics.items():
            lines.append(f"{name:<18}{value:.6g}")
        return "\n".join(lines)


class ReplayDriver:
    """Stream ``workload`` through a :class:`ClusterService`.

    Parameters
    ----------
    workload:
        The frozen instance to stream (its machine endowments become the
        service genesis; its jobs are submitted at their release times).
    policy:
        Service policy: a :class:`~repro.policies.PolicySpec`, a
        registered name, or a CLI string like ``"rand:n_orderings=30"``
        (resolved through :data:`repro.policies.POLICY_REGISTRY`; must
        declare the ``step`` capability).
    seed:
        Policy seed; must match the batch counterpart's for equivalence.
    horizon:
        Optional stop time (the batch scheduler gets the same one).
    snapshot_every:
        Kill/restore cadence: after every N release groups the service is
        snapshotted, thrown away, and restored from the snapshot.
        ``None`` streams straight through.
    check_batch:
        Run the batch counterpart on the same workload and compare
        schedules (exact ``Schedule`` equality, machine ids included).
    """

    def __init__(
        self,
        workload: Workload,
        policy: "str | PolicySpec" = "directcontr",
        *,
        seed: int = 0,
        horizon: "int | None" = None,
        snapshot_every: "int | None" = None,
        check_batch: bool = True,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.workload = workload
        self.policy = policy
        self.seed = seed
        self.horizon = horizon
        self.snapshot_every = snapshot_every
        self.check_batch = check_batch

    def run(self) -> ReplayReport:
        service = ClusterService(
            self.workload.machine_counts(),
            self.policy,
            seed=self.seed,
            horizon=self.horizon,
        )
        jobs = sorted(self.workload.jobs)
        n_snapshots = 0
        started = time.perf_counter()
        for n_groups, (release, group) in enumerate(
            groupby(jobs, key=lambda j: j.release), start=1
        ):
            for job in group:
                service.submit_job(job)
            service.advance(release)
            if (
                self.snapshot_every is not None
                and n_groups % self.snapshot_every == 0
            ):
                # kill / restore: the restored daemon must be bit-identical
                service = ClusterService.restore(service.snapshot())
                n_snapshots += 1
        service.drain()
        wall = time.perf_counter() - started

        report = ReplayReport(
            policy=service.policy.name,
            n_jobs=service.n_jobs,
            n_events=service.n_events,
            n_snapshots=n_snapshots,
            wall_time_s=wall,
            schedule=service.schedule(),
        )
        if self.check_batch:
            batch = build_scheduler(
                self.policy, seed=self.seed, horizon=self.horizon
            )
            batch_result = batch.run(self.workload)
            report.batch_schedule = batch_result.schedule
            report.equivalent = report.schedule == batch_result.schedule
        return report


def replay_scenario(
    name: str,
    *,
    instance_index: int = 0,
    policy: "str | PolicySpec" = "directcontr",
    snapshot_every: "int | None" = None,
    check_batch: bool = True,
    metrics: "Sequence[str] | None" = None,
    **overrides,
) -> ReplayReport:
    """Replay one instance of a registered scenario through the service.

    The instance is built by the scenario's family builder exactly as the
    batch pipeline would build it (same derived seeds), the service runs
    with ``horizon = spec.duration``, and -- when ``metrics`` is given --
    every named metric is scored for the replayed schedule against the
    exact REF reference, mirroring ``evaluate_portfolio``.
    """
    from ..experiments.registry import get_family, scenario_spec
    from ..sim.runner import METRICS

    spec = scenario_spec(name, **overrides)
    instances = spec.instances()
    if not 0 <= instance_index < len(instances):
        raise IndexError(
            f"instance_index {instance_index} out of range "
            f"(scenario {name!r} has {len(instances)} instances)"
        )
    inst = instances[instance_index]
    workload, alg_seed = get_family(spec.family)(spec, inst)
    driver = ReplayDriver(
        workload,
        policy,
        seed=alg_seed,
        horizon=spec.duration,
        snapshot_every=snapshot_every,
        check_batch=check_batch,
    )
    report = driver.run()
    if metrics:
        unknown = [m for m in metrics if m not in METRICS]
        if unknown:
            raise KeyError(
                f"unknown metrics {unknown}; available: {sorted(METRICS)}"
            )
        from ..algorithms.base import SchedulerResult

        ref_result = build_scheduler("ref", horizon=spec.duration).run(workload)
        online_result = SchedulerResult(
            algorithm=report.policy,
            workload=workload,
            members=tuple(range(workload.n_orgs)),
            schedule=report.schedule,
            horizon=spec.duration,
        )
        for m in metrics:
            report.metrics[m] = float(
                METRICS[m](online_result, ref_result, spec.duration)
            )
    return report
