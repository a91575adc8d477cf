"""Load generator: a deterministic multi-tenant event storm.

``repro loadgen`` drives a synthetic stream -- 100k+ submit events across
64+ tenants by default -- through a :class:`~repro.gateway.gateway.
Gateway` and reports aggregate throughput and ingest latency.  The stream
is a pure function of the seed, so every run (and every benchmark record)
is replayable.

Correctness ride-along: because each shard is an ordinary
:class:`~repro.service.ClusterService`, the whole fleet's output can be
verified against the single-machine batch scheduler **per shard**.  The
stream is emitted in ``(release, tenant-declaration-order)`` order with
per-tenant FIFO indices assigned in stream order.  Restricted to one
shard, that order is exactly the canonical :class:`~repro.core.workload.
Workload` job order ``(release, org, index)`` -- tenant declaration order
fixes org ids within the shard -- so the shard service's sequentially
assigned job ids coincide with the batch workload's auto-assigned ids,
and :func:`repro.service.snapshot.schedule_digest` comparison is exact.
:func:`verify_against_batch` does this for every shard; only *admitted*
events participate (admission-rejected submits never reached a shard,
and the batch workload excludes them identically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby

from ..core.job import Job
from ..core.organization import Organization
from ..core.workload import Workload
from ..policies import build_scheduler
from ..service.snapshot import schedule_digest
from .config import GatewayConfig
from .gateway import Gateway
from .transport import GatewayError

__all__ = ["LoadSpec", "LoadReport", "generate_stream", "run_loadgen",
           "verify_against_batch"]


@dataclass(frozen=True)
class LoadSpec:
    """The deterministic shape of one synthetic event storm."""

    n_events: int = 100_000
    n_releases: int = 250
    max_size: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise ValueError("n_events must be >= 1")
        if self.n_releases < 1:
            raise ValueError("n_releases must be >= 1")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")


@dataclass
class LoadReport:
    """Outcome of one loadgen run."""

    config_hash: str
    policy: str
    n_tenants: int
    n_workers: int
    n_shards: int
    n_events: int
    n_accepted: int
    n_rejected: int
    rejected_by_code: "dict[str, int]"
    wall_time_s: float
    p50_ms: float
    p99_ms: float
    snapshot_under_load_s: "float | None" = None
    verified: "bool | None" = None
    shard_digests: "dict[int, str]" = field(default_factory=dict)
    #: Self-healing stats (present when the gateway ran with a fault
    #: plan): faults armed, auto recoveries, quarantines, MTTR and its
    #: spawn/replay split, parking.
    chaos: "dict | None" = None

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_events / self.wall_time_s

    def summary(self) -> str:
        verdict = (
            "not checked"
            if self.verified is None
            else ("OK (bit-identical per shard)" if self.verified else
                  "FAILED")
        )
        lines = [
            f"config            {self.config_hash} ({self.policy})",
            f"topology          {self.n_workers} workers / "
            f"{self.n_shards} shards / {self.n_tenants} tenants",
            f"events offered    {self.n_events}",
            f"admitted          {self.n_accepted}",
            f"rejected          {self.n_rejected}"
            + (f" {self.rejected_by_code}" if self.rejected_by_code else ""),
            f"wall time         {self.wall_time_s:.3f}s",
            f"events/sec        {self.events_per_sec:,.0f}",
            f"ingest p50        {self.p50_ms:.3f}ms",
            f"ingest p99        {self.p99_ms:.3f}ms",
        ]
        if self.snapshot_under_load_s is not None:
            lines.append(
                f"snapshot cost     {self.snapshot_under_load_s:.3f}s "
                f"(under load)"
            )
        if self.chaos is not None:
            c = self.chaos
            mttr = c.get("mttr_seconds")
            lines += [
                f"chaos plan        {c.get('plan')}",
                f"faults armed      {c.get('faults_armed')}",
                f"auto recoveries   {c.get('auto_recoveries')}"
                + (
                    f" (mttr {mttr:.3f}s: spawn {c['spawn_s']:.3f}s"
                    f" + replay {c['replay_s']:.3f}s + backoff/retries)"
                    if mttr is not None
                    else ""
                ),
                f"quarantines       {c.get('quarantines')}",
                f"parked submits    {c.get('parked_total')} "
                f"(lost in-flight {c.get('lost_responses')}, "
                f"wal tears {c.get('wal_tears')})",
            ]
        lines.append(f"fleet == batch    {verdict}")
        return "\n".join(lines)


def generate_stream(
    config: GatewayConfig, spec: LoadSpec
) -> "list[tuple[int, str, int]]":
    """The deterministic event stream: ``(release, tenant, size)`` rows.

    Emitted sorted by ``(release, tenant declaration index)`` -- the order
    whose per-shard restriction matches canonical batch job order (see
    module docstring).  Pure function of ``(config, spec)``.
    """
    import random

    rng = random.Random(spec.seed)
    n_tenants = len(config.tenants)
    events = [
        (
            rng.randrange(spec.n_releases),
            rng.randrange(n_tenants),
            rng.randint(1, spec.max_size),
        )
        for _ in range(spec.n_events)
    ]
    events.sort(key=lambda e: (e[0], e[1]))
    return [
        (release, config.tenants[t].name, size)
        for release, t, size in events
    ]


def run_loadgen(
    gateway: Gateway,
    spec: "LoadSpec | None" = None,
    *,
    stream: "list[tuple[int, str, int]] | None" = None,
    snapshot_at_release: "int | None" = None,
    kill_worker_at_release: "int | None" = None,
    verify: bool = True,
    progress=None,
) -> LoadReport:
    """Drive the stream through a started gateway; optionally verify.

    ``snapshot_at_release`` checkpoints the whole fleet mid-stream (the
    snapshot-under-load cost lands in the report);
    ``kill_worker_at_release`` SIGKILLs worker 0 mid-stream and restores
    it before continuing -- the verification at the end then proves the
    crash was invisible in the output.  ``progress`` is an optional
    callable invoked with a stats line after each release group.

    Chaos mode needs no extra wiring here: when the gateway was built
    with a :class:`~repro.gateway.faults.FaultPlan`, injected crashes
    are detected and healed by the pool's supervisor mid-stream, parked
    submits ack ``ok`` and replay on heal, and ``shard_unavailable``
    refusals are excluded from the accepted set -- so the final
    per-shard digests are verified against the batch scheduler over
    exactly the applied events, with zero manual ``restore_worker``
    calls.  The healing stats land in ``report.chaos``.
    """
    config = gateway.config
    if stream is None:
        stream = generate_stream(config, spec or LoadSpec())
    accepted: "list[tuple[int, str, int]]" = []
    rejected: "dict[str, int]" = {}
    snapshot_cost: "float | None" = None
    started = time.perf_counter()
    for release, group in groupby(stream, key=lambda e: e[0]):
        for _, tenant, size in group:
            resp = gateway.submit(tenant, size, release)
            if resp.get("ok"):
                accepted.append((release, tenant, size))
            else:
                code = resp.get("code", "unknown")
                rejected[code] = rejected.get(code, 0) + 1
        gateway.advance(release)
        if snapshot_at_release is not None and release >= snapshot_at_release:
            t0 = time.perf_counter()
            gateway.snapshot_all()
            snapshot_cost = time.perf_counter() - t0
            snapshot_at_release = None
        if (
            kill_worker_at_release is not None
            and release >= kill_worker_at_release
        ):
            gateway.kill_worker(0)
            gateway.restore_worker(0)
            kill_worker_at_release = None
        if progress is not None:
            progress(gateway.stats_line())
    gateway.drain()
    wall = time.perf_counter() - started

    if gateway.forward_errors:
        raise GatewayError(
            f"{len(gateway.forward_errors)} admitted submits failed "
            f"shard-side; first: {gateway.forward_errors[0]}"
        )
    lat = gateway.latency_percentiles()
    report = LoadReport(
        config_hash=config.content_hash(),
        policy=config.policy,
        n_tenants=len(config.tenants),
        n_workers=config.n_workers,
        n_shards=len(config.shard_ids()),
        n_events=len(stream),
        n_accepted=len(accepted),
        n_rejected=len(stream) - len(accepted),
        rejected_by_code=dict(sorted(rejected.items())),
        wall_time_s=wall,
        p50_ms=lat["p50_ms"],
        p99_ms=lat["p99_ms"],
        snapshot_under_load_s=snapshot_cost,
    )
    pool = gateway.pool
    if pool.fault_plan is not None:
        # heal any still-down worker before digesting, and report the
        # self-healing totals alongside the throughput numbers
        pool.ensure_all_up()
        sup = pool.supervisor
        report.chaos = {
            "plan": pool.fault_plan.spec(),
            "faults_armed": pool.faults_armed,
            "auto_recoveries": len(sup.recoveries),
            "quarantines": sup.n_quarantines,
            "mttr_seconds": sup.mttr_seconds,
            "spawn_s": sup.mean("spawn_s"),
            "replay_s": sup.mean("replay_s"),
            "parked_total": pool.parked_total,
            "lost_responses": pool.lost_responses,
            "wal_tears": pool.wal_tears,
            "recoveries": list(sup.recoveries),
        }
    if verify:
        report.shard_digests = gateway.shard_digests()
        expected = verify_against_batch(config, accepted)
        report.verified = report.shard_digests == expected
    return report


def shard_workloads(
    config: GatewayConfig,
    accepted: "list[tuple[int, str, int]]",
) -> "dict[int, Workload]":
    """Rebuild each shard's batch :class:`Workload` from admitted events.

    Events must be in stream (submission) order; FIFO indices are
    assigned per tenant in that order, exactly as the shard service did.
    """
    routes = config.routes
    next_index: "dict[str, int]" = {}
    per_shard: "dict[int, list[Job]]" = {s: [] for s in config.shard_ids()}
    for release, tenant, size in accepted:
        shard, org = routes[tenant]
        idx = next_index.get(tenant, 0)
        next_index[tenant] = idx + 1
        per_shard[shard].append(Job(release, org, idx, size, id=-1))
    out = {}
    for shard, jobs in per_shard.items():
        orgs = [
            Organization(id=i, machines=t.machines)
            for i, t in enumerate(config.shard_map[shard])
        ]
        out[shard] = Workload(orgs, jobs)
    return out


def verify_against_batch(
    config: GatewayConfig,
    accepted: "list[tuple[int, str, int]]",
) -> "dict[int, str]":
    """Expected per-shard schedule digests from the batch scheduler."""
    expected = {}
    for shard, workload in shard_workloads(config, accepted).items():
        scheduler = build_scheduler(
            config.policy,
            seed=config.shard_seed(shard),
            horizon=config.horizon,
        )
        result = scheduler.run(workload)
        expected[shard] = schedule_digest(result.schedule)
    return expected
