"""The tenant-facing front door: one daemon multiplexing a fleet of shards.

:class:`Gateway` sits on a :class:`~repro.gateway.pool.ShardPool` and
adds what is about tenants: deterministic ``tenant -> shard -> org``
routing from the content-hashed :class:`~repro.gateway.config.
GatewayConfig`, admission control and per-org token-bucket rate/credit
accounting at ingest (:mod:`repro.gateway.admission`; typed in-band
errors, never a crash), aggregate status/observability, and
ingest-latency accounting.  :func:`gateway_serve_loop` is the ``repro
gateway`` daemon loop over it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .admission import AdmissionController, AdmissionError
from .config import GatewayConfig
from .faults import FaultPlan
from .pool import ShardPool
from .supervisor import ShardUnavailable, SupervisorPolicy
from .transport import GatewayError, _refused

__all__ = ["Gateway", "gateway_serve_loop"]


class Gateway:
    """The tenant-facing front door over a :class:`ShardPool`.

    Ingest ops route by tenant (``tenant -> shard -> org``), pass
    admission control first, and pipeline to the owning worker; time ops
    broadcast to every shard.  All errors -- admission refusals, unknown
    tenants, shard-side validation -- come back as in-band
    ``{"ok": false, "error": ..., "code": ...}`` responses.
    """

    def __init__(
        self,
        config: GatewayConfig,
        *,
        snapshot_dir: "str | Path | None" = None,
        max_inflight: int = 64,
        supervisor: "SupervisorPolicy | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.config = config
        self.pool = ShardPool(
            config,
            snapshot_dir=snapshot_dir,
            max_inflight=max_inflight,
            supervisor=supervisor,
            fault_plan=fault_plan,
        )
        self.admission = AdmissionController(config)
        self.clock = 0
        self.n_submitted = 0
        self.n_rejected = 0
        self.forward_errors: "list[dict]" = []
        self._started = time.perf_counter()

    def start(self) -> "Gateway":
        self.pool.start()
        return self

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.pool.close()

    # -- ingest ----------------------------------------------------------
    def submit(
        self,
        tenant: str,
        size: int,
        release: "int | None" = None,
        *,
        wait: bool = False,
    ) -> dict:
        """Submit one job for ``tenant``; admission-checked at the door.

        Pipelined by default: when this returns the command is in the
        shard's WAL and in its worker's current frame, not yet on the
        pipe (see :class:`ShardPool` for when frames leave); shard-side
        errors surface in :attr:`forward_errors` and the next barrier.
        ``wait=True`` returns the shard's full response.

        ``size`` and ``release`` must be ints (``release`` may be None:
        the shard's clock); anything else, ``bool`` included, is refused
        with ``bad_request`` before admission charges anything -- a shard
        would otherwise run a truncated job the tenant paid face value
        for.

        Degradation contract: shard health is checked **before**
        admission charges, so a ``shard_unavailable`` refusal (worker
        quarantined, or down with a full park buffer) never costs the
        tenant tokens or credits, exactly like ``rate_limited``.  A
        submit to a down-but-parkable shard is charged (it *will* apply
        on heal) and acknowledged with ``"parked": true``.
        """
        if tenant not in self.config.routes:
            try:
                # routes admission's unknown_tenant accounting + error
                self.admission.admit_submit(tenant, size)
            except AdmissionError as exc:
                return self._refuse(tenant, exc)
        if type(size) is not int or (
            release is not None and type(release) is not int
        ):
            exc = self.admission.refuse(
                tenant,
                "bad_request",
                f"size and release must be ints (release may be None), "
                f"got size={size!r} release={release!r}",
            )
            return self._refuse(tenant, exc)
        now = self.clock if release is None else max(release, self.clock)
        shard, org = self.config.routes[tenant]
        refusal = self.pool.submit_refusal(shard)
        if refusal is not None:
            exc = self.admission.refuse(tenant, "shard_unavailable", refusal)
            return self._refuse(tenant, exc, shard)
        try:
            self.admission.admit_submit(tenant, size, now)
        except AdmissionError as exc:
            return self._refuse(tenant, exc)
        self.n_submitted += 1

        def check(resp: "list | dict") -> None:
            if _refused(resp):
                self.forward_errors.append(
                    {"tenant": tenant, "shard": shard, **resp}
                )

        try:
            resp = self.pool.shard_cmd(
                shard,
                ["submit", org, size, release],
                wait=wait,
                track_latency=True,
                callback=check,
            )
        except ShardUnavailable as exc:
            # raced: the shard went unavailable between the health check
            # and the send, and parking wasn't possible -- undo the
            # charge so the refusal stays free, like every other refusal
            self.admission.refund_submit(tenant, size)
            self.n_submitted -= 1
            refused = self.admission.refuse(
                tenant, "shard_unavailable", str(exc)
            )
            return self._refuse(tenant, refused, shard)
        if wait and type(resp) is list:
            _, job_id, index, at = resp
            return {
                "tenant": tenant,
                "ok": True,
                "job_id": job_id,
                "org": org,
                "index": index,
                "release": at,
                "shard": shard,
            }
        if wait:
            return {"tenant": tenant, **resp}
        if resp is not None and resp.get("parked"):
            return {
                "ok": True,
                "tenant": tenant,
                "shard": shard,
                "parked": True,
            }
        return {"ok": True, "tenant": tenant, "shard": shard, "queued": True}

    def _refuse(
        self, tenant: str, exc: AdmissionError, shard: "int | None" = None
    ) -> dict:
        """A refused submit, in-band: counted, and charged nothing."""
        self.n_rejected += 1
        resp = {"ok": False, "tenant": tenant}
        if shard is not None:
            resp["shard"] = shard
        resp["error"] = str(exc)
        resp["code"] = exc.code
        return resp

    def add_credits(self, tenant: str, amount: float) -> dict:
        try:
            balance = self.admission.add_credits(tenant, amount)
        except AdmissionError as exc:
            return {
                "ok": False,
                "tenant": tenant,
                "error": str(exc),
                "code": exc.code,
            }
        return {"ok": True, "tenant": tenant, "credits_remaining": balance}

    # -- time ------------------------------------------------------------
    def advance(self, t: int, *, wait: bool = False) -> dict:
        """Advance every shard's clock to ``t`` (broadcast, pipelined).

        Down shards park the advance (replayed in order on heal); the
        broadcast never stalls on a hole in the fleet.
        """
        t = int(t)
        self.clock = max(self.clock, t)
        self.pool.vclock = self.clock
        self.admission.observe_clock(self.clock)
        self.pool.tick()
        row = ["advance", t]
        for s in self.config.shard_ids():
            self.pool.shard_cmd(s, row)
        if wait:
            self.pool.barrier()
        return {"ok": True, "clock": self.clock}

    def drain(self) -> dict:
        """Process every remaining decision event on every shard.

        Self-healing barrier: a shard whose worker is down (or fails
        mid-drain) is healed -- respawn, checkpoint restore, WAL replay
        -- and the drain retried; ``drain`` is idempotent on a drained
        shard, so the bounded retry loop is safe.
        """
        self.pool.vclock = self.clock
        clocks = []
        for s in self.config.shard_ids():
            resp: "list | dict | None" = None
            for _ in range(10):
                try:
                    resp = self.pool.call(s, ["drain"])
                except ShardUnavailable:
                    self.pool.heal_shard(s)
                    continue
                if type(resp) is dict and resp.get("parked"):
                    # parked: the WAL holds the drain; heal applies it,
                    # then one more (idempotent) drain reads the clock
                    self.pool.heal_shard(s)
                    continue
                break
            else:
                raise GatewayError(f"shard {s} would not drain (gave up)")
            if type(resp) is dict:  # refused shard-side
                return resp
            clocks.append(resp[1])
        self.clock = max([self.clock, *clocks])
        self.pool.vclock = self.clock
        self.admission.observe_clock(self.clock)
        return {"ok": True, "clock": self.clock}

    # -- observation -----------------------------------------------------
    def status(self) -> dict:
        """Aggregate fleet status: totals, per-shard, per-tenant.

        Per-tenant rows join the gateway-side admission counters
        (accepted/rejected/credits) with the owning shard's per-org
        ingest and queue counters -- the satellite observability
        contract.
        """
        shard_statuses = self.pool.statuses()
        admission = self.admission.status()
        tenants = {}
        for t in self.config.tenants:
            shard, org = self.config.routes[t.name]
            row = dict(admission[t.name])
            row["shard"] = shard
            row["org"] = org
            per_org = shard_statuses.get(shard, {}).get("per_org", {})
            row.update(per_org.get(str(org), {}))
            tenants[t.name] = row
        totals = {
            "events_processed": sum(
                s["events_processed"] for s in shard_statuses.values()
            ),
            "jobs_submitted": sum(
                s["jobs_submitted"] for s in shard_statuses.values()
            ),
            "jobs_started": sum(
                s["jobs_started"] for s in shard_statuses.values()
            ),
            "waiting": sum(s["waiting"] for s in shard_statuses.values()),
            "running": sum(s["running"] for s in shard_statuses.values()),
            "ingest_flushes": sum(
                s["ingest"]["flushes"] for s in shard_statuses.values()
            ),
            "jobs_flushed": sum(
                s["ingest"]["jobs_flushed"] for s in shard_statuses.values()
            ),
            "rejected": self.n_rejected,
            "forward_errors": len(self.forward_errors),
            "lost_responses": self.pool.lost_responses,
            "worker_restores": self.pool.restores,
        }
        pool = self.pool
        supervision = pool.supervisor.status()
        supervision.update(
            parked={str(s): n for s, n in sorted(pool.parked.items()) if n},
            parked_total=pool.parked_total,
            lost_inflight={
                str(w): {"count": row["count"], "recent": list(row["recent"])}
                for w, row in sorted(pool.lost_inflight.items())
            },
            faults_armed=pool.faults_armed,
            wal_tears=pool.wal_tears,
            pings_sent=pool.pings_sent,
        )
        degraded = any(
            row["state"] != "up"
            for row in supervision["workers"].values()
        )
        return {
            "ok": True,
            "config_hash": self.config.content_hash(),
            "policy": self.config.policy,
            "clock": self.clock,
            "workers": self.pool.n_live_workers,
            "shards": len(self.config.shard_ids()),
            "tenants": len(self.config.tenants),
            **totals,
            "degraded": degraded,
            "supervisor": supervision,
            "transport": self.pool.transport_status(),
            "per_shard": {str(s): v for s, v in shard_statuses.items()},
            "per_tenant": tenants,
        }

    def latency_percentiles(self) -> "dict[str, float]":
        """Ingest round-trip latency percentiles (milliseconds)."""
        lat = sorted(self.pool.latencies_s)
        if not lat:
            return {"p50_ms": 0.0, "p99_ms": 0.0}

        def pct(q: float) -> float:
            idx = min(len(lat) - 1, int(q * (len(lat) - 1) + 0.5))
            return lat[idx] * 1000.0

        return {"p50_ms": round(pct(0.50), 4), "p99_ms": round(pct(0.99), 4)}

    def stats_line(self) -> str:
        """One compact periodic-stats line (``repro gateway`` heartbeat)."""
        lat = self.latency_percentiles()
        elapsed = time.perf_counter() - self._started
        return (
            f"[gateway] clock={self.clock} workers={self.pool.n_live_workers}"
            f" shards={len(self.config.shard_ids())}"
            f" submitted={self.n_submitted} rejected={self.n_rejected}"
            f" p50={lat['p50_ms']:.2f}ms p99={lat['p99_ms']:.2f}ms"
            f" uptime={elapsed:.1f}s"
        )

    # -- checkpoint / recovery (delegated) -------------------------------
    def snapshot_all(self) -> "dict[int, dict]":
        return self.pool.snapshot_all()

    def shard_digests(self) -> "dict[int, str]":
        return self.pool.shard_digests()

    def kill_worker(self, worker: int) -> int:
        return self.pool.kill_worker(worker)

    def restore_worker(self, worker: int) -> "dict[int, int]":
        return self.pool.restore_worker(worker)


def gateway_serve_loop(
    gateway: Gateway,
    lines,
    out,
    *,
    stats_every_s: "float | None" = None,
    stats_out=None,
) -> None:
    """The ``repro gateway`` daemon loop: tenant-facing JSONL commands.

    The protocol mirrors ``repro serve`` but addresses **tenants**, not
    org ids -- routing, admission and sharding are the gateway's job::

        {"id": 1, "op": "submit", "tenant": "t3", "size": 2}
        {"id": 2, "op": "advance", "t": 5}
        {"id": 3, "op": "status"}
        {"id": 4, "op": "add_credits", "tenant": "t3", "amount": 50}
        {"id": 5, "op": "snapshot"}          # checkpoint the whole fleet
        {"id": 6, "op": "digests"}           # per-shard schedule digests
        {"id": 7, "op": "stop"}

    Every error -- admission refusal, unknown tenant, malformed JSON --
    is an in-band ``{"ok": false, ...}`` response.  ``stats_every_s``
    emits a periodic one-line fleet heartbeat to ``stats_out``
    (observability satellite).  The loop ticks the pool's supervisor
    while idle (bounded waits on real streams), so a crashed worker is
    detected and respawned even with no tenant traffic.  On
    :class:`~repro.service.daemon.ShutdownRequested` (SIGTERM/SIGINT)
    the fleet is checkpointed to the pool's ``snapshot_dir`` before the
    loop returns, so a supervisor kill of the *gateway* is as
    recoverable as a worker crash.
    """
    from ..service.daemon import timed_lines

    last_stats = time.monotonic()

    def maybe_stats() -> None:
        nonlocal last_stats
        if stats_every_s is None or stats_out is None:
            return
        now = time.monotonic()
        if now - last_stats >= stats_every_s:
            stats_out.write(gateway.stats_line() + "\n")
            stats_out.flush()
            last_stats = now

    try:
        # before blocking for input, send what the handled commands
        # enqueued: a lone piped submit must not wait for the idle tick
        for line in timed_lines(lines, 0.25, gateway.pool.flush):
            if line is None:
                # idle: run the supervisor pass (deadline checks, pings,
                # due respawns) so healing doesn't wait for traffic
                gateway.pool.tick()
                maybe_stats()
                continue
            line = line.strip()
            if not line:
                continue
            keep = True
            req_id = None
            try:
                cmd = json.loads(line)
                if not isinstance(cmd, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(cmd).__name__}"
                    )
                req_id = cmd.get("id")
                op = cmd.get("op")
                if op == "submit":
                    # unconverted: Gateway.submit refuses a non-int
                    resp = gateway.submit(
                        cmd["tenant"],
                        cmd.get("size", 1),
                        release=cmd.get("release"),
                        wait=bool(cmd.get("wait", False)),
                    )
                elif op == "advance":
                    resp = gateway.advance(int(cmd["t"]))
                elif op == "drain":
                    resp = gateway.drain()
                elif op == "status":
                    resp = gateway.status()
                elif op == "add_credits":
                    resp = gateway.add_credits(
                        cmd["tenant"], float(cmd["amount"])
                    )
                elif op == "snapshot":
                    resp = {
                        "ok": True,
                        "snapshots": {
                            str(s): info
                            for s, info in gateway.snapshot_all().items()
                        },
                    }
                elif op == "digests":
                    resp = {
                        "ok": True,
                        "digests": {
                            str(s): d
                            for s, d in gateway.shard_digests().items()
                        },
                    }
                elif op == "stop":
                    resp = {"ok": True, "stopped": True}
                    keep = False
                else:
                    raise ValueError(f"unknown gateway op {op!r}")
            except (ValueError, KeyError, TypeError) as exc:
                resp = {"ok": False, "error": str(exc)}
            if req_id is not None:
                resp["id"] = req_id
            out.write(json.dumps(resp) + "\n")
            out.flush()
            maybe_stats()
            if not keep:
                return
    except BaseException as exc:
        # graceful SIGTERM/SIGINT (ShutdownRequested) -- and any crash --
        # leaves a restorable fleet checkpoint behind when possible
        if gateway.pool.snapshot_dir is not None:
            try:
                gateway.snapshot_all()
            except GatewayError:
                pass
        from ..service.daemon import ShutdownRequested

        if isinstance(exc, ShutdownRequested):
            return
        raise
