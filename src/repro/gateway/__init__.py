"""Sharded multi-tenant gateway: one daemon fronting a ClusterService fleet.

The PR 8 subsystem (ISSUE 8, DESIGN.md §11).  One :class:`Gateway`
process multiplexes many independent :class:`~repro.service.
ClusterService` shards across process-per-core workers:

* :mod:`~repro.gateway.routing` -- deterministic ``tenant -> shard ->
  worker`` placement (stable SHA-256 hash, round-robin), derivable by any
  config holder.
* :mod:`~repro.gateway.config` -- the content-hashed
  :class:`GatewayConfig` / :class:`TenantSpec` roster.
* :mod:`~repro.gateway.admission` -- per-tenant token-bucket rate limits
  and credit budgets at the ingest door, with typed in-band errors.
* :mod:`~repro.gateway.wire` -- the pipe grammar: a shard op is a
  journal row minus what the shard assigns, encoded once for the WAL and
  the frame, checked by the worker before it applies it.
* :mod:`~repro.gateway.worker` -- the shard host process: applies each
  row to its shard through the ingest method its kind names, the
  dispatch journal restore uses.
* :mod:`~repro.gateway.transport` -- one worker's pipes: frames,
  the in-flight window, response deadlines, :class:`GatewayError` and
  :class:`WorkerDied`.
* :mod:`~repro.gateway.pool` -- :class:`ShardPool`: spawn, dispatch,
  WAL, park, checkpoint, and the one failure sink and recovery attempt
  behind kill/restore and self-healing.
* :mod:`~repro.gateway.gateway` -- the tenant-facing :class:`Gateway`
  and the ``repro gateway`` serve loop.
* :mod:`~repro.gateway.loadgen` -- the deterministic event storm and the
  per-shard fleet == batch digest verification.
* :mod:`~repro.gateway.supervisor` -- the per-worker liveness state
  machine (detection, capped-backoff respawn, crash-loop quarantine).
* :mod:`~repro.gateway.faults` -- the seeded deterministic fault plan
  (``--chaos``) and the worker-side injector.
* :mod:`~repro.gateway.wal` -- the append-only durable per-shard WAL
  with fsynced checkpoint markers and torn-tail tolerance.
"""

from .admission import AdmissionController, AdmissionError, TokenBucket
from .config import GatewayConfig, TenantSpec
from .faults import FaultInjector, FaultPlan
from .gateway import Gateway, gateway_serve_loop
from .loadgen import (
    LoadReport,
    LoadSpec,
    generate_stream,
    run_loadgen,
    verify_against_batch,
)
from .pool import ShardPool
from .routing import shard_of, stable_hash, worker_of
from .supervisor import ShardUnavailable, Supervisor, SupervisorPolicy
from .transport import GatewayError, WorkerDied
from .wal import ShardWal, load_wal, wal_path

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "TokenBucket",
    "GatewayConfig",
    "TenantSpec",
    "FaultInjector",
    "FaultPlan",
    "Gateway",
    "GatewayError",
    "ShardPool",
    "ShardUnavailable",
    "WorkerDied",
    "gateway_serve_loop",
    "LoadReport",
    "LoadSpec",
    "generate_stream",
    "run_loadgen",
    "verify_against_batch",
    "shard_of",
    "stable_hash",
    "worker_of",
    "Supervisor",
    "SupervisorPolicy",
    "ShardWal",
    "load_wal",
    "wal_path",
]
