"""Worker supervision: detection, backoff, respawn budget, quarantine.

The gateway runs single-threaded, so the "supervisor loop" is woven into
the command path rather than a thread: every pool-level wait carries a
response deadline (a stalled worker *marks itself suspect* instead of
blocking the fleet), pipe errors and protocol desyncs are detected at the
next I/O, idle workers are pinged, and :meth:`~repro.gateway.gateway.
ShardPool.tick` -- called from every gateway operation, the serve loop's
idle path, and the load generator's release loop -- is where scheduled
respawns actually fire.

Per-worker state machine (:class:`WorkerMeta`)::

              detect failure                 budget exhausted
     UP ─────────────────────────▶ DOWN ─────────────────────▶ QUARANTINED
      ▲                             │  backoff elapsed            │
      │    respawn + WAL replay OK  │                             │ cooldown
      └─────────────────────────────┘◀────────────────────────────┘

plus ``ADMIN_DOWN`` for explicit :meth:`kill_worker` (an operator action:
never auto-respawned, ``restore_worker`` is the manual exit).

Backoff is capped-exponential and measured against **both** clocks: the
virtual gateway clock (deterministic relative to a driven stream) and a
wall-clock fallback (so an idle daemon still heals).  A worker that fails
``max_restarts`` times without proving itself healthy in between
(``budget_reset_ops`` settled responses) is *quarantined* -- refused
instead of hot-looped -- until the cooldown expires, after which it gets
a fresh budget.  Every recovery's detect-to-healed wall time is logged;
:attr:`Supervisor.mttr_seconds` is their mean (``tests/test_supervisor.py``
bounds it on the chaos plans it runs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["SupervisorPolicy", "Supervisor", "WorkerMeta", "ShardUnavailable"]

#: Worker states.
UP = "up"
DOWN = "down"
QUARANTINED = "quarantined"
ADMIN_DOWN = "admin_down"


class ShardUnavailable(RuntimeError):
    """A shard's owning worker is down or quarantined; the operation was
    refused (typed, in-band at the gateway) rather than parked."""

    code = "shard_unavailable"

    def __init__(self, shard: int, state: str, message: str) -> None:
        super().__init__(message)
        self.shard = shard
        self.state = state


@dataclass(frozen=True)
class SupervisorPolicy:
    """Operational knobs for self-healing.

    Deliberately **not** part of the content-hashed
    :class:`~repro.gateway.config.GatewayConfig`: two fleets with
    different heartbeat timeouts still compute the same schedules, so
    supervision must not change the config identity.
    """

    #: Oldest-pending-response deadline; a worker that exceeds it is
    #: killed and respawned (the stalled-not-dead detection path).
    heartbeat_timeout_s: float = 60.0
    #: Ping an idle worker after this long without traffic (None: never).
    ping_interval_s: "float | None" = 5.0
    #: Consecutive failed recoveries tolerated before quarantine.
    max_restarts: int = 3
    #: Capped-exponential respawn backoff, wall-clock leg.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: Same backoff in virtual (gateway-clock) units -- deterministic
    #: relative to a driven stream; respawn fires when EITHER elapses.
    backoff_base_v: float = 1.0
    backoff_cap_v: float = 64.0
    #: Quarantine cooldown (again: either clock).
    quarantine_cooldown_s: float = 1.0
    quarantine_cooldown_v: float = 200.0
    #: Settled responses after which a worker's failure budget resets.
    budget_reset_ops: int = 200
    #: Max parked (buffered) submits per shard while its worker is down;
    #: beyond this, submits are refused with ``shard_unavailable``.
    park_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.park_limit < 0:
            raise ValueError("park_limit must be >= 0")

    def backoff(self, attempt: int) -> "tuple[float, float]":
        """(wall seconds, virtual units) before respawn ``attempt``."""
        scale = 2 ** max(0, attempt - 1)
        return (
            min(self.backoff_cap_s, self.backoff_base_s * scale),
            min(self.backoff_cap_v, self.backoff_base_v * scale),
        )


@dataclass
class WorkerMeta:
    """One worker's supervision state."""

    worker: int
    state: str = UP
    incarnation: int = 0
    failures: int = 0  # consecutive, resets on sustained health
    restarts_total: int = 0
    quarantines_total: int = 0
    settled_since_up: int = 0
    last_activity: float = field(default_factory=time.monotonic)
    detected_at: "float | None" = None
    down_since_v: "int | None" = None
    next_attempt_wall: float = 0.0
    next_attempt_v: float = 0.0
    last_failure: "str | None" = None

    def as_status(self) -> dict:
        row = {
            "state": self.state,
            "incarnation": self.incarnation,
            "restarts": self.restarts_total,
            "quarantines": self.quarantines_total,
        }
        if self.last_failure is not None:
            row["last_failure"] = self.last_failure
        return row


class Supervisor:
    """Tracks worker health and decides respawn / quarantine / refusal.

    Owns no I/O: the :class:`~repro.gateway.gateway.ShardPool` reports
    failures and settlements in, and asks which workers are due for a
    respawn.  That split keeps the policy unit-testable without spawning
    a single process.
    """

    def __init__(self, policy: "SupervisorPolicy | None" = None) -> None:
        self.policy = policy or SupervisorPolicy()
        self.meta: "dict[int, WorkerMeta]" = {}
        #: (worker, incarnation, reason, mttr_seconds) per auto-recovery.
        self.recoveries: "list[dict]" = []

    # -- registration ----------------------------------------------------
    def register(self, worker: int) -> WorkerMeta:
        self.meta[worker] = WorkerMeta(worker=worker)
        return self.meta[worker]

    def state(self, worker: int) -> str:
        meta = self.meta.get(worker)
        return meta.state if meta is not None else UP

    # -- event sinks (called by the pool) --------------------------------
    def on_settled(self, worker: int, n: int = 1) -> None:
        meta = self.meta[worker]
        meta.last_activity = time.monotonic()
        meta.settled_since_up += n
        if (
            meta.failures
            and meta.settled_since_up >= self.policy.budget_reset_ops
        ):
            meta.failures = 0  # sustained health: budget refilled

    def on_failure(
        self, worker: int, reason: str, vclock: int, *, admin: bool = False
    ) -> str:
        """Record a worker failure; returns the new state."""
        meta = self.meta[worker]
        now = time.monotonic()
        meta.last_failure = reason
        meta.settled_since_up = 0
        if meta.detected_at is None:
            meta.detected_at = now
            meta.down_since_v = vclock
        if admin:
            meta.state = ADMIN_DOWN
            return meta.state
        meta.failures += 1
        if meta.failures > self.policy.max_restarts:
            meta.state = QUARANTINED
            meta.quarantines_total += 1
            meta.next_attempt_wall = now + self.policy.quarantine_cooldown_s
            meta.next_attempt_v = vclock + self.policy.quarantine_cooldown_v
        else:
            meta.state = DOWN
            wall, virt = self.policy.backoff(meta.failures)
            meta.next_attempt_wall = now + wall
            meta.next_attempt_v = vclock + virt
        return meta.state

    def on_healed(self, worker: int, *, manual: bool = False) -> None:
        meta = self.meta[worker]
        now = time.monotonic()
        if meta.detected_at is not None and not manual:
            self.recoveries.append(
                {
                    "worker": worker,
                    "incarnation": meta.incarnation,
                    "reason": meta.last_failure,
                    "mttr_seconds": round(now - meta.detected_at, 4),
                }
            )
        meta.state = UP
        meta.detected_at = None
        meta.down_since_v = None
        meta.settled_since_up = 0
        meta.last_activity = now

    def on_respawn_attempt(self, worker: int) -> int:
        """Bump the incarnation for a spawn attempt; returns it."""
        meta = self.meta[worker]
        meta.incarnation += 1
        meta.restarts_total += 1
        return meta.incarnation

    # -- scheduling ------------------------------------------------------
    def due_for_respawn(
        self, worker: int, vclock: int, *, force: bool = False
    ) -> bool:
        meta = self.meta[worker]
        if meta.state == ADMIN_DOWN:
            return False  # operator kill: only restore_worker revives it
        if meta.state not in (DOWN, QUARANTINED):
            return False
        if force:
            meta.failures = 0
            return True
        due = (
            time.monotonic() >= meta.next_attempt_wall
            or vclock >= meta.next_attempt_v
        )
        if due and meta.state == QUARANTINED:
            meta.failures = 0  # cooldown served: fresh budget
            meta.state = DOWN
        return due

    def needs_ping(self, worker: int) -> bool:
        interval = self.policy.ping_interval_s
        if interval is None:
            return False
        meta = self.meta[worker]
        return (
            meta.state == UP
            and time.monotonic() - meta.last_activity >= interval
        )

    # -- reporting -------------------------------------------------------
    @property
    def mttr_seconds(self) -> "float | None":
        if not self.recoveries:
            return None
        vals = [r["mttr_seconds"] for r in self.recoveries]
        return round(sum(vals) / len(vals), 4)

    @property
    def n_quarantines(self) -> int:
        return sum(m.quarantines_total for m in self.meta.values())

    def status(self) -> dict:
        return {
            "workers": {
                str(w): m.as_status() for w, m in sorted(self.meta.items())
            },
            "auto_recoveries": len(self.recoveries),
            "quarantines": self.n_quarantines,
            "mttr_seconds": self.mttr_seconds,
        }
