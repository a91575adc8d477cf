"""Deterministic fault injection: the gateway's chaos harness.

The supervisor's recovery contract ("any crash is invisible in the final
per-shard schedule digest") is only worth something if it survives faults
nobody hand-scripted.  This module makes that a *replayable* property: a
:class:`FaultPlan` is a frozen, seeded value -- two runs with the same
plan inject the same faults at the same per-worker operation counts -- so
``repro loadgen --chaos seed=S,rate=R`` is as deterministic as the clean
path, and a CI failure reproduces locally from the seed alone.

Fault kinds (drawn per *worker incarnation*; every respawned worker is a
fresh incarnation with its own independent draw):

* ``crash``        -- hard ``os._exit`` after ``at_op`` shard commands,
  before the response is written (applied-but-unacked: the nastiest
  ordering, recovered by checkpoint + WAL replay).
* ``crash_late``   -- same, but after the response is flushed.
* ``stall``        -- sleep ``stall_seconds`` before applying the
  ``at_op``-th command: the worker is alive but unresponsive, which only
  the supervisor's response deadline can detect.
* ``drop_response``-- apply the command but never answer: a positional
  protocol desync the pool must detect and treat as a worker failure.
* ``torn_checkpoint`` -- the next ``snapshot_shards`` writes a torn temp
  file for one shard and reports failure: with atomic rename writes the
  previous checkpoint survives, and recovery replays a longer WAL tail.

A plan may also direct the *pool* to tear the final record of a shard's
durable WAL when it observes the crash (``tear_wal``), proving the
torn-tail tolerance of :mod:`repro.gateway.wal` in the live path.

Plans are threaded to workers through the spawn manifest (the pool holds
the plan; each worker receives only its own incarnation's draw), so the
injection layer costs nothing when no plan is set.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field

from .routing import stable_hash

__all__ = ["FaultPlan", "FaultInjector", "WORKER_FAULT_KINDS"]

#: Worker-side fault kinds a seeded draw may select, with draw weights.
WORKER_FAULT_KINDS = (
    ("crash", 0.35),
    ("crash_late", 0.15),
    ("stall", 0.15),
    ("drop_response", 0.15),
    ("torn_checkpoint", 0.20),
)

#: Exit status used by injected hard crashes (mirrors SIGKILL's 128+9 so
#: logs read like a real kill, distinguishable from clean exits).
CRASH_EXIT_STATUS = 137


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of injected faults.

    ``rate`` is the per-operation fault probability used to draw the
    geometric ``at_op`` trigger; incarnations at or beyond
    ``max_fault_incarnations`` draw no faults, so every crash loop
    terminates and the fleet provably heals.  ``script`` overrides the
    seeded draw for specific ``(worker, incarnation)`` pairs -- tests use
    it to force exact failure sequences (e.g. a quarantine) without
    seed-hunting.
    """

    seed: int = 0
    rate: float = 0.01
    max_fault_incarnations: int = 3
    stall_seconds: float = 0.5
    tear_wal_rate: float = 0.5
    script: "tuple[tuple[int, int, tuple[tuple[str, object], ...]], ...]" = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if self.max_fault_incarnations < 0:
            raise ValueError("max_fault_incarnations must be >= 0")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI form ``seed=S,rate=R[,stall=SECONDS,...]``.

        ``script=W.INC.KIND.AT_OP`` entries (joined with ``+``) force
        exact faults on specific worker incarnations -- how CI drives a
        guaranteed quarantine without seed-hunting::

            --chaos rate=0,script=0.0.crash.20+0.1.crash.1+0.2.crash.1
        """
        fields = {
            "seed": int,
            "rate": float,
            "stall": float,
            "max_incarnations": int,
            "tear_wal_rate": float,
            "script": str,
        }
        rename = {"stall": "stall_seconds",
                  "max_incarnations": "max_fault_incarnations"}
        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad --chaos component {part!r} (expected key=value)"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(
                    f"unknown --chaos key {key!r} "
                    f"(known: {', '.join(sorted(fields))})"
                )
            kwargs[rename.get(key, key)] = fields[key](value.strip())
        script_text = kwargs.pop("script", None)
        if script_text:
            entries = {}
            for item in script_text.split("+"):
                try:
                    w, inc, kind, at_op = item.split(".")
                    entries[(int(w), int(inc))] = {
                        "kind": kind,
                        "at_op": int(at_op),
                    }
                except ValueError:
                    raise ValueError(
                        f"bad script entry {item!r} (expected "
                        f"WORKER.INCARNATION.KIND.AT_OP)"
                    ) from None
            kwargs["script"] = tuple(
                (w, inc, tuple(sorted(fault.items())))
                for (w, inc), fault in sorted(entries.items())
            )
        return cls(**kwargs)

    @classmethod
    def scripted(
        cls, entries: "dict[tuple[int, int], dict]", **kwargs
    ) -> "FaultPlan":
        """A plan firing exactly ``entries[(worker, incarnation)]``."""
        script = tuple(
            (w, inc, tuple(sorted(fault.items())))
            for (w, inc), fault in sorted(entries.items())
        )
        kwargs.setdefault("rate", 0.0)
        return cls(script=script, **kwargs)

    def spec(self) -> str:
        """The canonical CLI form (round-trips through :meth:`parse` for
        plans expressible there; extra scripted fields are elided)."""
        text = (
            f"seed={self.seed},rate={self.rate:g},"
            f"stall={self.stall_seconds:g},"
            f"max_incarnations={self.max_fault_incarnations}"
        )
        if self.script:
            entries = []
            for w, inc, items in self.script:
                fault = dict(items)
                entries.append(
                    f"{w}.{inc}.{fault.get('kind')}.{fault.get('at_op', 1)}"
                )
            text += ",script=" + "+".join(entries)
        return text

    # ------------------------------------------------------------------
    # the deterministic draw
    # ------------------------------------------------------------------
    def _rng(self, worker: int, incarnation: int) -> random.Random:
        return random.Random(
            stable_hash(f"faultplan:{self.seed}:{worker}:{incarnation}")
        )

    def fault_for(self, worker: int, incarnation: int) -> "dict | None":
        """The (at most one) fault this worker incarnation will suffer.

        Pure function of ``(plan, worker, incarnation)``: the pool and a
        test can both predict every injection.
        """
        for w, inc, items in self.script:
            if w == worker and inc == incarnation:
                return dict(items)
        if self.rate <= 0.0 or incarnation >= self.max_fault_incarnations:
            return None
        rng = self._rng(worker, incarnation)
        # geometric trigger: P(fault at op n) = rate * (1-rate)^(n-1);
        # a draw past the cap means this incarnation runs clean
        at_op = 1
        while rng.random() >= self.rate:
            at_op += 1
            if at_op > 10_000:
                return None
        kinds = [k for k, _ in WORKER_FAULT_KINDS]
        weights = [p for _, p in WORKER_FAULT_KINDS]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        fault: dict = {"kind": kind, "at_op": at_op}
        if kind == "stall":
            fault["seconds"] = self.stall_seconds
        if kind in ("crash", "crash_late"):
            fault["tear_wal"] = rng.random() < self.tear_wal_rate
        return fault

    def manifest_entry(
        self, worker: int, incarnation: int
    ) -> "dict | None":
        """What the spawn manifest carries to this worker incarnation."""
        fault = self.fault_for(worker, incarnation)
        if fault is None:
            return None
        return {"worker": worker, "incarnation": incarnation, **fault}

    def tears_wal(self, worker: int, incarnation: int) -> bool:
        """Whether the pool should tear the durable WAL tail when it
        detects this incarnation's death (pool-side companion fault)."""
        fault = self.fault_for(worker, incarnation)
        return bool(fault and fault.get("tear_wal"))


@dataclass
class FaultInjector:
    """The worker-side runtime for one incarnation's fault.

    Counts *shard* commands (worker-level ops and pings are free: faults
    model scheduling work, and pings must stay reliable so liveness
    detection itself is never the thing injected against).
    """

    fault: "dict | None"
    op_count: int = 0
    fired: bool = False
    _out: "object | None" = field(default=None, repr=False)

    @classmethod
    def from_manifest(cls, entry: "dict | None") -> "FaultInjector | None":
        if not entry:
            return None
        return cls(fault=dict(entry))

    def bind_output(self, out) -> None:
        """The response stream to flush before a hard exit."""
        self._out = out

    def _armed(self, *kinds: str) -> bool:
        return (
            not self.fired
            and self.fault is not None
            and self.fault.get("kind") in kinds
        )

    def before_apply(self) -> None:
        """Called before each shard command is handled; may not return."""
        self.op_count += 1
        if not self._armed("crash", "stall"):
            return
        if self.op_count < int(self.fault.get("at_op", 1)):
            return
        if self.fault["kind"] == "stall":
            self.fired = True
            time.sleep(float(self.fault.get("seconds", 0.5)))
            return
        self._hard_exit()

    def suppress_response(self) -> bool:
        """True when this command's response must be dropped (applied,
        never answered -- the positional-desync fault)."""
        if not self._armed("drop_response"):
            return False
        if self.op_count < int(self.fault.get("at_op", 1)):
            return False
        self.fired = True
        return True

    def after_reply(self) -> None:
        """Called after a response is written (the worker buffers its
        replies; :meth:`_hard_exit` flushes them first, so the reply
        is delivered before the crash)."""
        if not self._armed("crash_late"):
            return
        if self.op_count < int(self.fault.get("at_op", 1)):
            return
        self._hard_exit()

    def take_torn_checkpoint(self) -> bool:
        """True exactly once when the next checkpoint write must tear."""
        if not self._armed("torn_checkpoint"):
            return False
        self.fired = True
        return True

    def _hard_exit(self) -> None:  # pragma: no cover - exits the process
        self.fired = True
        try:
            if self._out is not None:
                self._out.flush()
            sys.stderr.flush()
        except Exception:
            pass
        os._exit(CRASH_EXIT_STATUS)


def tear_file_tail(path, garbage: bytes = b'{"op": "subm') -> None:
    """Append a torn (newline-less) partial record to ``path`` -- the
    byte pattern a mid-append crash leaves behind.  Used by the pool's
    ``tear_wal`` companion fault and by regression tests."""
    with open(path, "ab") as f:
        f.write(garbage)
        f.flush()
        os.fsync(f.fileno())
