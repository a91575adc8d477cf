"""The gateway front door: one daemon multiplexing a fleet of shards.

Two layers (ISSUE 8 tentpole):

* :class:`ShardPool` -- the transport: spawns ``python -m
  repro.gateway.worker`` processes (process-per-core), routes shard-tagged
  JSONL commands over binary pipes with bounded pipelining (responses are
  matched positionally per worker -- workers answer strictly in order),
  keeps a per-shard write-ahead log of every forwarded mutation since the
  last acknowledged checkpoint, and implements snapshot-under-load, kill
  and bit-identical restore (checkpoint + WAL replay through the very same
  command path).
* :class:`Gateway` -- the tenant-facing policy layer on top: deterministic
  ``tenant -> shard -> org`` routing from the content-hashed
  :class:`~repro.gateway.config.GatewayConfig`, admission control and
  per-org token-bucket rate/credit accounting at ingest
  (:mod:`repro.gateway.admission`; typed in-band errors, never a crash),
  aggregate status/observability, and ingest-latency accounting.

Recovery contract: after ``kill_worker(w)`` (SIGKILL, no warning), the
sequence *respawn from the last checkpoint* + *replay the per-shard WAL*
reconstructs every shard bit-identically -- checkpoints restore through
the event-sourced journal (verified digests), and the WAL replays the
exact forwarded commands in their original per-shard order through the
same deterministic ingest path.  Commands the dead worker had already
applied after the checkpoint are *not* double-applied: the respawned
worker starts from the checkpoint state, which predates them.

Self-healing (ISSUE 10 tentpole): the pool embeds a
:class:`~repro.gateway.supervisor.Supervisor`.  Worker failures --
pipe errors, EOF, response deadlines, protocol desyncs -- are *detected*
at the next I/O instead of raised at the caller; the failed worker is
marked ``down``, its shards' mutating commands **park** (append to the
WAL without being forwarded, acked ``{"ok": true, "parked": true}``) up
to a bounded buffer, and :meth:`ShardPool.tick` respawns it after a
capped-exponential backoff, replaying checkpoint + WAL so the heal is
invisible in the digests.  Crash-looping workers are quarantined:
submits to their shards are refused in-band with ``shard_unavailable``
(never charged by admission) until the cooldown expires.  Explicit
:meth:`ShardPool.kill_worker` is an *operator* action (``admin_down``):
never auto-respawned, exactly the pre-supervisor semantics.  DESIGN.md
§13 specifies the fault model and state machine.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..service.snapshot import check_snapshot, load_snapshot
from .admission import AdmissionController, AdmissionError
from .config import GatewayConfig
from .faults import FaultPlan
from .supervisor import (
    ADMIN_DOWN,
    DOWN,
    QUARANTINED,
    UP,
    ShardUnavailable,
    Supervisor,
    SupervisorPolicy,
)
from .wal import ShardWal, load_wal, wal_path
from .worker import shard_snapshot_path

__all__ = [
    "Gateway",
    "ShardPool",
    "GatewayError",
    "WorkerDied",
    "ShardUnavailable",
    "gateway_serve_loop",
]

#: Ingest round-trip samples kept for :meth:`Gateway.latency_percentiles`
#: (a sliding window: the newest this many).
LATENCY_WINDOW = 10_000

#: Ops the WAL must capture: everything that mutates shard state.  Pure
#: observations (status, inline snapshot) replay to nothing and are not
#: logged.
MUTATING_OPS = frozenset(
    {
        "submit",
        "advance",
        "drain",
        "join",
        "leave",
        "add_machines",
        "remove_machines",
    }
)


class GatewayError(RuntimeError):
    """A transport-level gateway failure (not an in-band command error)."""


class WorkerDied(GatewayError):
    """A worker process exited while responses were still expected."""


@dataclass
class _Pending:
    """One in-flight request awaiting its (positional) response.

    ``sent_at`` is stamped when the request's bytes leave in a frame, not
    when it is enqueued: the response deadline measures the worker, and a
    command still waiting in the tx buffer is not the worker's fault.
    """

    req_id: int
    shard: "int | None"
    op: str
    sent_at: "float | None" = None
    callback: "Callable[[dict], None] | None" = None


class _WorkerHandle:
    """One spawned worker: binary pipes, frame coalescing, rx line
    splitting.

    A *frame* is every command enqueued since the last :meth:`flush`,
    written to the worker's stdin in one syscall.  Commands only leave
    when someone is about to block on their answers (:meth:`settle_one`)
    or the pool reaches one of its other flush points.
    """

    HANDSHAKE_TIMEOUT_S = 60.0

    def __init__(
        self,
        worker_id: int,
        manifest: dict,
        env: "dict[str, str]",
        counters: "dict[str, int]",
    ) -> None:
        self.worker_id = worker_id
        self.on_settle: "Callable[[], None] | None" = None
        #: ``tx_writes`` / ``tx_commands`` / ``rx_reads``; owned by the
        #: pool so the totals survive a respawn
        self.counters = counters
        # -c instead of -m: the latter warns when repro.gateway is already
        # imported as a package before runpy executes the submodule
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.gateway.worker import worker_main; "
                "raise SystemExit(worker_main())",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # inherit: worker tracebacks stay visible
            env=env,
        )
        self.pending: "deque[_Pending]" = deque()
        self.dead = False
        self._rx = bytearray()
        self._rx_lines: "deque[str]" = deque()
        self._tx: "list[bytes]" = []
        self._unsent: "list[_Pending]" = []
        self.hello = self._handshake(manifest)

    # -- low-level I/O --------------------------------------------------
    def _handshake(self, manifest: dict) -> dict:
        self._tx.append(json.dumps(manifest).encode("utf-8") + b"\n")
        self.flush()
        resp = self._read_response(timeout=self.HANDSHAKE_TIMEOUT_S)
        if resp is None or not resp.get("ok"):
            raise WorkerDied(
                f"worker {self.worker_id} failed to start: {resp!r}"
            )
        return resp

    def send(self, pending: _Pending, payload: dict) -> None:
        """Enqueue one request into the current frame (no I/O)."""
        self.pending.append(pending)
        self._unsent.append(pending)
        self._tx.append(json.dumps(payload).encode("utf-8") + b"\n")

    @property
    def has_unsent(self) -> bool:
        return bool(self._tx)

    def flush(self) -> None:
        """Write the buffered frame in one syscall and start its
        commands' response deadlines."""
        if not self._tx:
            return
        data = b"".join(self._tx)
        self._tx.clear()
        unsent, self._unsent = self._unsent, []
        try:
            self.proc.stdin.write(data)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self.dead = True
            raise WorkerDied(
                f"worker {self.worker_id} pipe closed: {exc}"
            ) from exc
        self.counters["tx_writes"] += 1
        self.counters["tx_commands"] += len(unsent)
        now = time.perf_counter()
        for p in unsent:
            p.sent_at = now

    def _fill_rx(self, timeout: "float | None") -> bool:
        """Read once from the worker's stdout; False on timeout/EOF."""
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            return False
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            self.dead = True
            return False
        self.counters["rx_reads"] += 1
        self._rx.extend(chunk)
        while True:
            nl = self._rx.find(b"\n")
            if nl < 0:
                break
            self._rx_lines.append(
                self._rx[:nl].decode("utf-8", errors="replace")
            )
            del self._rx[: nl + 1]
        return True

    def _read_response(self, timeout: "float | None") -> "dict | None":
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._rx_lines:
            if self.dead:
                return None
            left = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            # False == timeout elapsed or EOF; either way nothing more to
            # wait for within this call's budget
            if not self._fill_rx(left):
                return None
        return json.loads(self._rx_lines.popleft())

    # -- response accounting --------------------------------------------
    def settle_one(self, timeout: "float | None" = None) -> "dict | None":
        """Match the oldest pending request with the next response."""
        if not self.pending:
            return None
        self.flush()  # flush before you block
        resp = self._read_response(timeout)
        if resp is None:
            if self.dead:
                raise WorkerDied(
                    f"worker {self.worker_id} died with "
                    f"{len(self.pending)} responses outstanding"
                )
            return None
        p = self.pending.popleft()
        got = resp.get("id")
        if got is not None and got != p.req_id:
            raise GatewayError(
                f"worker {self.worker_id}: response id {got} does not "
                f"match pending request {p.req_id} (protocol desync)"
            )
        if p.callback is not None:
            p.callback(resp)
        if self.on_settle is not None:
            self.on_settle()
        return resp

    def settle_available(self) -> int:
        """Consume already-arrived responses without waiting."""
        n = 0
        while self.pending and (self._rx_lines or self._peek_readable()):
            if self.settle_one(timeout=0) is None:
                break
            n += 1
        return n

    def _peek_readable(self) -> bool:
        if self.dead:
            return False
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], 0)
        return bool(ready)

    # -- lifecycle -------------------------------------------------------
    def kill(self) -> int:
        """SIGKILL the process; returns the number of lost responses."""
        lost = len(self.pending)
        self.pending.clear()
        self._tx.clear()
        self._unsent.clear()
        self._rx.clear()
        self._rx_lines.clear()
        self.dead = True
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        return lost

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety
                self.proc.kill()
                self.proc.wait()
        self.dead = True


class ShardPool:
    """Process-per-core workers, each owning the shards routed to it.

    The pool is the deterministic transport under :class:`Gateway`; it
    knows nothing about tenants.  Shard commands pipeline (bounded by
    ``max_inflight`` per worker); mutating commands are write-ahead
    logged per shard until the next acknowledged checkpoint, which is
    what makes :meth:`restore_worker` exact.

    One rule moves bytes, *flush before you block*: a pipelined command
    only joins its worker's current frame, and frames leave when the
    caller waits for an answer (``wait=True``, :meth:`barrier`,
    :meth:`worker_cmd`), when a worker's window of unanswered commands
    reaches ``max_inflight``, on the supervisor :meth:`tick`, and on
    :meth:`flush` (the serve loop, before it blocks for input).
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
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.config = config
        self.snapshot_dir = (
            None if snapshot_dir is None else Path(snapshot_dir)
        )
        self.max_inflight = max_inflight
        self.workers: "dict[int, _WorkerHandle]" = {}
        self.wal: "dict[int, list[dict]]" = {
            s: [] for s in config.shard_ids()
        }
        self.checkpointed: "set[int]" = set()
        self.latencies_s: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        #: worker -> pipe I/O counters (see :meth:`transport_status`)
        self.transport: "dict[int, dict[str, int]]" = {}
        self.lost_responses = 0
        self.restores = 0
        self._next_id = 0
        # -- self-healing state (ISSUE 10) ------------------------------
        self.supervisor = Supervisor(supervisor)
        self.fault_plan = fault_plan
        #: Virtual gateway clock, fed by Gateway.advance/drain; the
        #: deterministic leg of the supervisor's backoff deadlines.
        self.vclock = 0
        self.parked: "dict[int, int]" = {}  # shard -> parked submits
        self.parked_total = 0
        self.lost_inflight: "dict[int, list[dict]]" = {}
        self.checkpoint_meta: "dict[int, dict]" = {}
        self.dwal: "dict[int, ShardWal]" = {}
        self.faults_armed = 0
        self.wal_tears = 0
        self.wal_torn_repairs = 0
        self.pings_sent = 0
        self._degraded = False
        self._tick_at = 0.0

    # -- spawn -----------------------------------------------------------
    @staticmethod
    def _worker_env() -> "dict[str, str]":
        import repro

        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else pkg_root + os.pathsep + existing
        )
        return env

    def _manifest(
        self,
        worker: int,
        restore: "dict[str, str]",
        incarnation: int = 0,
    ) -> dict:
        cfg = self.config
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.manifest_entry(worker, incarnation)
            if fault is not None:
                self.faults_armed += 1
        return {
            "worker": worker,
            "shards": {
                str(s): {
                    "machine_counts": list(cfg.shard_machine_counts(s)),
                    "policy": cfg.policy,
                    "seed": cfg.shard_seed(s),
                    "horizon": cfg.horizon,
                }
                for s in cfg.worker_shards(worker)
            },
            "restore": restore,
            "snapshot_dir": (
                None if self.snapshot_dir is None else str(self.snapshot_dir)
            ),
            "fault": fault,
        }

    def _spawn(self, worker: int, incarnation: int) -> None:
        """(Re)create one worker process, restoring checkpointed shards."""
        restore = {}
        if self.snapshot_dir is not None:
            for s in self.config.worker_shards(worker):
                if s in self.checkpointed:
                    path = shard_snapshot_path(self.snapshot_dir, s)
                    if path.exists():
                        restore[str(s)] = str(path)
        handle = _WorkerHandle(
            worker,
            self._manifest(worker, restore, incarnation),
            self._worker_env(),
            self.transport.setdefault(
                worker, {"tx_writes": 0, "tx_commands": 0, "rx_reads": 0}
            ),
        )
        handle.on_settle = lambda w=worker: self.supervisor.on_settled(w)
        self.workers[worker] = handle

    def start(self) -> "ShardPool":
        if self.snapshot_dir is not None:
            for s in self.config.shard_ids():
                # a fresh fleet starts a fresh durable history (resume
                # goes through resume_from_disk instead)
                self.dwal[s] = ShardWal.create(
                    self.snapshot_dir, s, truncate=True
                )
        for w in range(self.config.n_workers):
            if not self.config.worker_shards(w):
                continue  # fewer populated shards than workers
            self.supervisor.register(w)
            self._spawn(w, 0)
        return self

    def resume_from_disk(self) -> "dict[int, int]":
        """Rebuild the whole fleet from durable state (checkpoints plus
        WAL replay) after the *gateway process itself* died.

        Per shard: decode the durable WAL (torn tails tolerated), trust
        the on-disk checkpoint only when this build's ``check_snapshot``
        accepts it *and* a fsynced WAL marker matches its content hash
        (otherwise replay in full from genesis: the WAL is append-only
        and complete), and replay the suffix through the normal spawn
        path.  Returns ``shard -> replayed command count``.
        """
        if self.snapshot_dir is None:
            raise GatewayError("resume_from_disk needs a snapshot_dir")
        if self.workers:
            raise GatewayError("resume_from_disk replaces start()")
        replayed = {}
        for s in self.config.shard_ids():
            image = load_wal(wal_path(self.snapshot_dir, s))
            ckpt_hash = None
            path = shard_snapshot_path(self.snapshot_dir, s)
            if path.exists():
                try:
                    payload = load_snapshot(path)
                    check_snapshot(payload)
                    ckpt_hash = payload["content_hash"]
                except (ValueError, OSError):
                    pass  # unreadable or refused: fall back to genesis
            matched = ckpt_hash is not None and any(
                h == ckpt_hash for h, _ in image.markers
            )
            floor = image.replay_floor(ckpt_hash) if matched else 0
            if matched:
                self.checkpointed.add(s)
                self.checkpoint_meta[s] = {
                    "path": str(path),
                    "content_hash": ckpt_hash,
                }
            self.wal[s] = [dict(c) for c in image.commands[floor:]]
            replayed[s] = len(self.wal[s])
            if image.torn:
                self.wal_torn_repairs += 1
            self.dwal[s] = ShardWal.attach(
                self.snapshot_dir, s, next_seq=len(image.commands)
            )
        for w in range(self.config.n_workers):
            if not self.config.worker_shards(w):
                continue
            self.supervisor.register(w)
            self._spawn(w, 0)
            self._replay(w)
        return replayed

    @property
    def n_live_workers(self) -> int:
        return sum(1 for h in self.workers.values() if not h.dead)

    def _handle_for_shard(self, shard: int) -> _WorkerHandle:
        from .routing import worker_of

        w = worker_of(shard, self.config.n_workers)
        try:
            handle = self.workers[w]
        except KeyError:
            raise GatewayError(f"no worker owns shard {shard}") from None
        if handle.dead:
            raise WorkerDied(
                f"worker {w} (shard {shard}) is dead; restore_worker({w}) "
                f"first"
            )
        return handle

    # -- failure detection / healing (the woven-in supervisor loop) ------
    def _capture_lost(self, worker: int, handle: _WorkerHandle) -> None:
        """Record in-flight requests about to be lost (status surfacing)."""
        if handle.pending:
            self.lost_inflight.setdefault(worker, []).extend(
                {"shard": p.shard, "op": p.op, "id": p.req_id}
                for p in handle.pending
            )

    def _maybe_tear_wal(self, worker: int, incarnation: int) -> None:
        """Pool-side companion fault: leave a torn tail on the first
        owned shard's durable WAL, as a crash mid-append would."""
        if self.fault_plan is None or not self.fault_plan.tears_wal(
            worker, incarnation
        ):
            return
        for s in self.config.worker_shards(worker):
            dw = self.dwal.get(s)
            if dw is not None:
                dw.tear_tail()
                self.wal_tears += 1
            break

    def _worker_failed(self, worker: int, reason: str) -> str:
        """Detection sink: kill the handle, account lost in-flight, hand
        the failure to the supervisor.  Returns the new state."""
        if self.supervisor.state(worker) != UP:
            return self.supervisor.state(worker)  # already being handled
        incarnation = self.supervisor.meta[worker].incarnation
        handle = self.workers.get(worker)
        if handle is not None:
            self._capture_lost(worker, handle)
            self.lost_responses += handle.kill()
        state = self.supervisor.on_failure(worker, reason, self.vclock)
        self._maybe_tear_wal(worker, incarnation)
        self._degraded = True
        return state

    def _replay(self, worker: int) -> "dict[int, int]":
        """Replay the per-shard WAL into a freshly spawned worker, raw
        (bypasses park checks -- the worker is mid-heal).  Raises
        :class:`WorkerDied` if it dies or stalls during replay."""
        handle = self.workers[worker]
        replayed = {}
        for s in self.config.worker_shards(worker):
            for cmd in self.wal[s]:
                self._next_id += 1
                handle.send(
                    _Pending(self._next_id, s, cmd.get("op", "?")),
                    {"id": self._next_id, "shard": s, **cmd},
                )
                if len(handle.pending) >= self.max_inflight:
                    self._settle_down_to(
                        handle, self.max_inflight // 2, "during WAL replay"
                    )
            replayed[s] = len(self.wal[s])
        self._settle_down_to(handle, 0, "during WAL replay")
        return replayed

    def _settle_down_to(
        self, handle: _WorkerHandle, keep: int, when: str
    ) -> None:
        """Flush and wait (heartbeat-bounded per response) until at most
        ``keep`` requests are unanswered.  A full window settles down to
        half, not by one: the room made is the size of the next frame.
        *Every* worker's frame leaves first: while the pool blocks on
        this worker the others must be working, not waiting for bytes
        that sit in the front door."""
        self.flush()
        if handle.dead:
            raise WorkerDied(f"worker {handle.worker_id} died {when}")
        hb = self.supervisor.policy.heartbeat_timeout_s
        while len(handle.pending) > keep:
            if handle.settle_one(timeout=hb) is None:
                raise WorkerDied(
                    f"worker {handle.worker_id} heartbeat timeout "
                    f"({hb:g}s) {when} with {len(handle.pending)} pending"
                )

    def _respawn(self, worker: int) -> bool:
        """One automatic recovery attempt: spawn a new incarnation from
        the last checkpoint and replay the WAL.  On failure (including a
        fault injected into the replay itself) the supervisor schedules
        the next attempt; True only when the worker healed."""
        incarnation = self.supervisor.on_respawn_attempt(worker)
        try:
            self._spawn(worker, incarnation)
            self._replay(worker)
        except (GatewayError, OSError) as exc:
            handle = self.workers.get(worker)
            if handle is not None:
                self._capture_lost(worker, handle)
                self.lost_responses += handle.kill()
            self.supervisor.on_failure(
                worker, f"recovery attempt failed: {exc}", self.vclock
            )
            self._maybe_tear_wal(worker, incarnation)
            return False
        self.supervisor.on_healed(worker)
        for s in self.config.worker_shards(worker):
            self.parked[s] = 0
        return True

    def tick(self) -> None:
        """One supervisor pass: send buffered frames, deadline checks,
        idle pings, due respawns.

        Called from every command path (and the serve loop's idle path);
        throttled to a few-ms cadence when the fleet is healthy so the
        hot ingest path pays ~nothing.
        """
        now = time.monotonic()
        if not self._degraded and now < self._tick_at:
            return
        self._tick_at = now + 0.005
        degraded = False
        for w in list(self.workers):
            meta = self.supervisor.meta.get(w)
            if meta is None:
                continue
            if meta.state == UP:
                handle = self.workers[w]
                if not handle.pending and self.supervisor.needs_ping(w):
                    self._enqueue_ping(w)
                if not handle.pending:
                    continue
                # send the frame, then settle everything already readable
                # BEFORE judging the deadline: while the gateway was busy
                # elsewhere (e.g. replaying another worker's WAL) this
                # worker may have answered long ago -- aging unread
                # responses must not read as a stall.  The deadline runs
                # from the flush that carried the oldest request, so a
                # caller's pause between enqueue and flush is not charged
                # to the worker.
                try:
                    handle.flush()
                    handle.settle_available()
                except (WorkerDied, GatewayError) as exc:
                    self._worker_failed(w, str(exc))
                    degraded = True
                    continue
                if handle.pending:
                    age = time.perf_counter() - handle.pending[0].sent_at
                    hb = self.supervisor.policy.heartbeat_timeout_s
                    if age >= hb:
                        self._worker_failed(
                            w,
                            f"response deadline exceeded ({age:.2f}s > "
                            f"heartbeat {hb:g}s)",
                        )
                        degraded = True
            elif meta.state == ADMIN_DOWN:
                continue  # operator kill: manual restore only
            elif self.supervisor.due_for_respawn(w, self.vclock):
                if not self._respawn(w):
                    degraded = True
            else:
                degraded = True
        self._degraded = degraded

    def _enqueue_ping(self, worker: int) -> None:
        """Probe an idle worker so silent death is noticed without
        traffic (the calling :meth:`tick` flushes it); the pong settles
        with normal positional matching."""
        self._next_id += 1
        self.workers[worker].send(
            _Pending(self._next_id, None, "ping"),
            {"id": self._next_id, "op": "ping"},
        )
        self.pings_sent += 1
        # don't re-ping while this probe is outstanding
        self.supervisor.meta[worker].last_activity = time.monotonic()

    def _drain_handle(self, worker: int) -> bool:
        """Settle everything pending on one worker under the heartbeat
        deadline; False (never an exception) when the worker failed."""
        try:
            self._settle_down_to(self.workers[worker], 0, "at a barrier")
        except (WorkerDied, GatewayError) as exc:
            self._worker_failed(worker, str(exc))
            return False
        return True

    def flush(self) -> None:
        """Send every worker's buffered frame now.  For a caller about
        to block on something other than the workers (the serve loop
        waiting for input): nothing it enqueued may sit unsent while it
        sleeps.  A worker found dead is handed to the supervisor."""
        for w, handle in self.workers.items():
            try:
                handle.flush()
            except WorkerDied as exc:
                self._worker_failed(w, str(exc))

    def heal_shard(self, shard: int, timeout_s: float = 30.0) -> None:
        """Block (bounded) until the worker owning ``shard`` is up,
        driving due respawns; used by drain-style barriers that must not
        proceed over a hole in the fleet."""
        from .routing import worker_of

        w = worker_of(shard, self.config.n_workers)
        deadline = time.monotonic() + timeout_s
        while True:
            state = self.supervisor.state(w)
            if state == UP:
                return
            if state == ADMIN_DOWN:
                raise WorkerDied(
                    f"worker {w} (shard {shard}) was killed by the "
                    f"operator; restore_worker({w}) first"
                )
            self.tick()
            if self.supervisor.state(w) == UP:
                return
            if time.monotonic() >= deadline:
                raise GatewayError(
                    f"shard {shard} (worker {w}) failed to heal within "
                    f"{timeout_s:g}s (state {self.supervisor.state(w)})"
                )
            time.sleep(0.005)

    def ensure_all_up(self, timeout_s: float = 60.0) -> None:
        """Heal every auto-downed worker (bounded wait); admin-downed
        workers are the operator's business and are left alone."""
        deadline = time.monotonic() + timeout_s
        while True:
            self.tick()
            bad = [
                w
                for w, m in self.supervisor.meta.items()
                if m.state in (DOWN, QUARANTINED)
            ]
            if not bad:
                return
            if time.monotonic() >= deadline:
                raise GatewayError(
                    f"workers {bad} failed to heal within {timeout_s:g}s"
                )
            time.sleep(0.005)

    def shard_state(self, shard: int) -> str:
        from .routing import worker_of

        return self.supervisor.state(
            worker_of(shard, self.config.n_workers)
        )

    def submit_refusal(self, shard: int) -> "str | None":
        """Why a submit to ``shard`` would be refused right now (None
        when it would be forwarded or parked).  Ticks first, so the
        answer reflects any respawn that just became due -- and so the
        gateway can check health *before* charging admission."""
        self.tick()
        state = self.shard_state(shard)
        if state == QUARANTINED:
            return (
                f"shard {shard} unavailable: its worker crash-looped and "
                f"is quarantined"
            )
        limit = self.supervisor.policy.park_limit
        if state == DOWN and self.parked.get(shard, 0) >= limit:
            return (
                f"shard {shard} unavailable: park buffer full "
                f"({limit} submits) while its worker is down"
            )
        return None

    def _log_cmd(self, shard: int, cmd: dict) -> None:
        """Write-ahead: in-memory WAL always, durable WAL when enabled --
        both *before* the command is forwarded (or parked)."""
        self.wal[shard].append(dict(cmd))
        dw = self.dwal.get(shard)
        if dw is not None:
            dw.append(cmd)

    def _park(
        self,
        shard: int,
        worker: int,
        cmd: dict,
        state: str,
        callback: "Callable[[dict], None] | None",
        log: bool,
    ) -> dict:
        """Graceful degradation for a down shard: mutating commands park
        (WAL-only; replayed in order on heal), observations and
        over-budget submits are refused with a typed error."""
        op = cmd.get("op", "?")
        if op not in MUTATING_OPS:
            raise ShardUnavailable(
                shard,
                state,
                f"shard {shard} (worker {worker}) is {state}",
            )
        if op == "submit":
            refusal = self.submit_refusal(shard)
            if refusal is not None:
                raise ShardUnavailable(shard, state, refusal)
            self.parked[shard] = self.parked.get(shard, 0) + 1
            self.parked_total += 1
        if log:
            self._log_cmd(shard, cmd)
        resp = {"ok": True, "shard": shard, "op": op, "parked": True}
        if callback is not None:
            callback(resp)
        return resp

    # -- command dispatch ------------------------------------------------
    def shard_cmd(
        self,
        shard: int,
        cmd: dict,
        *,
        wait: bool = False,
        track_latency: bool = False,
        callback: "Callable[[dict], None] | None" = None,
        log: bool = True,
    ) -> "dict | None":
        """Send one shard-tagged command; pipeline unless ``wait``.

        Pipelined, the command is WAL-logged and joins its worker's
        current frame -- no I/O on the pipe; ``wait`` flushes and blocks
        for the answer, and a window that reaches ``max_inflight``
        flushes and settles down to half before returning.

        A command to a shard whose worker is auto-down parks or is
        refused (:meth:`_park`); a worker failure detected mid-send
        parks the command too (it is already in the WAL) instead of
        surfacing a transport error to the tenant.
        """
        from .routing import worker_of

        self.tick()
        w = worker_of(shard, self.config.n_workers)
        op = cmd.get("op", "?")
        mutating = op in MUTATING_OPS
        state = self.supervisor.state(w)
        if state in (DOWN, QUARANTINED):
            # returned for non-wait callers too: a parked ack is useful
            # ("parked": true) where the normal pipeline path has nothing
            return self._park(shard, w, cmd, state, callback, log)
        handle = self._handle_for_shard(shard)  # admin_down raises here
        self._next_id += 1
        payload = {"id": self._next_id, "shard": shard, **cmd}
        if log and mutating:
            self._log_cmd(shard, cmd)
        cb = self._wrap_latency(callback) if track_latency else callback
        captured: "list[dict]" = []
        if wait:
            inner = cb

            def cb(resp: dict, _inner=inner) -> None:
                captured.append(resp)
                if _inner is not None:
                    _inner(resp)

        handle.send(_Pending(self._next_id, shard, op, callback=cb), payload)
        if wait:
            drained = self._drain_handle(w)
            if captured:
                return captured[0]
            if drained:
                raise GatewayError("response stream ended unexpectedly")
            # the worker failed before our response arrived
            if mutating and log:
                return {"ok": True, "shard": shard, "op": op, "parked": True}
            raise ShardUnavailable(
                shard,
                self.supervisor.state(w),
                f"worker {w} failed mid-command ({op})",
            )
        if len(handle.pending) >= self.max_inflight:
            try:
                self._settle_down_to(
                    handle, self.max_inflight // 2, "under backpressure"
                )
            except (WorkerDied, GatewayError) as exc:
                self._worker_failed(w, str(exc))
                if not (mutating and log):
                    raise ShardUnavailable(
                        shard, self.supervisor.state(w), str(exc)
                    ) from exc
        return None

    def _wrap_latency(
        self, callback: "Callable[[dict], None] | None"
    ) -> "Callable[[dict], None]":
        sent = time.perf_counter()

        def cb(resp: dict) -> None:
            self.latencies_s.append(time.perf_counter() - sent)
            if callback is not None:
                callback(resp)

        return cb

    def worker_cmd(self, worker: int, cmd: dict) -> dict:
        """A synchronous worker-level op (status / snapshot / shutdown).

        Bounded by the heartbeat deadline; raises :class:`WorkerDied` on
        death or stall (callers on the supervised path catch and report
        through :meth:`_worker_failed`).
        """
        handle = self.workers[worker]
        hb = self.supervisor.policy.heartbeat_timeout_s
        # worker-level ops are barriers on that worker (raises on a dead one)
        self._settle_down_to(handle, 0, "before a worker op")
        self._next_id += 1
        handle.send(
            _Pending(self._next_id, None, cmd.get("op", "?")),
            {"id": self._next_id, **cmd},
        )
        resp = handle.settle_one(timeout=hb)
        if resp is None:
            raise WorkerDied(
                f"worker {worker} gave no response (heartbeat {hb:g}s)"
            )
        return resp

    def call(self, shard: int, cmd: dict, **kwargs) -> dict:
        resp = self.shard_cmd(shard, cmd, wait=True, **kwargs)
        assert resp is not None
        return resp

    def barrier(self) -> None:
        """Flush and settle every in-flight request on every up worker.

        A worker that fails during the barrier is marked down (its
        commands are in the WAL) instead of failing the fleet.
        """
        self.tick()
        for w, handle in self.workers.items():
            if not handle.dead and self.supervisor.state(w) == UP:
                self._drain_handle(w)

    # -- observation -----------------------------------------------------
    def statuses(self) -> "dict[int, dict]":
        """Shard id -> ``ClusterService.status()`` dict, fleet-wide.

        Shards whose worker is down are simply absent -- status is an
        observation and must not block on a heal.
        """
        self.barrier()
        out: "dict[int, dict]" = {}
        for w, handle in sorted(self.workers.items()):
            if handle.dead or self.supervisor.state(w) != UP:
                continue
            try:
                resp = self.worker_cmd(w, {"op": "worker_status"})
            except (WorkerDied, GatewayError) as exc:
                self._worker_failed(w, str(exc))
                continue
            for sid, status in resp["shards"].items():
                out[int(sid)] = status
        return out

    def shard_digests(self) -> "dict[int, str]":
        """Schedule digest per shard (inline snapshot; not a checkpoint).

        Heals any auto-downed worker first: a digest over a hole in the
        fleet would silently exclude that shard's schedule.
        """
        self.ensure_all_up()
        self.barrier()
        out = {}
        for s in self.config.shard_ids():
            resp = self.call(s, {"op": "snapshot"}, log=False)
            if not resp.get("ok"):
                raise GatewayError(f"shard {s} snapshot failed: {resp}")
            out[s] = resp["snapshot"]["schedule_digest"]
        return out

    # -- checkpoint / crash / restore ------------------------------------
    def snapshot_all(self) -> "dict[int, dict]":
        """Checkpoint every shard to ``snapshot_dir`` (snapshot-under-load:
        callable at any point of the stream); acknowledges the WAL.

        Degradation-aware: auto-downed workers are skipped (their shards
        keep their WAL and checkpoint on heal), and a shard whose
        checkpoint write failed (e.g. an injected torn write) keeps its
        previous checkpoint and full WAL -- the entry comes back with an
        ``"error"`` key instead of checkpoint metadata.  An explicitly
        killed (admin-down) worker is still a hard error.
        """
        if self.snapshot_dir is None:
            raise GatewayError("snapshot_all needs a snapshot_dir")
        self.barrier()
        out: "dict[int, dict]" = {}
        acked: "list[int]" = []
        for w, handle in sorted(self.workers.items()):
            state = self.supervisor.state(w)
            if state == ADMIN_DOWN or (handle.dead and state == UP):
                raise WorkerDied(
                    f"worker {w} is dead; restore it before checkpointing"
                )
            if state != UP:
                continue  # parked shards checkpoint after they heal
            try:
                resp = self.worker_cmd(
                    w,
                    {"op": "snapshot_shards", "dir": str(self.snapshot_dir)},
                )
            except (WorkerDied, GatewayError) as exc:
                self._worker_failed(w, str(exc))
                continue
            if not resp.get("ok"):
                raise GatewayError(f"worker {w} snapshot failed: {resp}")
            for sid, info in resp["snapshots"].items():
                out[int(sid)] = info
                if "error" not in info:
                    acked.append(int(sid))
        # every command up to the barrier is inside the acked
        # checkpoints; those shards' WALs restart empty from here --
        # failed/skipped shards keep checkpoint and WAL unchanged
        for s in acked:
            self.wal[s] = []
            self.checkpointed.add(s)
            self.checkpoint_meta[s] = out[s]
            dw = self.dwal.get(s)
            if dw is not None:
                dw.mark_checkpoint(out[s]["content_hash"])
        return out

    def kill_worker(self, worker: int) -> int:
        """SIGKILL a worker mid-stream (an *operator* action: the
        supervisor marks it ``admin_down`` and will not auto-respawn it);
        returns lost in-flight responses."""
        handle = self.workers[worker]
        self._capture_lost(worker, handle)
        lost = handle.kill()
        self.lost_responses += lost
        if worker in self.supervisor.meta:
            self.supervisor.on_failure(
                worker,
                "killed by operator (kill_worker)",
                self.vclock,
                admin=True,
            )
        return lost

    def restore_worker(self, worker: int) -> "dict[int, int]":
        """Manually respawn a dead worker and rebuild its shards
        bit-identically: restore each from its last checkpoint (genesis
        when none exists), then replay the per-shard WAL in original
        order.  Returns ``shard -> replayed command count``."""
        old = self.workers.get(worker)
        if old is not None and not old.dead:
            raise GatewayError(f"worker {worker} is still alive")
        incarnation = (
            self.supervisor.on_respawn_attempt(worker)
            if worker in self.supervisor.meta
            else 0
        )
        self._spawn(worker, incarnation)
        replayed = self._replay(worker)
        if worker in self.supervisor.meta:
            self.supervisor.on_healed(worker, manual=True)
        for s in self.config.worker_shards(worker):
            self.parked[s] = 0
        self.restores += 1
        return replayed

    def supervision_status(self) -> dict:
        """The self-healing block of the aggregate status op."""
        st = self.supervisor.status()
        st["parked"] = {
            str(s): n for s, n in sorted(self.parked.items()) if n
        }
        st["parked_total"] = self.parked_total
        st["lost_inflight"] = {
            str(w): {"count": len(rows), "recent": rows[-3:]}
            for w, rows in sorted(self.lost_inflight.items())
        }
        st["faults_armed"] = self.faults_armed
        st["wal_tears"] = self.wal_tears
        st["pings_sent"] = self.pings_sent
        return st

    def transport_status(self) -> dict:
        """The frame-coalescing block of the aggregate status op: per
        worker, pipe writes (``tx_writes``, spawn manifests included),
        commands they carried (``tx_commands``) and pipe reads
        (``rx_reads``), summed over its incarnations; fleet-wide, durable
        WAL records appended.  ``tx_commands / tx_writes`` is the mean
        frame size."""
        return {
            "workers": {
                str(w): dict(row) for w, row in sorted(self.transport.items())
            },
            "wal_appends": sum(dw.appends for dw in self.dwal.values()),
        }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        for w, handle in sorted(self.workers.items()):
            if handle.dead:
                continue
            try:
                self.worker_cmd(w, {"op": "shutdown"})
            except (GatewayError, OSError):
                pass
            handle.close()
        for dw in self.dwal.values():
            dw.close()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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

        Degradation contract: shard health is checked **before**
        admission charges, so a ``shard_unavailable`` refusal (worker
        quarantined, or down with a full park buffer) never costs the
        tenant tokens or credits, exactly like ``rate_limited``.  A
        submit to a down-but-parkable shard is charged (it *will* apply
        on heal) and acknowledged with ``"parked": true``.
        """
        now = self.clock if release is None else max(release, self.clock)
        if tenant not in self.config.routes:
            try:
                # routes admission's unknown_tenant accounting + error
                self.admission.admit_submit(tenant, size, now)
            except AdmissionError as exc:
                self.n_rejected += 1
                return {
                    "ok": False,
                    "tenant": tenant,
                    "error": str(exc),
                    "code": exc.code,
                }
        shard, org = self.config.routes[tenant]
        refusal = self.pool.submit_refusal(shard)
        if refusal is not None:
            self.n_rejected += 1
            self.admission.refuse(tenant, "shard_unavailable", refusal)
            return {
                "ok": False,
                "tenant": tenant,
                "shard": shard,
                "error": refusal,
                "code": "shard_unavailable",
            }
        try:
            self.admission.admit_submit(tenant, size, now)
        except AdmissionError as exc:
            self.n_rejected += 1
            return {
                "ok": False,
                "tenant": tenant,
                "error": str(exc),
                "code": exc.code,
            }
        cmd: dict = {"op": "submit", "org": org, "size": int(size)}
        if release is not None:
            cmd["release"] = int(release)
        self.n_submitted += 1

        def check(resp: dict) -> None:
            if not resp.get("ok"):
                self.forward_errors.append(
                    {"tenant": tenant, "shard": shard, **resp}
                )

        try:
            resp = self.pool.shard_cmd(
                shard, cmd, wait=wait, track_latency=True, callback=check
            )
        except ShardUnavailable as exc:
            # raced: the shard went unavailable between the health check
            # and the send, and parking wasn't possible -- undo the
            # charge so the refusal stays free, like every other refusal
            self.admission.refund_submit(tenant, size)
            self.n_submitted -= 1
            self.n_rejected += 1
            self.admission.refuse(tenant, "shard_unavailable", str(exc))
            return {
                "ok": False,
                "tenant": tenant,
                "shard": shard,
                "error": str(exc),
                "code": "shard_unavailable",
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
        for s in self.config.shard_ids():
            self.pool.shard_cmd(s, {"op": "advance", "t": t})
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
            resp: "dict | None" = None
            for _ in range(10):
                try:
                    resp = self.pool.call(s, {"op": "drain"})
                except ShardUnavailable:
                    self.pool.heal_shard(s)
                    continue
                if resp.get("parked"):
                    # parked: the WAL holds the drain; heal applies it,
                    # then one more (idempotent) drain reads the clock
                    self.pool.heal_shard(s)
                    continue
                break
            else:
                raise GatewayError(f"shard {s} would not drain (gave up)")
            if not resp.get("ok"):
                return resp
            clocks.append(resp["clock"])
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
        supervision = self.pool.supervision_status()
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
                    resp = gateway.submit(
                        cmd["tenant"],
                        int(cmd.get("size", 1)),
                        release=(
                            int(cmd["release"]) if "release" in cmd else None
                        ),
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
