"""The shard pool: worker processes, each owning the shards routed to it.

:class:`ShardPool` is the deterministic layer under the tenant-facing
:class:`~repro.gateway.gateway.Gateway`; it knows nothing about tenants.
It spawns ``repro.gateway.worker`` processes over the pipes of
:mod:`repro.gateway.transport`, sends each shard op as one row of the
pipe grammar (:mod:`repro.gateway.wire`), write-ahead logs every
mutation per shard since the last acknowledged checkpoint, and restores
a dead worker bit-identically: each shard from its last checkpoint, then
its WAL replayed in order through the same ingest path (DESIGN.md §11.5).
Every worker failure ends in one sink, :meth:`ShardPool._fail`, and
every respawn is one recovery attempt, :meth:`ShardPool._recover`
(self-healing, DESIGN.md §13).
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from ..service.state import OP_FIELDS
from .config import GatewayConfig
from .faults import FaultPlan
from .routing import worker_of
from .supervisor import ADMIN_DOWN, DOWN, QUARANTINED, UP
from .supervisor import ShardUnavailable, Supervisor, SupervisorPolicy
from .transport import LATENCY_WINDOW, GatewayError, WorkerDied
from .transport import _Pending, _refused, _WorkerHandle, worker_env
from .wal import ShardWal, load_wal, wal_path
from .wire import body, encode
from .worker import shard_snapshot_path

__all__ = ["ShardPool"]


def _parked(shard: int, op: str) -> dict:
    """The ack of a command parked in the WAL for a down worker."""
    return {"ok": True, "shard": shard, "op": op, "parked": True}


class ShardPool:
    """Process-per-core workers, each owning the shards routed to it.

    One rule moves bytes, *flush before you block*: a pipelined command
    only joins its worker's current frame, and frames leave when the
    caller waits for an answer (``wait=True``, :meth:`barrier`,
    :meth:`worker_cmd`), when a worker's window of unanswered commands
    reaches ``max_inflight``, on the supervisor :meth:`tick`, and on
    :meth:`flush` (the serve loop, before it blocks for input).
    """

    def __init__(
        self, config: GatewayConfig, *,
        snapshot_dir: "str | Path | None" = None, max_inflight: int = 64,
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
        #: shard -> the rows logged since its last checkpoint
        self.wal: "dict[int, list[list]]" = {s: [] for s in config.shard_ids()}
        self.checkpointed: "set[int]" = set()
        self.latencies_s: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        #: worker -> pipe I/O counters (see :meth:`transport_status`)
        self.transport: "dict[int, dict[str, int]]" = {}
        self.lost_responses = 0
        self.restores = 0
        self._next_id = 0
        self.supervisor = Supervisor(supervisor)
        self.fault_plan = fault_plan
        #: Virtual gateway clock, fed by Gateway.advance/drain; the
        #: deterministic leg of the supervisor's backoff deadlines.
        self.vclock = 0
        self.parked: "dict[int, int]" = {}  # shard -> parked submits
        self.parked_total = 0
        #: worker -> ``{"count": requests lost, "recent": the last 3}``
        self.lost_inflight: "dict[int, dict]" = {}
        self.dwal: "dict[int, ShardWal]" = {}
        self.faults_armed = 0
        self.wal_tears = 0
        self.wal_torn_repairs = 0
        self.pings_sent = 0
        self._degraded = False
        self._tick_at = 0.0

    # -- spawn -----------------------------------------------------------
    def _manifest(
        self, worker: int, restore: "dict[str, str]", incarnation: int = 0
    ) -> dict:
        cfg = self.config
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.manifest_entry(worker, incarnation)
            if fault is not None:
                self.faults_armed += 1
        shards = {
            str(s): {"machine_counts": list(cfg.shard_machine_counts(s)),
                     "policy": cfg.policy, "seed": cfg.shard_seed(s),
                     "horizon": cfg.horizon}
            for s in cfg.worker_shards(worker)
        }
        snapshot_dir = self.snapshot_dir and str(self.snapshot_dir)
        return {"worker": worker, "shards": shards, "restore": restore,
                "snapshot_dir": snapshot_dir, "fault": fault}

    def _spawn_all(self, workers: "list[int]", incarnation: int = 0) -> None:
        """(Re)create workers, each restoring its checkpointed shards:
        launch all, then collect every hello, so cold starts overlap.  A
        failed launch or hello kills and reaps all launched here before
        the error propagates: ``self.workers`` holds only hellos."""
        env = worker_env()
        launched: "list[_WorkerHandle]" = []
        try:
            for w in workers:
                restore = {}
                for s in self.config.worker_shards(w):
                    if s in self.checkpointed:  # so snapshot_dir is set
                        path = shard_snapshot_path(self.snapshot_dir, s)
                        if path.exists():
                            restore[str(s)] = str(path)
                counters = self.transport.setdefault(
                    w, {"tx_writes": 0, "tx_commands": 0, "rx_reads": 0}
                )
                launched.append(_WorkerHandle(
                    w, self._manifest(w, restore, incarnation), env,
                    counters, self.latencies_s,
                    deadline_s=self.supervisor.policy.heartbeat_timeout_s,
                    before_block=self.flush,
                    on_settle=partial(self.supervisor.on_settled, w),
                ))
            for handle in launched:
                handle.await_hello()
        except BaseException:
            for handle in launched:
                handle.kill()
            raise
        for handle in launched:
            self.workers[handle.worker_id] = handle

    def _register_workers(self) -> "list[int]":
        """Register every worker that owns a shard with the supervisor
        and return them; a slot with no shard gets no process."""
        cfg = self.config
        workers = [w for w in range(cfg.n_workers) if cfg.worker_shards(w)]
        for w in workers:
            self.supervisor.register(w)
        return workers

    def start(self) -> "ShardPool":
        if self.snapshot_dir is not None:
            for s in self.config.shard_ids():  # a fresh durable history
                self.dwal[s] = ShardWal.create(
                    self.snapshot_dir, s, truncate=True
                )
        self._spawn_all(self._register_workers())
        return self

    def resume_from_disk(self) -> "dict[int, int]":
        """Rebuild the fleet after the *gateway process itself* died: per
        shard its trusted checkpoint (else genesis) plus the durable WAL
        after it.  Returns ``shard -> replayed command count``."""
        if self.snapshot_dir is None:
            raise GatewayError("resume_from_disk needs a snapshot_dir")
        if self.workers:
            raise GatewayError("resume_from_disk replaces start()")
        replayed = {}
        for s in self.config.shard_ids():
            image = load_wal(wal_path(self.snapshot_dir, s))
            ckpt = image.trusted_checkpoint(
                shard_snapshot_path(self.snapshot_dir, s)
            )
            if ckpt is not None:
                self.checkpointed.add(s)
            self.wal[s] = image.commands[image.replay_floor(ckpt):]
            replayed[s] = len(self.wal[s])
            if image.torn:
                self.wal_torn_repairs += 1
            self.dwal[s] = ShardWal.attach(
                self.snapshot_dir, s, next_seq=len(image.commands)
            )
        workers = self._register_workers()
        self._spawn_all(workers)
        for w in workers:
            self._replay(w)
        return replayed

    @property
    def n_live_workers(self) -> int:
        return sum(1 for h in self.workers.values() if not h.dead)

    # -- failure and recovery (the woven-in supervisor loop) -------------
    def _fail(
        self, worker: int, reason: str, *, admin: bool = False,
        attempt: bool = False,
    ) -> int:
        """The failure sink: kill the handle, count the requests it loses
        (keeping the newest three), tell the supervisor and, if the fault
        plan says so, tear the first shard's WAL tail; returns the count.
        A failure seen again while the worker is down is a no-op; a
        failed recovery ``attempt`` and an operator kill are new ones."""
        meta = self.supervisor.meta[worker]
        if meta.state != UP and not (admin or attempt):
            return 0
        handle = self.workers.get(worker)
        lost = [] if handle is None else handle.kill()
        if lost:
            row = self.lost_inflight.setdefault(
                worker, {"count": 0, "recent": deque(maxlen=3)}
            )
            row["count"] += len(lost)
            row["recent"].extend(
                {"shard": p.shard, "op": p.op, "id": p.req_id} for p in lost
            )
        self.lost_responses += len(lost)
        self.supervisor.on_failure(worker, reason, self.vclock, admin=admin)
        plan = self.fault_plan
        if not admin and plan and plan.tears_wal(worker, meta.incarnation):
            for s in self.config.worker_shards(worker)[:1]:
                if s in self.dwal:
                    self.dwal[s].tear_tail()
                    self.wal_tears += 1
        self._degraded = True
        return len(lost)

    def _recover(
        self, worker: int, *, manual: bool = False
    ) -> "dict[int, int] | None":
        """The recovery attempt: spawn a new incarnation, replay the WAL,
        mark the worker healed, clear its park counts; returns ``shard ->
        replayed commands``.  A failed automatic attempt goes to the sink
        (which schedules the next) and returns None; a ``manual`` one
        raises, and counts in ``restores`` when it heals."""
        incarnation = self.supervisor.on_respawn_attempt(worker)
        started = time.monotonic()
        try:
            self._spawn_all([worker], incarnation)
            spawned = time.monotonic()
            replayed = self._replay(worker)
        except (GatewayError, OSError) as exc:
            if manual:
                raise
            self._fail(worker, f"recovery attempt failed: {exc}", attempt=True)
            return None
        self.supervisor.on_healed(
            worker, manual=manual, spawn_s=spawned - started,
            replay_s=time.monotonic() - spawned,
        )
        for s in self.config.worker_shards(worker):
            self.parked[s] = 0
        if manual:
            self.restores += 1
        return replayed

    def _replay(self, worker: int) -> "dict[int, int]":
        """Replay the per-shard WAL into a freshly spawned worker, raw
        (no park checks: the worker is mid-heal); :class:`WorkerDied` if
        it dies or stalls meanwhile."""
        handle = self.workers[worker]
        for s in self.config.worker_shards(worker):
            for row in self.wal[s]:
                self._next_id += 1
                handle.send(
                    _Pending(self._next_id, s, row[0]),
                    b"[%d,%d," % (self._next_id, s) + body(row) + b"\n",
                )
                if len(handle.pending) >= self.max_inflight:
                    handle.settle_down_to(
                        self.max_inflight // 2, "during WAL replay"
                    )
        handle.settle_down_to(0, "during WAL replay")
        return {s: len(self.wal[s]) for s in self.config.worker_shards(worker)}

    def _settle_or_fail(
        self, worker: int, keep: int, when: str
    ) -> "str | None":
        """Settle ``worker`` down to ``keep`` unanswered requests without
        raising: a failure goes to the sink and its reason is returned."""
        try:
            self.workers[worker].settle_down_to(keep, when)
        except GatewayError as exc:
            self._fail(worker, str(exc))
            return str(exc)
        return None

    def tick(self) -> None:
        """One supervisor pass: frames, deadlines, idle pings, due
        respawns.  Run from every command path and the idle serve loop,
        throttled to a few ms while the fleet is healthy."""
        now = time.monotonic()
        if not self._degraded and now < self._tick_at:
            return
        self._tick_at = now + 0.005
        degraded = False
        for w in list(self.workers):
            meta = self.supervisor.meta.get(w)
            if meta is None or meta.state == ADMIN_DOWN:
                continue  # operator kill: manual restore only
            if meta.state == UP:
                handle = self.workers[w]
                if not handle.pending and self.supervisor.needs_ping(w):
                    self._next_id += 1
                    handle.ping(self._next_id)
                    self.pings_sent += 1
                    meta.last_activity = now  # not again while it is out
                failure = handle.poll() if handle.pending else None
                if failure is not None:
                    self._fail(w, failure)
                    degraded = True
            elif not self.supervisor.due_for_respawn(w, self.vclock):
                degraded = True
            elif self._recover(w) is None:
                degraded = True
        self._degraded = degraded

    def flush(self) -> None:
        """Send every worker's buffered frame now (the serve loop, before
        it blocks for input); a worker found dead goes to the sink."""
        for w, handle in self.workers.items():
            try:
                handle.flush()
            except WorkerDied as exc:
                self._fail(w, str(exc))

    def _await_up(
        self, workers: "list[int]", timeout_s: float, what: str
    ) -> None:
        """Tick, driving due respawns, until none of ``workers`` is down
        or quarantined; :class:`GatewayError` after ``timeout_s``."""
        deadline = time.monotonic() + timeout_s
        while True:
            self.tick()
            state = self.supervisor.state
            down = [w for w in workers if state(w) in (DOWN, QUARANTINED)]
            if not down:
                return
            if time.monotonic() >= deadline:
                raise GatewayError(f"{what} failed to heal within "
                                   f"{timeout_s:g}s (workers {down})")
            time.sleep(0.005)

    def heal_shard(self, shard: int, timeout_s: float = 30.0) -> None:
        """Block (bounded) until the worker owning ``shard`` is up; for
        drain-style barriers that must not cross a hole in the fleet."""
        w = worker_of(shard, self.config.n_workers)
        if self.supervisor.state(w) == ADMIN_DOWN:
            raise WorkerDied(f"worker {w} (shard {shard}) was killed by "
                             f"the operator; restore_worker({w}) first")
        self._await_up([w], timeout_s, f"shard {shard}")

    def ensure_all_up(self, timeout_s: float = 60.0) -> None:
        """Heal every auto-downed worker (bounded wait); admin-downed
        workers are the operator's business and are left alone."""
        self._await_up(list(self.supervisor.meta), timeout_s, "the fleet")

    def submit_refusal(self, shard: int) -> "str | None":
        """Why a submit to ``shard`` would be refused right now (None
        when it would be forwarded or parked).  Ticks first, so the
        answer reflects any respawn that just became due -- and so the
        gateway can check health *before* charging admission."""
        self.tick()
        state = self.supervisor.state(worker_of(shard, self.config.n_workers))
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

    # -- command dispatch ------------------------------------------------
    def shard_cmd(
        self, shard: int, row: list, *, wait: bool = False,
        track_latency: bool = False,
        callback: "Callable[[list | dict], None] | None" = None,
        log: bool = True,
    ) -> "list | dict | None":
        """Send one shard op, a row of the pipe grammar, after the caller
        ticked.  Pipelined (unless ``wait``) a row is encoded once,
        WAL-logged and joins its worker's frame.  While the worker is
        auto-down a mutating command parks (WAL only, replayed on heal)
        and anything else, or a submit over the park budget, is refused
        (:class:`ShardUnavailable`); a worker failure found mid-send
        parks the command too (it is already in the WAL)."""
        w = worker_of(shard, self.config.n_workers)
        op = row[0]
        mutating = op in OP_FIELDS
        state = self.supervisor.state(w)
        handle = self.workers.get(w)
        if state in (DOWN, QUARANTINED):
            handle = None  # the command parks
            if not mutating:
                raise ShardUnavailable(
                    shard, state, f"shard {shard} (worker {w}) is {state}"
                )
            if op == "submit":
                refusal = self.submit_refusal(shard)
                if refusal is not None:
                    raise ShardUnavailable(shard, state, refusal)
                self.parked[shard] = self.parked.get(shard, 0) + 1
                self.parked_total += 1
        elif handle is None or handle.dead:  # admin_down
            raise WorkerDied(
                f"worker {w} (shard {shard}) is dead; restore_worker({w}) "
                f"first"
            )
        data = body(row)
        if log and mutating:  # write-ahead: before it is sent or parked
            self.wal[shard].append(row)
            dw = self.dwal.get(shard)
            if dw is not None:
                dw.append(data)
        if handle is None:
            resp = _parked(shard, op)
            if callback is not None:
                callback(resp)
            return resp
        self._next_id += 1
        pending = _Pending(
            self._next_id, shard, op, callback=callback,
            enqueued=time.perf_counter() if track_latency else None,
        )
        handle.send(
            pending, b"[%d,%d," % (self._next_id, shard) + data + b"\n"
        )
        if wait:
            failed = self._settle_or_fail(w, 0, "at a barrier")
            if pending.reply is not None:
                return pending.reply
            if failed is None:
                raise GatewayError("response stream ended unexpectedly")
            # the worker failed before our response arrived
            if mutating and log:
                return _parked(shard, op)
            raise ShardUnavailable(
                shard, self.supervisor.state(w),
                f"worker {w} failed mid-command ({op})",
            )
        if len(handle.pending) >= self.max_inflight:
            failed = self._settle_or_fail(
                w, self.max_inflight // 2, "under backpressure"
            )
            if failed is not None and not (mutating and log):
                raise ShardUnavailable(shard, self.supervisor.state(w), failed)
        return None

    def worker_cmd(self, worker: int, row: list) -> "list | dict":
        """A synchronous worker op, a row without a shard (``["ping"]``,
        ``["worker_status"]``, ``["snapshot_shards"]``, ``["shutdown"]``):
        a barrier on that worker, then the op, within the heartbeat
        deadline; :class:`WorkerDied` on death or stall."""
        self._next_id += 1
        return self.workers[worker].request(
            _Pending(self._next_id, None, row[0]),
            (encode([self._next_id, *row]) + "\n").encode(),
        )

    def _each_up(self, row: list) -> "Iterator[tuple[int, list | dict]]":
        """Run one worker op on every up worker, in worker order,
        yielding ``(worker, reply)``; a worker that fails it goes to the
        sink and is skipped."""
        for w, handle in sorted(self.workers.items()):
            if handle.dead or self.supervisor.state(w) != UP:
                continue
            try:
                resp = self.worker_cmd(w, row)
            except (GatewayError, OSError) as exc:
                self._fail(w, str(exc))
                continue
            yield w, resp

    def call(self, shard: int, row: list, **kwargs) -> "list | dict":
        """Tick, then send one shard op and wait for its reply."""
        self.tick()
        resp = self.shard_cmd(shard, row, wait=True, **kwargs)
        assert resp is not None
        return resp

    def barrier(self) -> None:
        """Flush and settle every in-flight request on every up worker;
        a worker that fails meanwhile is marked down (its commands are
        in the WAL) instead of failing the fleet."""
        self.tick()
        for w, handle in self.workers.items():
            if not handle.dead and self.supervisor.state(w) == UP:
                self._settle_or_fail(w, 0, "at a barrier")

    # -- observation -----------------------------------------------------
    def statuses(self) -> "dict[int, dict]":
        """Shard id -> ``ClusterService.status()`` of every shard whose
        worker is up: an observation must not block on a heal."""
        self.barrier()
        return {
            int(sid): status
            for _, resp in self._each_up(["worker_status"])
            for sid, status in resp["shards"].items()
        }

    def shard_digests(self) -> "dict[int, str]":
        """Schedule digest per shard (inline snapshot, not a checkpoint),
        after healing every auto-downed worker: a digest over a hole in
        the fleet would silently leave that shard out."""
        self.ensure_all_up()
        self.barrier()
        out = {}
        for s in self.config.shard_ids():
            resp = self.call(s, ["snapshot"], log=False)
            if _refused(resp):
                raise GatewayError(f"shard {s} snapshot failed: {resp}")
            out[s] = resp["snapshot"]["schedule_digest"]
        return out

    def transport_status(self) -> dict:
        """Per worker, summed over its incarnations: pipe writes
        (``tx_writes``, spawn manifests included), the commands they
        carried and pipe reads; fleet-wide, durable WAL records."""
        workers = {str(w): dict(r) for w, r in sorted(self.transport.items())}
        appends = sum(dw.appends for dw in self.dwal.values())
        return {"workers": workers, "wal_appends": appends}

    # -- checkpoint / crash / restore ------------------------------------
    def _ack(self, snapshots: "dict[str, dict]") -> "dict[int, dict]":
        """Acknowledge one worker's checkpoints (``shard -> metadata``):
        each shard that wrote one restarts its WAL empty behind a fsynced
        durable marker; one whose write failed (an ``"error"`` entry)
        keeps its previous checkpoint and its whole WAL."""
        out = {}
        for sid, info in snapshots.items():
            s = int(sid)
            out[s] = info
            if "error" in info:
                continue
            self.wal[s] = []
            self.checkpointed.add(s)
            if s in self.dwal:
                self.dwal[s].mark_checkpoint(info["content_hash"])
        return out

    def snapshot_all(self) -> "dict[int, dict]":
        """Checkpoint every shard to ``snapshot_dir`` at any point of the
        stream, and acknowledge it.  Auto-downed workers are skipped
        (their shards checkpoint after the heal); an admin-down worker
        is a hard error, raised before any worker writes."""
        if self.snapshot_dir is None:
            raise GatewayError("snapshot_all needs a snapshot_dir")
        self.barrier()
        for w, handle in sorted(self.workers.items()):
            state = self.supervisor.state(w)
            if state == ADMIN_DOWN or (handle.dead and state == UP):
                raise WorkerDied(
                    f"worker {w} is dead; restore it before checkpointing"
                )
        out: "dict[int, dict]" = {}
        for w, resp in self._each_up(["snapshot_shards"]):
            if _refused(resp):
                raise GatewayError(f"worker {w} snapshot failed: {resp}")
            out.update(self._ack(resp["snapshots"]))
        return out

    def kill_worker(self, worker: int) -> int:
        """SIGKILL a worker (operator action: ``admin_down`` until
        :meth:`restore_worker`); returns the lost in-flight responses."""
        return self._fail(worker, "killed by operator (kill_worker)",
                          admin=True)

    def restore_worker(self, worker: int) -> "dict[int, int]":
        """Respawn a dead worker by hand: each shard from its checkpoint
        (or genesis) plus its WAL; returns ``shard -> replayed count``."""
        old = self.workers.get(worker)
        if old is not None and not old.dead:
            raise GatewayError(f"worker {worker} is still alive")
        return self._recover(worker, manual=True)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down.  A stopping worker checkpoints its
        shards (with a ``snapshot_dir``), acknowledged like
        :meth:`snapshot_all`'s, so :meth:`resume_from_disk` starts there."""
        for _, resp in self._each_up(["shutdown"]):
            self._ack(resp.get("snapshots", {}))
        for handle in self.workers.values():
            handle.close()
        for dw in self.dwal.values():
            dw.close()
