"""The pipe between the front door and one worker process.

A :class:`_WorkerHandle` owns one ``repro.gateway.worker`` process: its
binary pipes, the *frame* of request lines enqueued since the last flush,
the *window* of requests sent and not yet answered (workers answer
strictly in order, so replies are matched positionally), and the
*deadline* each answer is held to.  It knows nothing of shards, the WAL
or the supervisor: the :class:`~repro.gateway.pool.ShardPool` asks it one
question per worker and decides what a failure means.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["GatewayError", "WorkerDied", "LATENCY_WINDOW", "worker_env"]

#: Ingest round-trip samples kept for :meth:`Gateway.latency_percentiles`
#: (a sliding window: the newest this many).
LATENCY_WINDOW = 10_000


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
    The callback gets the decoded reply: an int array led by the request
    id for an ingest op or a ping, a dict for everything else.
    """

    req_id: int
    shard: "int | None"
    op: str
    sent_at: "float | None" = None
    callback: "Callable[[list | dict], None] | None" = None
    #: set when the ingest round trip is timed (``track_latency``)
    enqueued: "float | None" = None
    reply: "list | dict | None" = None


def _refused(resp: "list | dict") -> bool:
    """Whether a worker reply is a refusal (``{"ok": false, ...}``)."""
    return type(resp) is dict and not resp.get("ok")


def worker_env() -> "dict[str, str]":
    """The environment a worker starts in: this one, with the directory
    holding the ``repro`` package first on ``PYTHONPATH``."""
    import repro

    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        pkg_root if not existing else pkg_root + os.pathsep + existing
    )
    return env


class _WorkerHandle:
    """One spawned worker: binary pipes, frame coalescing, rx line
    splitting.

    Construction launches the process and writes its manifest without
    waiting; :meth:`await_hello` then reads the worker's first line, so a
    pool can launch every worker before it waits on any.

    A *frame* is every command enqueued since the last :meth:`flush`,
    written to the worker's stdin in one syscall.  Commands only leave
    when someone is about to block on their answers (:meth:`settle_one`)
    or the pool reaches one of its other flush points.  The *window* is
    :attr:`pending`, the requests sent or enqueued and not yet answered;
    each answer is due ``deadline_s`` after the frame that carried its
    request left.  ``before_block`` runs before every bounded wait, and
    ``on_settle`` after every answer.
    """

    HANDSHAKE_TIMEOUT_S = 60.0

    def __init__(
        self,
        worker_id: int,
        manifest: dict,
        env: "dict[str, str]",
        counters: "dict[str, int]",
        latencies_s: "deque[float]",
        *,
        deadline_s: float,
        before_block: "Callable[[], None]",
        on_settle: "Callable[[], None]",
    ) -> None:
        self.worker_id = worker_id
        self.deadline_s = deadline_s
        self.before_block = before_block
        self.on_settle = on_settle
        #: ``tx_writes`` / ``tx_commands`` / ``rx_reads``; owned by the
        #: pool so the totals survive a respawn
        self.counters = counters
        #: the pool's ingest round-trip samples (``_Pending.enqueued``)
        self.latencies_s = latencies_s
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
        self._rx = ""
        self._rx_lines: "deque[str]" = deque()
        self._tx: "list[bytes]" = [
            json.dumps(manifest).encode("utf-8") + b"\n"
        ]
        self._unsent: "list[_Pending]" = []
        try:
            self.flush()
        except WorkerDied:
            self.kill()
            raise

    def await_hello(self) -> dict:
        """Block until the worker reports its shards built (or fails)."""
        resp = self._read_response(timeout=self.HANDSHAKE_TIMEOUT_S)
        if resp is None or not resp.get("ok"):
            raise WorkerDied(
                f"worker {self.worker_id} failed to start: {resp!r}"
            )
        return resp

    # -- low-level I/O --------------------------------------------------
    def send(self, pending: _Pending, line: bytes) -> None:
        """Enqueue one encoded request line into the current frame (no
        I/O)."""
        self.pending.append(pending)
        self._unsent.append(pending)
        self._tx.append(line)

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
        # replies are ASCII JSON, so no character straddles two chunks
        lines = (self._rx + chunk.decode("ascii", "replace")).split("\n")
        self._rx = lines.pop()  # the partial line after the last newline
        self._rx_lines.extend(lines)
        return True

    def _read_response(self, timeout: "float | None") -> "list | dict | None":
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
    def settle_one(
        self, timeout: "float | None" = None
    ) -> "list | dict | None":
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
        got = resp[0] if type(resp) is list else resp.get("id")
        if got is not None and got != p.req_id:
            raise GatewayError(
                f"worker {self.worker_id}: response id {got} does not "
                f"match pending request {p.req_id} (protocol desync)"
            )
        p.reply = resp
        if p.enqueued is not None:
            self.latencies_s.append(time.perf_counter() - p.enqueued)
        if p.callback is not None:
            p.callback(resp)
        self.on_settle()
        return resp

    def settle_down_to(self, keep: int, when: str) -> None:
        """Wait until at most ``keep`` requests are unanswered, each
        answer held to the deadline; :class:`WorkerDied` when the worker
        is dead or an answer is late.  Callers settle a full window to
        half, not by one: the room made is the size of the next frame."""
        self.before_block()
        if self.dead:
            raise WorkerDied(f"worker {self.worker_id} died {when}")
        while len(self.pending) > keep:
            if self.settle_one(timeout=self.deadline_s) is None:
                raise WorkerDied(
                    f"worker {self.worker_id} heartbeat timeout "
                    f"({self.deadline_s:g}s) {when} with "
                    f"{len(self.pending)} pending"
                )

    def request(self, pending: _Pending, line: bytes) -> "list | dict":
        """A synchronous request: settle the window, send ``line`` and
        wait for its answer; :class:`WorkerDied` on death or stall."""
        self.settle_down_to(0, "before a worker op")
        self.send(pending, line)
        resp = self.settle_one(timeout=self.deadline_s)
        if resp is None:
            raise WorkerDied(
                f"worker {self.worker_id} gave no response (heartbeat "
                f"{self.deadline_s:g}s)"
            )
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

    def ping(self, req_id: int) -> None:
        """Enqueue a probe, so an idle worker's silent death is noticed;
        the pong settles positionally like any answer."""
        self.send(_Pending(req_id, None, "ping"), b'[%d,"ping"]\n' % req_id)

    def poll(self) -> "str | None":
        """Send the frame and consume the answers already here, then say
        why the worker counts as failed -- pipe closed, protocol desync,
        or its oldest answer past the deadline -- or None.  Arrived
        answers are read *before* the deadline is judged: a worker that
        answered while the caller was busy elsewhere has not stalled.
        The age runs from the flush that carried the request, so a
        caller's pause between enqueue and flush is not charged to the
        worker."""
        try:
            self.flush()
            self.settle_available()
        except GatewayError as exc:
            return str(exc)
        if not self.pending:
            return None
        age = time.perf_counter() - self.pending[0].sent_at
        if age < self.deadline_s:
            return None
        return (
            f"response deadline exceeded ({age:.2f}s > heartbeat "
            f"{self.deadline_s:g}s)"
        )

    # -- lifecycle -------------------------------------------------------
    def kill(self) -> "list[_Pending]":
        """SIGKILL the process; returns the requests whose responses are
        lost."""
        lost = list(self.pending)
        self.pending.clear()
        self._tx.clear()
        self._unsent.clear()
        self._rx = ""
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
