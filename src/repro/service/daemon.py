"""The ``repro serve`` transport: a line-oriented JSONL command loop.

The service's ingest API is exposed over the simplest transport that is
fully scriptable and dependency-free: one JSON object per input line, one
JSON response per line on the output.  A shell, a test, or a supervisor
pipes commands in; the daemon journals every mutation, so a ``snapshot``
command (or ``--snapshot-to`` on exit) captures a restorable checkpoint
at any moment.

Commands (``op`` field selects; remaining fields are the arguments)::

    {"op": "submit", "org": 0, "size": 3}            # release defaults to clock
    {"op": "submit", "org": 0, "size": 3, "release": 120}
    {"op": "advance", "t": 500}
    {"op": "drain"}
    {"op": "join", "machines": 2}
    {"op": "leave", "org": 1}
    {"op": "add_machines", "org": 0, "count": 2}
    {"op": "remove_machines", "org": 0, "count": 1}
    {"op": "status"}
    {"op": "snapshot", "path": "state.json"}         # path optional: inline
    {"op": "stop"}

Every response carries ``"ok": true/false``; errors are reported in-band
(the daemon keeps serving).  Malformed JSON is also an in-band error.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
from typing import IO, Callable, Iterable

from .service import ClusterService
from .snapshot import save_snapshot

__all__ = [
    "serve_loop",
    "timed_lines",
    "ShutdownRequested",
    "install_shutdown_handlers",
]


class ShutdownRequested(BaseException):
    """Raised by the graceful-shutdown signal handlers (SIGTERM/SIGINT).

    Deliberately a :class:`BaseException`: nothing in the serve path may
    swallow it, so it unwinds straight through :func:`serve_loop`, whose
    ``finally`` writes the ``--snapshot-to`` checkpoint -- a supervisor's
    ``kill`` is then exactly as recoverable as a clean ``stop``.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"shutdown requested by signal {signum}")
        self.signum = signum


def install_shutdown_handlers(
    signums: "tuple[int, ...]" = (signal.SIGTERM, signal.SIGINT),
) -> None:
    """Route ``signums`` to :class:`ShutdownRequested` in the main thread.

    A handled signal interrupts the blocking stdin read (or selector
    wait), so an idle daemon reacts immediately instead of at the next
    command.
    """

    def _raise(signum, frame):  # pragma: no cover - trivial closure
        raise ShutdownRequested(signum)

    for signum in signums:
        signal.signal(signum, _raise)


def timed_lines(
    stream,
    timeout: "float | None",
    before_wait: "Callable[[], None]" = lambda: None,
) -> "Iterable[str | None]":
    """Yield lines from ``stream``, yielding ``None`` on read timeouts.

    ``timeout`` bounds each wait: ``None`` blocks until input arrives, a
    number of seconds yields ``None`` when it elapses without a complete
    line, so the caller can run idle work.  ``before_wait()`` runs every
    time the reader is about to wait for input it does not already hold:
    the place to flush output the peer may be waiting on before sending
    more (*flush before you block*).  Sources without a real file descriptor
    (lists, ``StringIO``, generators) fall back to plain iteration --
    per-line timing is moot there, but fetching the next line may still
    block (a generator fed by the peer), so ``before_wait`` runs before
    each one.
    """
    sel = None
    try:
        fd = stream.fileno()
        sel = selectors.DefaultSelector()
        sel.register(fd, selectors.EVENT_READ)
    except (AttributeError, ValueError, OSError):
        if sel is not None:
            sel.close()
        before_wait()
        for line in stream:
            yield line
            before_wait()
        return
    buf = bytearray()
    try:
        while True:
            before_wait()
            if not sel.select(timeout):
                yield None
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                if buf:
                    yield buf.decode("utf-8", errors="replace")
                return
            buf.extend(chunk)
            while True:
                nl = buf.find(b"\n")
                if nl < 0:
                    break
                line = buf[:nl].decode("utf-8", errors="replace")
                del buf[: nl + 1]
                yield line
    finally:
        sel.close()


def _handle(service: ClusterService, cmd: dict) -> "tuple[dict, bool]":
    """Execute one command; returns (response, keep_serving)."""
    op = cmd.get("op")
    if op == "submit":
        job = service.submit(
            int(cmd["org"]),
            int(cmd["size"]),
            release=(int(cmd["release"]) if "release" in cmd else None),
        )
        return (
            {
                "ok": True,
                "job_id": job.id,
                "org": job.org,
                "index": job.index,
                "release": job.release,
            },
            True,
        )
    if op == "advance":
        processed = service.advance(int(cmd["t"]))
        return {"ok": True, "clock": service.clock, "events": processed}, True
    if op == "drain":
        clock = service.drain()
        return {"ok": True, "clock": clock}, True
    if op == "join":
        org = service.join_org(int(cmd.get("machines", 0)))
        return {"ok": True, "org": org}, True
    if op == "leave":
        service.leave_org(int(cmd["org"]))
        return {"ok": True}, True
    if op == "add_machines":
        ids = service.add_machines(int(cmd["org"]), int(cmd["count"]))
        return {"ok": True, "machines": ids}, True
    if op == "remove_machines":
        ids = service.remove_machines(int(cmd["org"]), int(cmd["count"]))
        return {"ok": True, "machines": ids}, True
    if op == "status":
        return {"ok": True, **service.status()}, True
    if op == "snapshot":
        payload = service.snapshot()
        if "path" in cmd:
            save_snapshot(payload, cmd["path"])
            return (
                {
                    "ok": True,
                    "path": str(cmd["path"]),
                    "content_hash": payload["content_hash"],
                },
                True,
            )
        return {"ok": True, "snapshot": payload}, True
    if op == "stop":
        return {"ok": True, "stopped": True}, False
    return {"ok": False, "error": f"unknown op {op!r}"}, True


def serve_loop(
    service: ClusterService,
    lines: Iterable[str],
    out: IO[str],
    *,
    snapshot_to: "str | None" = None,
) -> ClusterService:
    """Serve JSONL commands until ``stop`` / EOF; returns the service.

    ``snapshot_to`` writes a final snapshot when the loop ends (whether by
    ``stop``, end of input, or a client going away), so a supervised
    daemon always leaves a restorable checkpoint behind.
    """
    try:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                cmd = json.loads(line)
                if not isinstance(cmd, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(cmd).__name__}"
                    )
                response, keep = _handle(service, cmd)
            except (ValueError, KeyError, TypeError) as exc:
                response, keep = {"ok": False, "error": str(exc)}, True
            out.write(json.dumps(response) + "\n")
            out.flush()
            if not keep:
                break
    finally:
        if snapshot_to is not None:
            save_snapshot(service.snapshot(), snapshot_to)
    return service
