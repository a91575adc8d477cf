"""Pipe plumbing shared by the JSONL front doors.

``repro serve`` and a gateway worker serve request rows
(:func:`repro.gateway.worker.serve_rows`); ``repro gateway`` serves
tenant commands (:func:`repro.gateway.gateway.gateway_serve_loop`).
All of them read their input through :func:`timed_lines` and turn
SIGTERM/SIGINT into :class:`ShutdownRequested`, so each can leave a
checkpoint behind on the way out.
"""

from __future__ import annotations

import os
import selectors
import signal
from typing import Callable, Iterable

__all__ = [
    "timed_lines",
    "ShutdownRequested",
    "install_shutdown_handlers",
]


class ShutdownRequested(BaseException):
    """Raised by the graceful-shutdown signal handlers (SIGTERM/SIGINT).

    Deliberately a :class:`BaseException`: nothing in the serve path may
    swallow it, so it unwinds straight through the row loop, past the
    checkpoint each caller writes on the way out -- a supervisor's
    ``kill`` is then exactly as recoverable as a clean shutdown.
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

    def _raise(signum, frame):
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
