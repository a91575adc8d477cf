"""Durable per-shard write-ahead log with torn-tail tolerance.

The :class:`~repro.gateway.pool.ShardPool` keeps an in-memory WAL (the
fast path worker respawns replay from); when a ``snapshot_dir`` is set it
*also* appends every mutating command to an on-disk, append-only JSONL
file per shard -- ``wal-<shard>.jsonl`` -- **before** forwarding it to the
worker (write-ahead ordering).  That file is what makes the *gateway
process itself* recoverable: :meth:`~repro.gateway.pool.ShardPool.
resume_from_disk` rebuilds the whole fleet from checkpoints plus WAL
replay after the front door dies, exactly as a worker respawn does.

Record grammar, version :data:`WAL_VERSION` (one compact JSON value per
line):

* a header ``{"format": "repro.gateway.wal", "version": 2}``, written
  with the first record of a new file;
* command records ``[seq, *row]`` -- the wire row of
  :mod:`repro.gateway.wire` (``[12,"submit",0,3,null]``), whose encoded
  bytes after ``seq`` are the very bytes the pool puts in the frame;
  ``seq`` is a dense per-shard counter starting at 0;
* checkpoint markers ``{"mark": <content_hash>, "seq": n}`` -- appended
  (and fsynced) only *after* a checkpoint of this shard was durably
  renamed into place and acknowledged; ``seq`` is the next command seq,
  i.e. everything below it is inside that checkpoint.

Version 1 wrote one ``{"seq": n, "cmd": {...}}`` object per command.
:func:`load_wal` refuses such a record, and any other version's header,
by name: read as junk it would be dropped and the shard would resume
from an empty history.  There is no version-1 reader.

Torn-tail tolerance: a crash mid-append (or an injected ``tear_wal``
fault) leaves a partial final line.  :func:`load_wal` drops unparseable
lines but then *requires the parsed command seqs to be dense from 0* --
so a torn or garbage line is recovered silently (the record it
interrupted was never acknowledged, by write-ahead ordering), while a
genuinely missing middle record (real corruption) is a hard error, never
a silent loss.  Replay picks the **latest marker whose hash matches the
on-disk checkpoint**; when none matches (e.g. the gateway died between
the checkpoint rename and the marker append) the log replays in full
from genesis -- longer, but bit-identical, because the WAL is append-only
and complete.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..service.snapshot import check_snapshot, load_snapshot
from .wire import encode, ingest_values

__all__ = ["WAL_FORMAT", "WAL_VERSION", "ShardWal", "WalImage", "load_wal",
           "wal_path"]

WAL_FORMAT = "repro.gateway.wal"

#: Bump on any change to the record layout; :func:`load_wal` refuses
#: other versions instead of misreading them.
WAL_VERSION = 2

_HEADER = (
    encode({"format": WAL_FORMAT, "version": WAL_VERSION}) + "\n"
).encode()


def wal_path(snapshot_dir: "str | Path", shard: int) -> Path:
    """The canonical durable WAL file for one shard."""
    return Path(snapshot_dir) / f"wal-{shard}.jsonl"


@dataclass
class WalImage:
    """The decoded contents of one shard's durable WAL."""

    commands: "list[list]"  # wire rows, in seq order
    markers: "list[tuple[str, int]]"  # (checkpoint content_hash, seq floor)
    torn: bool = False
    dropped_lines: int = 0

    def replay_floor(self, checkpoint_hash: "str | None") -> int:
        """Commands at or above this seq must be replayed on top of the
        checkpoint whose content hash is ``checkpoint_hash`` (0 -- full
        replay from genesis -- when no marker matches)."""
        if checkpoint_hash is not None:
            for mark_hash, seq in reversed(self.markers):
                if mark_hash == checkpoint_hash:
                    return seq
        return 0

    def trusted_checkpoint(self, path: "str | Path") -> "str | None":
        """The content hash of the checkpoint at ``path`` when a resume
        may start from it -- this build's ``check_snapshot`` accepts the
        file *and* a fsynced marker names its hash -- else None: replay
        from genesis, which the append-only WAL always allows."""
        try:
            payload = load_snapshot(path)
            check_snapshot(payload)
        except (ValueError, OSError):
            return None  # absent, unreadable or refused
        ckpt = payload["content_hash"]
        return ckpt if any(h == ckpt for h, _ in self.markers) else None


def load_wal(path: "str | Path") -> WalImage:
    """Decode a durable WAL, tolerating a torn tail (see module doc).

    Every command record is checked against the wire grammar; a record
    of another version is a ``ValueError`` naming its line."""
    path = Path(path)
    commands: "list[tuple[int, list]]" = []
    markers: "list[tuple[str, int]]" = []
    dropped = 0
    torn = False
    try:
        raw = path.read_bytes()
    except OSError:
        return WalImage(commands=[], markers=[])
    lines = raw.split(b"\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:  # UnicodeDecodeError included
            dropped += 1
            # a partial record at the very end of the file is the
            # signature of a mid-append crash
            if i == len(lines) - 1:
                torn = True
            continue
        where = f"{path} line {i + 1}"
        if type(rec) is list:
            if not rec or type(rec[0]) is not int:
                raise ValueError(f"{where}: not a [seq, *row] record: {rec!r}")
            try:
                ingest_values(rec, 1)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            commands.append((rec[0], rec[1:]))
        elif type(rec) is not dict:
            dropped += 1
        elif "cmd" in rec or rec.get("version", WAL_VERSION) != WAL_VERSION:
            version = rec.get("version", 1)
            raise ValueError(
                f"{where}: a version-{version} WAL record {rec!r}; this "
                f"build reads WAL version {WAL_VERSION} only, and will not "
                f"drop the record as junk and resume the shard from an "
                f"empty history"
            )
        elif "mark" in rec:
            markers.append((str(rec["mark"]), int(rec["seq"])))
        elif rec.get("format") != WAL_FORMAT:
            dropped += 1
    commands.sort(key=lambda r: r[0])
    for expect, (seq, _) in enumerate(commands):
        if seq != expect:
            raise ValueError(
                f"{path}: WAL seq gap (expected {expect}, found {seq}) -- "
                f"a complete record is missing, refusing to replay a "
                f"silently truncated history"
            )
    return WalImage(
        commands=[row for _, row in commands],
        markers=markers,
        torn=torn,
        dropped_lines=dropped,
    )


@dataclass
class ShardWal:
    """The append side of one shard's durable WAL.

    The file is opened once (``O_APPEND``, on the first record) and held
    until :meth:`close`; a record is one ``write(2)`` of its encoded
    line, issued before :meth:`append` returns -- so it is in the OS
    before the pool can hand the command to a worker.
    """

    path: Path
    next_seq: int = 0
    fsyncs: int = 0
    appends: int = 0
    opens: int = 0
    _repair_newline: bool = field(default=False, repr=False)
    _fd: "int | None" = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        snapshot_dir: "str | Path",
        shard: int,
        *,
        truncate: bool = False,
    ) -> "ShardWal":
        path = wal_path(snapshot_dir, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        if truncate:
            # a fresh fleet starts a fresh history; stale records from a
            # previous run in the same directory must not replay into it
            path.unlink(missing_ok=True)
        return cls(path=path)

    @classmethod
    def attach(
        cls, snapshot_dir: "str | Path", shard: int, *, next_seq: int
    ) -> "ShardWal":
        """Reopen an existing WAL for appending (the resume path);
        ``next_seq`` comes from the decoded :class:`WalImage`.  A file
        left without a trailing newline (torn tail) is scheduled for
        newline repair before the next append."""
        path = wal_path(snapshot_dir, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        repair = False
        try:
            raw = path.read_bytes()
            repair = bool(raw) and not raw.endswith(b"\n")
        except OSError:
            pass
        return cls(path=path, next_seq=next_seq, _repair_newline=repair)

    def _write(self, data: bytes, fsync: bool) -> None:
        if self._repair_newline:
            # the previous append was torn (injected or crashed):
            # terminate the partial record so it parses as exactly one
            # droppable junk line instead of corrupting this one
            data = b"\n" + data
            self._repair_newline = False
        fd = self._fd
        if fd is None:
            fd = self._fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            self.opens += 1
            if os.fstat(fd).st_size == 0:
                data = _HEADER + data
        while data:  # one write(2) unless the kernel takes it in parts
            data = data[os.write(fd, data):]
        if fsync:
            os.fsync(fd)
            self.fsyncs += 1

    def append(self, body: bytes) -> int:
        """Log one mutating command, given as its row's
        :func:`~repro.gateway.wire.body`; returns its seq."""
        seq = self.next_seq
        self.next_seq += 1
        self._write(b"[%d," % seq + body + b"\n", fsync=False)
        self.appends += 1
        return seq

    def mark_checkpoint(self, content_hash: str) -> None:
        """Record (and fsync) that a durable checkpoint covers every
        command below :attr:`next_seq`.  The fsync here is the WAL's
        durability point: everything before the marker is on disk before
        the marker claims the checkpoint happened."""
        line = encode({"mark": content_hash, "seq": self.next_seq}) + "\n"
        self._write(line.encode(), fsync=True)

    def tear_tail(self) -> None:
        """Injected fault: leave a partial, newline-less record at the
        tail -- what a crash mid-append leaves behind."""
        from .faults import tear_file_tail

        tear_file_tail(self.path)
        self._repair_newline = True

    def close(self) -> None:
        """Release the file handle (a later append reopens it)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
