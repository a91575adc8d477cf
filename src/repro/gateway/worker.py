"""Gateway worker: one process owning N ClusterService shards.

A worker is deliberately dumb: it applies rows to the shards it owns.
The first stdin line is a JSON manifest (which shards to build or
restore, policy knobs, the crash snapshot directory); every following
line is one request row of the pipe grammar (:mod:`repro.gateway.wire`)::

    [17, 3, "submit", 0, 2, null]     # id, shard, then the ingest row
    [18, 3, "advance", 40]
    [19, 3, "status"]                 # observations: status, snapshot
    [20, "worker_status"]             # worker ops: ping, worker_status,
                                      # snapshot_shards, shutdown

Each row is checked (known kind, arity, ``type(v) is int``, a null
``release``) and its values are handed positionally to the
``ClusterService`` ingest method its kind names -- the dispatch a
journal replay uses (``ClusterService._apply``) -- so per-shard semantics,
journaling and snapshot/restore are exactly the single service's, which
is what makes each shard's online == batch bit-identity carry over
unchanged.  Replies come back in
request order, so the gateway can pipeline requests and match answers
positionally: an ingest op is answered by an int array led by the
request id (``[17, job_id, index, release]``, ``[18, clock, events]``,
``[id, clock]`` for a drain, ``[id, org]`` for a join, ``[id]`` for a
leave or a ping, ``[id, *machine_ids]`` for a machine change); status
and snapshot replies, and every refusal, are JSON objects carrying
``id`` (``{"id": 17, "ok": false, "error": ...}``).

On SIGTERM/SIGINT the worker snapshots every shard to the manifest's
``snapshot_dir`` (when set) before exiting, so a supervisor kill is as
recoverable as a clean shutdown.  A ``fault`` manifest entry arms the
deterministic chaos layer (:mod:`repro.gateway.faults`) for this
incarnation; absent, injection costs nothing.  Entry point: ``python -m
repro.gateway.worker`` (spawned by :class:`~repro.gateway.pool.
ShardPool`; not a user-facing CLI).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import IO

from ..service.daemon import (
    ShutdownRequested,
    install_shutdown_handlers,
    timed_lines,
)
from ..service.service import ClusterService
from ..service.snapshot import load_snapshot, save_snapshot, snapshot_text
from .faults import FaultInjector
from .wire import SHARD_OBSERVATIONS, WORKER_OPS, encode, ingest_values

__all__ = ["worker_main", "shard_snapshot_path", "build_shard"]


def shard_snapshot_path(snapshot_dir: "str | Path", shard: int) -> Path:
    """The canonical checkpoint file for one shard."""
    return Path(snapshot_dir) / f"shard-{shard}.json"


def build_shard(spec: dict, restore_from: "str | None") -> ClusterService:
    """One shard service from its manifest entry (or its checkpoint)."""
    if restore_from is not None:
        return ClusterService.restore(load_snapshot(restore_from))
    return ClusterService(
        spec["machine_counts"],
        spec.get("policy", "fifo"),
        seed=int(spec.get("seed", 0)),
        horizon=spec.get("horizon"),
    )


def _snapshot_all(
    shards: "dict[int, ClusterService]",
    out_dir: "str | Path",
    injector: "FaultInjector | None" = None,
) -> "dict[str, dict]":
    """Checkpoint every shard; returns ``shard -> {path, digest, hash}``.

    Each shard is acked individually: an injected ``torn_checkpoint``
    fault leaves a partial ``*.tmp`` beside the intact previous
    checkpoint (never renamed into place) and reports ``{"error": ...}``
    for that shard alone, so the pool keeps the old checkpoint metadata
    and recovery replays a longer WAL tail.
    """
    result = {}
    for sid, service in sorted(shards.items()):
        payload = service.snapshot()
        path = shard_snapshot_path(out_dir, sid)
        if injector is not None and injector.take_torn_checkpoint():
            # what a crash mid-write leaves with atomic temp+replace:
            # a prefix of the real file text in the temp file, the real
            # path untouched
            tmp = path.with_name(path.name + ".tmp")
            tmp.parent.mkdir(parents=True, exist_ok=True)
            text = snapshot_text(payload)
            tmp.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
            result[str(sid)] = {"error": "torn checkpoint write (injected)"}
            continue
        save_snapshot(payload, path)
        result[str(sid)] = {
            "path": str(path),
            "schedule_digest": payload["schedule_digest"],
            "content_hash": payload["content_hash"],
        }
    return result


def serve_shards(
    manifest: dict, lines, out: IO[str]
) -> "dict[int, ClusterService]":
    """The worker loop: build/restore shards, serve until shutdown/EOF."""
    restore = manifest.get("restore") or {}
    shards: "dict[int, ClusterService]" = {}
    restored = []
    for key, spec in sorted(
        manifest["shards"].items(), key=lambda kv: int(kv[0])
    ):
        sid = int(key)
        restore_from = restore.get(key)
        shards[sid] = build_shard(spec, restore_from)
        if restore_from is not None:
            restored.append(sid)
    snapshot_dir = manifest.get("snapshot_dir")
    injector = FaultInjector.from_manifest(manifest.get("fault"))
    if injector is not None:
        injector.bind_output(out)

    out.write(
        json.dumps(
            {
                "ok": True,
                "worker": manifest.get("worker"),
                "shards": sorted(shards),
                "restored": restored,
            }
        )
        + "\n"
    )
    out.flush()

    # replies are buffered and leave in one write when the loop is about
    # to wait for more commands (flush before you block), at exit, and
    # before an injected hard exit (the injector holds ``out``)
    try:
        for line in timed_lines(lines, None, out.flush):
            if not line or line.isspace():
                continue
            keep = True
            suppress = False
            req_id = None
            reply: "list | None" = None
            try:
                row = json.loads(line)
                if type(row) is not list or len(row) < 2 or (
                    type(row[0]) is not int
                ):
                    raise ValueError(
                        f"not a request row [id, shard, kind, ...] or "
                        f"[id, kind]: {line.strip()!r}"
                    )
                req_id, target = row[0], row[1]
                if type(target) is int:
                    svc = shards.get(target)
                    if svc is None:
                        raise ValueError(
                            f"worker does not own shard {target}: {row!r}"
                        )
                    observe = len(row) == 3 and row[2] in SHARD_OBSERVATIONS
                    values = None if observe else ingest_values(row, 2)
                    # only shard ops count toward injected faults:
                    # pings/worker ops stay reliable so liveness detection
                    # is never itself the thing injected against
                    if injector is not None:
                        injector.before_apply()
                    kind = row[2]
                    if values is not None:
                        # restore's dispatch: the method the kind names
                        result = getattr(svc, kind)(*values)
                        reply = _ingest_reply(req_id, svc, kind, result)
                    elif kind == "status":
                        response = {"ok": True, **svc.status()}
                    else:
                        response = {"ok": True, "snapshot": svc.snapshot()}
                    if injector is not None:
                        suppress = injector.suppress_response()
                elif len(row) != 2 or target not in WORKER_OPS:
                    raise ValueError(f"unknown worker op in {row!r}")
                elif target == "ping":
                    reply = [req_id]
                elif target == "worker_status":
                    response = {
                        "ok": True,
                        "shards": {
                            str(sid): s.status()
                            for sid, s in sorted(shards.items())
                        },
                    }
                elif target == "snapshot_shards":
                    if snapshot_dir is None:
                        raise ValueError(
                            "snapshot_shards needs a snapshot_dir in the "
                            "manifest"
                        )
                    response = {
                        "ok": True,
                        "snapshots": _snapshot_all(
                            shards, snapshot_dir, injector
                        ),
                    }
                else:  # shutdown
                    response = {"ok": True, "stopped": True}
                    if snapshot_dir is not None:
                        response["snapshots"] = _snapshot_all(
                            shards, snapshot_dir, injector
                        )
                    keep = False
            except (ValueError, KeyError, TypeError) as exc:
                response = {"ok": False, "error": str(exc)}
            if not suppress:
                if reply is None:
                    response["id"] = req_id
                    out.write(json.dumps(response) + "\n")
                else:
                    out.write(encode(reply) + "\n")
                if injector is not None:
                    injector.after_reply()
            if not keep:
                break
    except ShutdownRequested:
        # supervisor kill: leave restorable checkpoints behind
        if snapshot_dir is not None:
            _snapshot_all(shards, snapshot_dir)
    finally:
        out.flush()
    return shards


def _ingest_reply(req_id: int, svc: ClusterService, kind: str, result):
    """The int array answering an ingest op, led by its request id."""
    if kind == "submit":
        return [req_id, result.id, result.index, result.release]
    if kind == "advance":
        return [req_id, svc.clock, result]
    if kind == "leave_org":
        return [req_id]
    if kind in ("drain", "join_org"):
        return [req_id, result]
    return [req_id, *result]  # add/remove_machines: the machine ids


def _read_line_unbuffered(stream) -> str:
    """One line via raw single-byte reads: never consumes bytes past the
    newline, so the following :func:`timed_lines` reader (which reads the
    raw fd itself) sees every subsequent command."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError, OSError):
        return stream.readline()
    buf = bytearray()
    while True:
        b = os.read(fd, 1)
        if not b or b == b"\n":
            return buf.decode("utf-8", errors="replace")
        buf.extend(b)


def worker_main(argv: "list[str] | None" = None) -> int:
    """``python -m repro.gateway.worker``: manifest on stdin line 1."""
    install_shutdown_handlers()
    manifest_line = _read_line_unbuffered(sys.stdin)
    if not manifest_line.strip():
        print("worker: no manifest on stdin", file=sys.stderr)
        return 2
    try:
        manifest = json.loads(manifest_line)
    except ValueError as exc:
        print(f"worker: bad manifest: {exc}", file=sys.stderr)
        return 2
    try:
        serve_shards(manifest, sys.stdin, sys.stdout)
    except ShutdownRequested:
        pass  # serve_shards already checkpointed
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(worker_main())
