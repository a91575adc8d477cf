"""Snapshot format: versioned, content-hashed service checkpoints.

A snapshot captures the service's *sufficient statistic* -- genesis
configuration, policy identity, the ordered ingest journal and the clock
-- rather than a dump of every engine's internals (DESIGN.md §6 explains
the trade).  Restore replays the journal through the production code
path, so a restored daemon is bit-identical to the killed one by
construction; the recorded ``schedule_digest`` lets :func:`verify` prove
it after the fact.

Like :class:`~repro.experiments.spec.ScenarioSpec`, a snapshot is
content-hashed (canonical JSON, SHA-256, 16 hex chars) so two snapshots
are interchangeable iff their hashes match, and :func:`check_snapshot`
rejects a corrupted, hand-edited, older-version or malformed payload
before any state is rebuilt.

The journal travels as it is kept: one row ``[kind, clock, *ints]`` per
op (:data:`~repro.service.state.OP_FIELDS`), so the payload is
JSON-native (``load_snapshot(save_snapshot(p)) == p``) and the file is
the same canonical compact JSON the hash is taken over.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .state import OP_FIELDS

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "content_hash",
    "schedule_digest",
    "build_snapshot",
    "check_snapshot",
    "snapshot_text",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "repro.service.snapshot"

#: Bump on any change to the payload layout; restore refuses unknown
#: versions instead of silently misreading them.  Version 1 (one dict per
#: op) has no reader: no version-1 file outlives the run that wrote it.
SNAPSHOT_VERSION = 2


def _canonical(obj) -> str:
    """Sorted keys, no whitespace: what is hashed and what goes to disk
    (no ``indent``, which would take ``json`` off its C encoder)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(payload: dict) -> str:
    """Canonical-JSON SHA-256 of the payload minus its own hash field."""
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:16]


def schedule_digest(entries) -> str:
    """Digest of a schedule's start log: the output-side fingerprint used
    to verify that a restored service reproduced the original bit for bit.
    """
    rows = sorted(
        (e.start, e.machine, e.job.org, e.job.index, e.job.size, e.job.id)
        for e in entries
    )
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_snapshot(
    *,
    policy: dict,
    genesis_machines: tuple[int, ...],
    horizon: "int | None",
    clock: int,
    journal: "list[tuple]",
    digest: str,
    n_events: int,
) -> dict:
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "policy": policy,
        "genesis_machines": list(genesis_machines),
        "horizon": horizon,
        "clock": clock,
        "journal": [list(op) for op in journal],
        "schedule_digest": digest,
        "n_events": n_events,
    }
    payload["content_hash"] = content_hash(payload)
    return payload


def check_snapshot(payload: dict) -> "list[list]":
    """Prove a payload restorable before anything is rebuilt from it;
    returns its journal rows.

    Checked in order: format, version, content hash, then every journal
    row against :data:`~repro.service.state.OP_FIELDS` -- a known kind,
    that kind's arity, and ``type(v) is int`` for the clock and every
    value (so floats, strings and bools are refused).  Every refusal is
    a ``ValueError`` that says what was wrong.
    """
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise ValueError(f"not a service snapshot (format={fmt!r})")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {payload.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    expected = payload.get("content_hash")
    actual = content_hash(payload)
    if expected != actual:
        raise ValueError(
            f"snapshot content hash mismatch (recorded {expected}, "
            f"recomputed {actual}): refusing to restore corrupted state"
        )
    journal = payload.get("journal")
    if not isinstance(journal, list):
        raise ValueError("snapshot journal is not a list of rows")
    ints = {int}
    for n, row in enumerate(journal):
        try:
            fields = OP_FIELDS[row[0]]
        except (TypeError, LookupError):  # not a row, empty, or no such kind
            raise ValueError(
                f"journal row {n}: unknown op kind in {row!r}"
            ) from None
        if len(row) != 2 + len(fields) or set(map(type, row[1:])) != ints:
            raise ValueError(
                f"journal row {n}: a {row[0]} row is "
                f"{['kind', 'clock', *fields]} with int values, got {row!r}"
            )
    return journal


def snapshot_text(payload: dict) -> str:
    """The text of a checkpoint file: canonical compact JSON, one line."""
    return _canonical(payload) + "\n"


def save_snapshot(payload: dict, path: "str | Path") -> Path:
    """Write a checkpoint atomically: temp file, fsync, ``os.replace``.

    A crash (or injected fault) mid-write can therefore only ever leave a
    torn ``*.tmp`` beside an intact previous checkpoint -- readers never
    observe a half-written file, which is what lets gateway recovery fall
    back to the previous checkpoint plus a longer WAL replay instead of
    dying on corrupt JSON.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(snapshot_text(payload))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(path: "str | Path") -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
