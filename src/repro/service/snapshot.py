"""Snapshot format: versioned, content-hashed service checkpoints.

A snapshot captures the service's *sufficient statistic* -- genesis
configuration, policy identity, the ordered ingest journal and the clock
-- plus, for the single-engine policies, an *image* of the physical
engine and the scheduler as int rows (DESIGN.md §6.2).  Restore rebuilds
the census and the jobs from the journal and loads the engine from the
image without re-deciding anything; a fleet policy's payload carries
``"image": null`` and restore replays its journal through the production
ingest path.  Either way the recorded ``schedule_digest`` proves the
restored schedule is the one snapshotted.

Like :class:`~repro.experiments.spec.ScenarioSpec`, a snapshot is
content-hashed (canonical JSON, SHA-256, 16 hex chars) so two snapshots
are interchangeable iff their hashes match, and :func:`check_snapshot`
rejects a corrupted, hand-edited, older-version or malformed payload
before any state is rebuilt.

The journal travels as it is kept: one row ``[kind, clock, *ints]`` per
op (:data:`~repro.service.state.OP_FIELDS`), and the image is named int
rows (:data:`IMAGE_ROWS`), so the payload is JSON-native
(``load_snapshot(save_snapshot(p)) == p``) and the file is the same
canonical compact JSON the hash is taken over.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .state import OP_FIELDS

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "IMAGE_ROWS",
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
#: versions instead of silently misreading them.  Versions 1 (one dict per
#: op) and 2 (the journal alone) have no reader: no checkpoint outlives
#: the run that wrote it.
SNAPSHOT_VERSION = 3

#: The image grammar: each key names one int row of the given length
#: (``None``: any length); ``scheduler`` is a dict of named rows instead
#: (what :meth:`~repro.algorithms.base.PolicyScheduler.state` returns).
#: ``starts`` is flat because one list per start would cost an object on
#: every encode, decode and collection of the payload (DESIGN.md §6.2).
IMAGE_ROWS = {
    "starts": None,  # start, machine, job_id per start, in start order
    "clock": 1,  # the engine's clock (the last event it processed)
    "waiting": None,  # per org id: released jobs waiting in its queue
    "running": None,  # machine ids running a job
    "retiring": None,  # machine ids draining: retire when their job ends
    "retired": None,  # machine ids out of the pool
    "drain": 2,  # the adapter's drain flag and pool target
    "last_decision": None,  # [] before the first decision, else [t]
    "scheduler": None,
}


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

    ``entries`` may be in any order (a :class:`~repro.core.schedule.
    Schedule`, or an engine's ``start_log``): the rows are sorted here.
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
    image: "dict | None",
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
        "image": image,
    }
    payload["content_hash"] = content_hash(payload)
    return payload


def check_snapshot(payload: dict) -> "list[list]":
    """Prove a payload restorable before anything is rebuilt from it;
    returns its journal rows.

    Checked in order: format, version, content hash, then every journal
    row against :data:`~repro.service.state.OP_FIELDS` -- a known kind,
    that kind's arity, and ``type(v) is int`` for the clock and every
    value (so floats, strings and bools are refused) -- then the image,
    ``null`` or every row of :data:`IMAGE_ROWS` with its arity and int
    values.  Every refusal is a ``ValueError`` that says what was wrong.
    Whether the image agrees with the journal is checked as it loads
    (:meth:`~repro.core.engine.ClusterEngine.from_image`).
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
    if not _in_grammar(journal):
        _name_bad_row(journal)
    if "image" not in payload:
        raise ValueError("snapshot has no image field (null or int rows)")
    _check_image(payload["image"])
    return journal


#: ``kind -> len(row)`` of every journal row kind
_ARITY = {kind: 2 + len(fields) for kind, fields in OP_FIELDS.items()}
_TAIL = itemgetter(slice(1, None))


def _in_grammar(journal: list) -> bool:
    """Every row in :data:`~repro.service.state.OP_FIELDS`'s grammar, in a
    few C-level passes over all rows at once (no Python loop per row)."""
    try:
        return (
            set(map(type, journal)) <= {list}
            and list(map(_ARITY.get, map(itemgetter(0), journal)))
            == list(map(len, journal))
            and set(map(type, chain.from_iterable(map(_TAIL, journal))))
            <= {int}
        )
    except (TypeError, IndexError):  # an unhashable kind, an empty row
        return False


def _name_bad_row(journal: list) -> None:
    """Raise for the first row :func:`_in_grammar` refuses."""
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


def _int_row(row, arity: "int | None") -> bool:
    """A list of ints (``type(v) is int``: no bools), of length ``arity``
    unless ``None``."""
    return (
        type(row) is list
        and (arity is None or len(row) == arity)
        and set(map(type, row)) <= {int}
    )


def _check_image(image) -> None:
    if image is None:
        return
    if not isinstance(image, dict) or set(image) != set(IMAGE_ROWS):
        raise ValueError(
            f"snapshot image is null or the rows {sorted(IMAGE_ROWS)}, "
            f"got {image!r:.200}"
        )
    scheduler = image["scheduler"]
    if not isinstance(scheduler, dict):
        raise ValueError(
            f"image scheduler row: a dict of named int rows, got {scheduler!r}"
        )
    rows = [
        (key, image[key], arity)
        for key, arity in IMAGE_ROWS.items()
        if key != "scheduler"
    ]
    rows += [(f"scheduler {key}", row, None) for key, row in scheduler.items()]
    for key, row, arity in rows:
        if not _int_row(row, arity):
            raise ValueError(
                f"image {key} row: {arity or 'any number of'} int values, "
                f"got {row!r:.200}"
            )
    if len(image["starts"]) % 3:
        raise ValueError(
            f"image starts row: start, machine, job_id per start, got "
            f"{len(image['starts'])} values"
        )


def snapshot_text(payload: dict) -> str:
    """The text of a checkpoint file: canonical compact JSON, one line."""
    return _canonical(payload) + "\n"


def save_snapshot(payload: dict, path: "str | Path") -> Path:
    """Write a checkpoint atomically and durably: temp file, fsync,
    ``os.replace``, fsync of the directory.

    A crash (or injected fault) mid-write can therefore only ever leave a
    torn ``*.tmp`` beside an intact previous checkpoint -- readers never
    observe a half-written file, which is what lets gateway recovery fall
    back to the previous checkpoint plus a longer WAL replay instead of
    dying on corrupt JSON.  The directory fsync makes the rename itself
    survive a power loss, so a WAL marker written after this returns
    never names a checkpoint the disk forgot.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(snapshot_text(payload))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return path


def load_snapshot(path: "str | Path") -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
