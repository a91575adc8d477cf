"""The pipe grammar: a shard op is a journal row, encoded once.

Between the front door and a worker every request is one JSON array.
An *ingest* op is the :data:`~repro.service.state.OP_FIELDS` row minus
what the shard assigns when it applies it (the clock, and a submit's
FIFO index and job id) -- ``["submit", org, size, release|null]``,
``["advance", until]``, ``["drain"]``, ``["join_org", machines]``,
``["leave_org", org]``, ``["add_machines"|"remove_machines", org,
count]``.  The front door encodes the row once: :func:`body` is its
JSON minus the opening bracket, and the same bytes end the durable WAL
record ``[seq, *row]`` (:mod:`repro.gateway.wal`) and the frame line
``[id, shard, *row]``.  Observations of one shard (``[id, shard,
"status"]``, ``[id, shard, "snapshot"]``) and worker ops (``[id,
"ping"|"worker_status"|"snapshot_shards"|"shutdown"]``) are rows on the
same pipe.  DESIGN.md §11.3 has the reply shapes.
"""

from __future__ import annotations

import json
from itertools import product

from ..service.state import OP_FIELDS

__all__ = [
    "INGEST_FIELDS",
    "SHARD_OBSERVATIONS",
    "WORKER_OPS",
    "encode",
    "body",
    "ingest_values",
]

#: Ingest kind -> the value fields its wire row carries: the journal's
#: row without the clock, the FIFO index and the job id.
INGEST_FIELDS = {
    kind: tuple(f for f in fields if f not in ("index", "id"))
    for kind, fields in OP_FIELDS.items()
}

#: Read-only ops on one shard (no values; never logged).  Tuples, so a
#: malformed row's unhashable kind is simply not a member.
SHARD_OBSERVATIONS = ("status", "snapshot")

#: Ops on the worker itself (no shard, no values).
WORKER_OPS = ("ping", "worker_status", "snapshot_shards", "shutdown")

#: Compact JSON, the one encoder of every pipe line and WAL record.
encode = json.JSONEncoder(separators=(",", ":")).encode

#: Per ingest kind, every admissible tuple of value types: ``type(v) is
#: int`` for each field, except a submit's ``release``, which may be null
#: (the shard's clock).  One lookup checks arity and types at once.
_SIGNATURES = {
    kind: frozenset(
        product(*((int, type(None)) if f == "release" else (int,)
                  for f in fields))
    )
    for kind, fields in INGEST_FIELDS.items()
}


def body(row: list) -> bytes:
    """A row's encoding minus its opening ``[``: what a WAL record and a
    frame line append to their own leading ints."""
    return encode(row)[1:].encode()


def ingest_values(record: list, at: int) -> list:
    """The values of the ingest row ``record[at:]``, checked: a known
    kind, that kind's arity, and ``type(v) is int`` for every value (a
    null ``release`` aside), so ``3.0``, ``"3"`` and ``true`` are
    refused.  Raises a ``ValueError`` that names the record."""
    kind = record[at] if len(record) > at else None
    signatures = _SIGNATURES.get(kind) if type(kind) is str else None
    if signatures is None:
        raise ValueError(f"unknown op kind in {record!r}")
    values = record[at + 1:]
    if tuple(map(type, values)) not in signatures:
        fields = list(INGEST_FIELDS[kind])
        raise ValueError(
            f"a {kind} row is {['kind', *fields]} with int values "
            f"(release may be null), got {record!r}"
        )
    return values
