"""Content-addressed cross-spec result store (DESIGN.md §10.3).

The JSONL resume cache keys whole *spec runs* by spec content hash, so two
specs that share instances (e.g. portfolio variants over the same trace and
seed) recompute every shared ``(workload, policy)`` pair from scratch.
:class:`ResultStore` keys each **scored portfolio row** by what actually
determines it -- a hash of the concrete workload, the policy's own content
hash, the derived algorithm seed, the evaluation horizon, and the metric
tuple -- so any spec whose row resolves to the same key replays the stored
float scores bit-identically (JSON round-trips float64 exactly, the same
property the JSONL cache already relies on) and multi-spec sweeps become
resumable at per-instance, per-policy granularity.

The store is deliberately dumb and concurrency-tolerant: one append-only
``results.jsonl`` per store directory, each row written with a single
buffered write.  Parallel shard workers may race; the worst case is a
duplicate line with identical content, which the last-wins index load
makes harmless (the same torn/junk-line tolerance as the pipeline cache).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..core.workload import Workload
from ..policies import PolicySpec

__all__ = ["ResultStore", "workload_fingerprint"]


def workload_fingerprint(workload: Workload) -> str:
    """A stable digest of the concrete workload: org machine endowments
    plus every job's ``(release, org, index, size)`` in canonical order.
    Job ids are excluded -- they are assignment-order bookkeeping, not
    schedule-relevant content."""
    payload = json.dumps(
        [
            workload.n_orgs,
            list(workload.machine_counts()),
            [[j.release, j.org, j.index, j.size] for j in sorted(workload.jobs)],
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultStore:
    """Append-only content-addressed store of scored portfolio rows.

    Rows are ``{"algorithm": name, "metrics": {metric: float}}`` keyed by
    :meth:`key_for`.  ``hits``/``misses`` count :meth:`get` outcomes so
    tests (and the CI smoke) can assert zero-recompute resumes.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.path = self.root / "results.jsonl"
        self.hits = 0
        self.misses = 0
        self._index: dict[str, dict] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                key = row.pop("key")
                row["metrics"] = {
                    m: float(v) for m, v in row["metrics"].items()
                }
            except (ValueError, KeyError, TypeError):
                continue
            self._index[key] = row

    def __len__(self) -> int:
        return len(self._index)

    @staticmethod
    def key_for(
        workload: Workload,
        policy: "PolicySpec | str",
        seed: int,
        horizon: int,
        metrics: "tuple[str, ...]",
    ) -> str:
        """The content address of one scored row: everything that
        determines its floats and nothing else."""
        payload = json.dumps(
            [
                workload_fingerprint(workload),
                PolicySpec.parse(policy).content_hash(),
                int(seed),
                int(horizon),
                list(metrics),
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def get(self, key: str) -> "dict | None":
        row = self._index.get(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def put(self, key: str, algorithm: str, metrics: dict[str, float]) -> None:
        if key in self._index:
            return
        row = {"algorithm": algorithm, "metrics": dict(metrics)}
        self._index[key] = row
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key, **row}, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(line)
