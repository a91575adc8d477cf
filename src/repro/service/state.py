"""Service state: the journal of ingest operations plus the live census.

The online service is **event-sourced** (DESIGN.md §6): every externally
visible mutation -- a job submission, an organization joining or leaving,
machines added or removed, time advancing -- is recorded as one journal
*row*, a plain tuple ``(kind, clock, *ints)`` laid out by
:data:`OP_FIELDS`.  Because every component the ops feed (engines,
fleets, policies) is deterministic, the ordered journal *is* the full
scheduler state: replaying it through the very same code path
reconstructs every engine, ledger, queue and RNG stream bit for bit.
That is what makes :mod:`repro.service.snapshot` small (the rows go to
disk as they are, one JSON array each) and trustworthy: a fleet policy
restores by running the production path, and a single-engine policy
loads an image of its engine against the census and jobs
:func:`fold_journal` rebuilds from the same rows.

:class:`ClusterCensus` tracks the live side: which organizations are
members, which global machine ids each owns, and the monotonic id
counters for machines, jobs and per-organization FIFO indices.  Ids are
never reused -- a departed organization's id stays retired, which keeps
coalition bitmasks and historical ledgers unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.job import Job

__all__ = ["OP_FIELDS", "ClusterCensus", "JournalFold", "fold_journal"]

#: The journal row grammar.  A row is ``(kind, clock, *values)``: ``kind``
#: names the ``ClusterService`` ingest method that was called, ``clock``
#: is the service clock when it was applied (for ``advance``/``drain``:
#: before the move), and ``values`` are the ints this table names, in
#: this order -- e.g. ``("submit", 7, 0, 3, 9, 4, 12)`` is org 0's fifth
#: job (index 4, id 12, size 3), submitted at clock 7 for release 9.
#: Time advancement is journaled too: *when* decision events were
#: processed relative to same-time submissions is part of the state (a
#: round at time T that ran before a time-T submission arrived schedules
#: differently from one that ran after it), so replay re-applies the
#: rows in order and reproduces that interleaving exactly.
OP_FIELDS = {
    "submit": ("org", "size", "release", "index", "id"),
    "advance": ("until",),
    "drain": (),
    "join_org": ("machines",),
    "leave_org": ("org",),
    "add_machines": ("org", "count"),
    "remove_machines": ("org", "count"),
}


@dataclass
class ClusterCensus:
    """Live membership and machine registry (the non-simulated truth).

    ``n_orgs`` counts every organization id ever issued (ids are dense and
    never reused); ``members`` holds the currently active subset.
    ``machines`` maps active organizations to their *live* global machine
    ids -- the genesis endowment uses the canonical layout (org 0's
    machines get the lowest ids) so that service engines and batch engines
    agree on ids, and runtime additions extend monotonically from there.
    """

    machines: dict[int, list[int]] = field(default_factory=dict)
    n_orgs: int = 0
    next_machine_id: int = 0
    next_job_id: int = 0
    next_index: dict[int, int] = field(default_factory=dict)
    last_release: dict[int, int] = field(default_factory=dict)

    @classmethod
    def genesis(cls, machine_counts: "tuple[int, ...]") -> "ClusterCensus":
        census = cls()
        for count in machine_counts:
            if count < 0:
                raise ValueError("machine counts must be >= 0")
            census.admit(count)
        return census

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.machines))

    @property
    def members_mask(self) -> int:
        mask = 0
        for u in self.machines:
            mask |= 1 << u
        return mask

    def admit(self, machine_count: int) -> tuple[int, list[int]]:
        """Issue the next organization id and its machine endowment."""
        org = self.n_orgs
        self.n_orgs += 1
        self.machines[org] = []
        self.next_index[org] = 0
        self.last_release[org] = 0
        return org, self.grow(org, machine_count)

    def rollback_admit(self, org: int, machine_count: int) -> None:
        """Undo the most recent :meth:`admit` (the policy refused it).

        Lives next to :meth:`admit` so every side effect of admission has
        its inverse in one place.
        """
        if org != self.n_orgs - 1:
            raise ValueError(
                f"can only roll back the latest admission (org {org} is "
                f"not the newest id {self.n_orgs - 1})"
            )
        self.machines.pop(org)
        self.next_index.pop(org, None)
        self.last_release.pop(org, None)
        self.n_orgs -= 1
        self.next_machine_id -= machine_count

    def grow(self, org: int, machine_count: int) -> list[int]:
        """Issue ``machine_count`` fresh global machine ids to ``org``."""
        self.require_member(org)
        new = list(
            range(self.next_machine_id, self.next_machine_id + machine_count)
        )
        self.next_machine_id += machine_count
        self.machines[org].extend(new)
        return new

    def shrink(self, org: int, machine_count: int) -> list[int]:
        """Pick the machines to retire: the org's highest-id live machines
        (a deterministic rule, so journal replay retires the same ids)."""
        self.require_member(org)
        live = self.machines[org]
        if machine_count > len(live):
            raise ValueError(
                f"org {org} has {len(live)} machines, cannot remove "
                f"{machine_count}"
            )
        picked = sorted(live)[len(live) - machine_count:]
        self.machines[org] = [m for m in live if m not in set(picked)]
        return picked

    def expel(self, org: int) -> list[int]:
        """Remove an organization; returns its (now retired) machine ids."""
        self.require_member(org)
        gone = sorted(self.machines.pop(org))
        return gone

    def require_member(self, org: int) -> None:
        if org not in self.machines:
            raise ValueError(f"org {org} is not an active member")

    def live_machines(self, members: "tuple[int, ...] | None" = None) -> list[
        tuple[int, int]
    ]:
        """Sorted ``(machine_id, owner)`` pairs of the live pool (optionally
        restricted to a coalition)."""
        chosen = self.members if members is None else members
        pairs = [
            (mid, org)
            for org in chosen
            for mid in self.machines.get(org, ())
        ]
        pairs.sort()
        return pairs


class JournalFold(NamedTuple):
    """What a journal implies without deciding anything
    (:func:`fold_journal`)."""

    census: ClusterCensus
    #: every submitted job by id, in submission order
    jobs: "dict[int, Job]"
    #: every machine id ever issued -> its owner, in issue order
    owners: "dict[int, int]"
    #: the submit rows that named an already-submitted job id (their
    #: starts cannot be told apart by id)
    duplicate_ids: int


def fold_journal(
    genesis_machines: "tuple[int, ...]", rows, clock: int
) -> JournalFold:
    """The census, the jobs and the machine owners ``rows`` leave behind,
    checked as they are folded: each op is legal where it stands (a member
    org, the next FIFO index, a release no earlier than the clock or the
    org's last one), each row is stamped with the clock the rows before it
    left, and the journal ends at ``clock``.  A ``drain`` moves the clock
    to its last decision, which only the next row (or ``clock``) records.
    Raises ``ValueError`` naming the row.
    """
    census = ClusterCensus.genesis(genesis_machines)
    machines = census.machines
    next_index = census.next_index
    last_release = census.last_release
    owners = {mid: org for org, ids in machines.items() for mid in ids}
    jobs: dict[int, Job] = {}
    next_id = duplicates = now = 0
    drained = False
    for n, row in enumerate(rows):
        kind, at = row[0], row[1]
        try:
            if at != now and not (drained and at > now):
                raise ValueError(f"applied at clock {at}, the clock was {now}")
            now = at
            drained = False
            if kind == "submit":
                _, _, org, size, release, index, jid = row
                if org not in machines:
                    raise ValueError(f"org {org} is not an active member")
                if (
                    size < 1
                    or release < at
                    or release < last_release[org]
                    or index != next_index[org]
                ):
                    raise ValueError(
                        f"org {org}'s next job has size >= 1, release >= "
                        f"{max(at, last_release[org])} and FIFO index "
                        f"{next_index[org]}"
                    )
                next_index[org] = index + 1
                last_release[org] = release
                if jid >= next_id:
                    next_id = jid + 1
                if jid in jobs:
                    duplicates += 1
                jobs[jid] = Job(release, org, index, size, id=jid)
            elif kind == "advance":
                now = max(now, row[2])
            elif kind == "drain":
                drained = True
            elif kind == "join_org":
                org, ids = census.admit(row[2])
                owners.update(dict.fromkeys(ids, org))
            elif kind == "leave_org":
                census.expel(row[2])
            elif kind == "add_machines":
                owners.update(dict.fromkeys(census.grow(*row[2:]), row[2]))
            else:
                census.shrink(*row[2:])
        except ValueError as err:
            raise ValueError(f"journal row {n} {list(row)}: {err}") from None
    if clock != now and not (drained and clock > now):
        raise ValueError(
            f"the journal leaves the clock at {now}, the payload says {clock}"
        )
    census.next_job_id = next_id
    return JournalFold(census, jobs, owners, duplicates)
