"""Jobs: the unit of work in the multi-organizational scheduling model.

The paper's model (Section 2): each organization :math:`O^{(u)}` produces a
stream of *sequential* jobs :math:`J^{(u)}_i` with a release time
:math:`r^{(u)}_i` and a processing time :math:`p^{(u)}_i`.  Scheduling is

* **online** -- a job is unknown until its release time,
* **non-clairvoyant** -- the processing time is unknown until the job
  completes,
* **non-preemptive** -- a started job cannot be stopped, cancelled or moved,
* **FIFO-per-organization** -- jobs of one organization start in the order
  they were submitted (organizations keep an internal prioritization).

Time is discrete (:class:`int` time steps) and processing times are positive
integers, exactly as in the paper.  A job occupying a machine during the time
slots ``[s, s+p)`` is identified with the pair ``(s, p)`` when evaluating
utility functions (Section 4).

A :class:`Job` is a tuple record: it compares equal to the tuple of its
fields, orders and hashes as that tuple, and :mod:`json` encodes it as an
array.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Sequence

__all__ = ["Job", "sort_jobs", "validate_jobs", "split_job", "merge_jobs"]


class Job(namedtuple("Job", "release org index size id", defaults=(-1,))):
    """A sequential job, checked on every constructor path (``Job(...)``,
    :meth:`_make`, ``_replace``, copy and pickle).

    The ordering of :class:`Job` instances is (release, org, index, size, id)
    which is exactly the submission order required by the FIFO-per-
    organization rule, with a deterministic tie-break.

    Attributes
    ----------
    release:
        Release time :math:`r^{(u)}_i \\ge 0`.  The job is invisible to every
        scheduler before this time.
    org:
        Index of the owning organization (``0 <= org < k``).
    index:
        Submission sequence number *within* the owning organization.  Jobs of
        one organization must be started in increasing ``index`` order.
    size:
        Processing time :math:`p^{(u)}_i \\ge 1` (integer time units).  Hidden
        from schedulers until completion (non-clairvoyance); the simulation
        engine enforces this by never exposing ``size`` through the scheduler
        state API.
    id:
        Globally unique identifier (stable across workload transforms); used
        for schedule bookkeeping and round-tripping through SWF files.
    """

    __slots__ = ()

    def __new__(
        cls, release: int, org: int, index: int, size: int, id: int = -1
    ) -> Job:
        if release < 0:
            raise ValueError(f"release must be >= 0, got {release}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if org < 0:
            raise ValueError(f"org must be >= 0, got {org}")
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        return tuple.__new__(cls, (release, org, index, size, id))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Job:
        """``Job(*iterable)``: namedtuple's own skips the checks."""
        return cls(*iterable)

    def delayed(self, delta: int) -> "Job":
        """Return a copy of this job released ``delta`` time units later.

        Delaying is one of the three workload manipulations of Section 4
        (never profitable under a utility satisfying the anonymity axioms).
        """
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self._replace(release=self.release + delta)

    def inflated(self, extra: int) -> "Job":
        """Return a copy with ``extra`` artificial processing units appended.

        Artificially increasing job sizes is the third manipulation discussed
        under strategy-resistance in Section 4.
        """
        if extra < 0:
            raise ValueError("extra must be >= 0")
        return self._replace(size=self.size + extra)


def sort_jobs(jobs: Iterable[Job]) -> list[Job]:
    """Return jobs sorted in canonical submission order."""
    return sorted(jobs)


def validate_jobs(jobs: Sequence[Job]) -> None:
    """Check a job list for model validity.

    Raises
    ------
    ValueError
        If two jobs of one organization share a submission index, if indices
        are not contiguous from zero, or if release times decrease with the
        submission index (FIFO order must be realizable: a job cannot be
        expected to start before a later-released predecessor is known).
    """
    per_org: dict[int, list[Job]] = {}
    for job in jobs:
        per_org.setdefault(job.org, []).append(job)
    for org, org_jobs in per_org.items():
        org_jobs.sort(key=lambda j: j.index)
        for pos, job in enumerate(org_jobs):
            if job.index != pos:
                raise ValueError(
                    f"org {org}: job indices must be contiguous from 0, "
                    f"found index {job.index} at position {pos}"
                )
        for prev, nxt in zip(org_jobs, org_jobs[1:]):
            if nxt.release < prev.release:
                raise ValueError(
                    f"org {org}: job {nxt.index} released at {nxt.release} "
                    f"before its FIFO predecessor (released {prev.release})"
                )


def split_job(job: Job, sizes: Sequence[int]) -> list[Job]:
    """Split ``job`` into pieces with the given sizes (a Section 4 manipulation).

    The pieces inherit the release time and are submitted consecutively in
    place of the original (callers re-index the organization's stream
    afterwards; see :func:`repro.utility.axioms.apply_split`).
    """
    if sum(sizes) != job.size:
        raise ValueError(f"piece sizes {sizes!r} do not sum to job size {job.size}")
    if any(s < 1 for s in sizes):
        raise ValueError("every piece must have size >= 1")
    return [
        Job(release=job.release, org=job.org, index=job.index + off, size=s, id=-1)
        for off, s in enumerate(sizes)
    ]


def merge_jobs(jobs: Sequence[Job]) -> Job:
    """Merge consecutive jobs of one organization into one (Section 4).

    The merged job is released when the *first* piece was released (merging
    cannot make work available earlier than its parts).
    """
    if not jobs:
        raise ValueError("cannot merge an empty job list")
    org = jobs[0].org
    if any(j.org != org for j in jobs):
        raise ValueError("can only merge jobs of a single organization")
    ordered = sorted(jobs, key=lambda j: j.index)
    for a, b in zip(ordered, ordered[1:]):
        if b.index != a.index + 1:
            raise ValueError("can only merge consecutive jobs")
    return Job(
        release=max(j.release for j in ordered),
        org=org,
        index=ordered[0].index,
        size=sum(j.size for j in ordered),
        id=-1,
    )


def iter_release_times(jobs: Iterable[Job]) -> Iterator[int]:
    """Yield the distinct release times in increasing order."""
    seen = sorted({j.release for j in jobs})
    yield from seen
