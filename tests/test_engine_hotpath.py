"""The engine's per-start path (DESIGN.md §2.1/§2.2): an appending
``submit``, the one-pass FIFO pick, one record per start, and
``consumed_cpu`` at past, present and future times."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import fifo_select
from repro.core.coalition import iter_subsets
from repro.core.engine import ClusterEngine
from repro.core.fleet import CoalitionFleet
from repro.core.job import Job
from repro.core.organization import Organization
from repro.core.workload import Workload

from .conftest import make_workload, random_workload


def reference_fifo(engine) -> int:
    """The global FIFO pick as a key function over the read API."""
    return min(
        engine.waiting_orgs(), key=lambda u: (engine.head_release(u), u)
    )


def consumed_from_log(entries, org: int, t: int) -> int:
    return sum(
        min(e.job.size, max(0, t - e.start))
        for e in entries
        if e.job.org == org
    )


def assert_one_record(eng) -> None:
    """Every completed-log entry is the very object its start logged."""
    started = {e.job.id: e for e in eng.start_log}
    for e in eng.completed_log:
        assert e is started[e.job.id]


# ----------------------------------------------------------------------
# submit: an engine fed online equals the frozen-stream engine
# ----------------------------------------------------------------------
@st.composite
def online_feeds(draw):
    """Machines, jobs, and a submission plan: each job is submitted
    ``lag`` units before its release (at 0 at the earliest), in a drawn
    order among the jobs submitted at the same time."""
    k = draw(st.integers(1, 3))
    machines = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, k - 1), st.integers(1, 4)
            ),
            max_size=14,
        )
    )
    counters = [0] * k
    jobs = []
    for i, (release, org, size) in enumerate(
        sorted(rows, key=lambda r: (r[1], r[0]))
    ):
        jobs.append(Job(release, org, counters[org], size, id=i))
        counters[org] += 1
    lags = draw(
        st.lists(st.integers(0, 4), min_size=len(jobs), max_size=len(jobs))
    )
    order = draw(st.permutations(range(len(jobs))))
    keys = [
        (max(0, j.release - lag), pos)
        for j, lag, pos in zip(jobs, lags, order)
    ]
    # an organization submits in index order (a service assigns the
    # index at submission): hand its keys to its jobs in that order
    for u in range(k):
        mine = [i for i, j in enumerate(jobs) if j.org == u]
        for i, key in zip(mine, sorted(keys[i] for i in mine)):
            keys[i] = key
    plan = sorted((*key, job) for key, job in zip(keys, jobs))
    orgs = tuple(Organization(u, m) for u, m in enumerate(machines))
    return orgs, jobs, [(when, job) for when, _, job in plan]


def feed_online(orgs, plan) -> ClusterEngine:
    """Run greedy FIFO on an engine that learns each job only at its
    submission time, through :meth:`ClusterEngine.submit`."""
    eng = ClusterEngine(Workload(orgs, ()))
    i = 0
    while True:
        t = eng.next_event_time()
        if i < len(plan) and (t is None or plan[i][0] < t):
            t = plan[i][0]
        if t is None:
            return eng
        eng.advance_to(t)
        while i < len(plan) and plan[i][0] == t:
            eng.submit(plan[i][1])  # release == t included
            i += 1
        eng.advance_to(t)  # releases what was submitted for t
        eng.fill(fifo_select)


@settings(max_examples=150, deadline=None)
@given(feed=online_feeds())
def test_submitted_stream_equals_frozen_stream(feed):
    orgs, jobs, plan = feed
    online = feed_online(orgs, plan)
    frozen = ClusterEngine(Workload(orgs, jobs))
    frozen.drive(fifo_select)
    assert online.t == frozen.t
    assert online.start_log == frozen.start_log
    assert online.completed_log == frozen.completed_log
    for t in range(frozen.t + 3):
        assert online.psis(t) == frozen.psis(t)
        assert online.psis_by_machine_owner(t) == (
            frozen.psis_by_machine_owner(t)
        )
        assert online.value(t) == frozen.value(t)


def test_submit_appends_at_the_tail_and_inserts_before_it():
    orgs = (Organization(0, 1), Organization(1, 1))
    a = Job(3, 1, 0, 2, id=0)
    b = Job(3, 0, 0, 2, id=1)  # same release, sorts before a
    c = Job(5, 0, 1, 1, id=2)
    eng = ClusterEngine(Workload(orgs, ()))
    for job in (a, c, b):
        eng.submit(job)
    frozen = ClusterEngine(Workload(orgs, (a, b, c)))
    eng.drive(fifo_select)
    frozen.drive(fifo_select)
    assert eng.start_log == frozen.start_log
    assert [e.job for e in eng.start_log] == [b, a, c]


# ----------------------------------------------------------------------
# fifo_select: the one-pass pick is the reference pick
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fifo_select_is_the_reference_pick(seed):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=4, n_jobs=30, max_release=8)
    eng = ClusterEngine(wl)
    assert fifo_select(eng) == -1  # nothing released yet
    while (t := eng.next_event_time()) is not None:
        eng.advance_to(t)
        while eng.free_count and eng.has_waiting():
            assert fifo_select(eng) == reference_fifo(eng)
            # start a random waiting org, so states off FIFO's path occur
            waiting = eng.waiting_orgs()
            eng.start_next(waiting[int(rng.integers(len(waiting)))])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.integers(0, 12))
def test_kernel_row_fifo_head_is_the_reference_pick(seed, t):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=10)
    masks = [m for m in iter_subsets(0b111) if m]
    fleet = CoalitionFleet(wl, masks, backend="kernel")
    fleet.advance_all(t)  # releases without starts: queues build up
    for row, m in enumerate(fleet.masks):
        eng = fleet.kernel.materialize_row(row)
        assert eng.waiting_orgs() == fleet.engine(m).waiting_orgs()
        expect = reference_fifo(eng) if eng.has_waiting() else -1
        assert eng.fifo_head() == expect


# ----------------------------------------------------------------------
# one record per start
# ----------------------------------------------------------------------
class TestOneRecordPerStart:
    def _workload(self, seed):
        rng = np.random.default_rng(seed)
        return random_workload(
            rng, n_orgs=3, n_jobs=24, max_release=12,
            machine_counts=[2, 1, 1],
        )

    def test_drive(self):
        eng = ClusterEngine(self._workload(0))
        eng.drive(fifo_select)
        assert len(eng.completed_log) == 24
        assert_one_record(eng)

    def test_fork(self):
        eng = ClusterEngine(self._workload(1))
        eng.drive(fifo_select, until=8)
        clone = eng.fork()
        for e in (eng, clone):
            e.drive(fifo_select)
            assert_one_record(e)
        assert clone.completed_log == eng.completed_log

    def test_image_restore(self):
        wl = self._workload(2)
        eng = ClusterEngine(wl)
        eng.drive(fifo_select, until=8)
        restored = ClusterEngine.from_image(
            eng.image(),
            workload=wl,
            members=eng.members,
            machine_owner=eng.machine_owner,
            jobs={j.id: j for j in sorted(wl.jobs)},
        )
        assert restored.running_counts() == eng.running_counts()
        assert_one_record(restored)
        restored.drive(fifo_select)
        eng.drive(fifo_select)
        assert_one_record(restored)
        assert restored.completed_log == eng.completed_log

    def test_materialize_row(self):
        wl = self._workload(3)
        masks = [m for m in iter_subsets(0b111) if m]
        fleet = CoalitionFleet(wl, masks, backend="kernel")
        fleet.values_array(8, select=fifo_select)
        for row, m in enumerate(fleet.masks):
            eng = fleet.kernel.materialize_row(row)
            assert_one_record(eng)
            eng.drive(fifo_select)
            assert_one_record(eng)
            batch = ClusterEngine(wl, list(eng.members))
            batch.drive(fifo_select)
            assert eng.completed_log == batch.completed_log
        assert fleet.backend_status()["backend"] == "kernel"

    def test_running_on_carries_the_log_entry(self):
        wl = make_workload([1, 1], [(0, 0, 5), (0, 1, 3)])
        eng = ClusterEngine(wl)
        eng.drive(fifo_select, until=0)
        for e in eng.start_log:
            assert eng.running_on(e.machine) is e


# ----------------------------------------------------------------------
# consumed_cpu at any time
# ----------------------------------------------------------------------
def test_consumed_cpu_before_a_running_start():
    # one machine: a size-3 job at 0, then a size-4 job at 5
    eng = ClusterEngine(make_workload([1], [(0, 0, 3), (5, 0, 4)]))
    eng.drive(fifo_select, until=5)
    assert eng.t == 5 and eng.running_count(0) == 1
    assert [eng.consumed_cpu(0, t) for t in (2, 4, 5, 7, 20)] == [
        2, 3, 3, 5, 7
    ]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), until=st.integers(0, 25))
def test_consumed_cpu_is_the_start_log_sum(seed, until):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=12)
    eng = ClusterEngine(wl)
    eng.drive(fifo_select, until=until)
    masks = [m for m in iter_subsets(0b111) if m]
    fleet = CoalitionFleet(wl, masks, backend="kernel")
    fleet.values_array(until, select=fifo_select)
    row = fleet.kernel.materialize_row(fleet.masks.index(0b111))
    for t in range(until + 8):  # past, present and future
        for u in range(3):
            expect = consumed_from_log(eng.start_log, u, t)
            assert eng.consumed_cpu(u, t) == expect, (u, t)
            assert row.consumed_cpu(u, t) == consumed_from_log(
                fleet.engine(0b111).schedule(), u, t
            ), (u, t)
