"""Unit tests for repro.core.schedule (feasibility checks, metrics)."""

import pytest

from repro.core.job import Job
from repro.core.schedule import Schedule, ScheduledJob

from .conftest import make_workload


def entry(release, org, index, size, start, machine):
    return ScheduledJob(start, machine, Job(release, org, index, size))


class TestScheduleBasics:
    def test_entries_sorted_by_start(self):
        s = Schedule(
            [entry(0, 0, 1, 1, 5, 0), entry(0, 0, 0, 1, 2, 0)]
        )
        assert [e.start for e in s] == [2, 5]

    def test_org_pairs(self):
        s = Schedule(
            [entry(0, 0, 0, 3, 0, 0), entry(0, 1, 0, 2, 1, 1)]
        )
        assert s.org_pairs(0) == [(0, 3)]
        assert s.org_pairs(1) == [(1, 2)]

    def test_makespan_and_busy_units(self):
        s = Schedule(
            [entry(0, 0, 0, 3, 0, 0), entry(0, 0, 1, 4, 3, 0)]
        )
        assert s.makespan() == 7
        assert s.busy_units(0) == 0
        assert s.busy_units(3) == 3
        assert s.busy_units(5) == 5
        assert s.busy_units(100) == 7

    def test_utilization(self):
        s = Schedule([entry(0, 0, 0, 3, 0, 0)])
        assert s.utilization(6, 1) == 0.5
        with pytest.raises(ValueError):
            s.utilization(0, 1)

    def test_flow_time(self):
        s = Schedule(
            [entry(0, 0, 0, 3, 0, 0), entry(2, 0, 1, 2, 3, 0)]
        )
        # completions 3 and 5; releases 0 and 2 -> flow = 3 + 3
        assert s.flow_time() == 6
        assert s.flow_time(t=3) == 3  # only the first job finished

    def test_start_of(self):
        j = Job(0, 0, 0, 1, id=42)
        s = Schedule([ScheduledJob(7, 0, j)])
        assert s.start_of(42) == 7
        with pytest.raises(KeyError):
            s.start_of(99)

    def test_immutable_and_hashable(self):
        s = Schedule([entry(0, 0, 0, 3, 0, 0)])
        with pytest.raises(AttributeError, match="immutable"):
            s.entries = ()
        same = Schedule([entry(0, 0, 0, 3, 0, 0)])
        assert hash(s) == hash(same)
        assert {s, same} == {s}
        assert Schedule([entry(0, 0, 0, 3, 1, 0)]) not in {s}


class TestValidation:
    def wl(self):
        return make_workload([1, 1], [(0, 0, 2), (1, 0, 1), (0, 1, 3)])

    def test_valid_schedule_passes(self):
        wl = self.wl()
        s = Schedule(
            [
                ScheduledJob(0, 0, wl.jobs_of(0)[0]),
                ScheduledJob(2, 0, wl.jobs_of(0)[1]),
                ScheduledJob(0, 1, wl.jobs_of(1)[0]),
            ]
        )
        s.validate(wl)

    def test_start_before_release_rejected(self):
        wl = self.wl()
        s = Schedule([ScheduledJob(0, 0, wl.jobs_of(0)[1])])
        with pytest.raises(ValueError, match="before release"):
            s.validate(wl, check_greedy=False)

    def test_machine_overlap_rejected(self):
        wl = self.wl()
        s = Schedule(
            [
                ScheduledJob(0, 0, wl.jobs_of(0)[0]),
                ScheduledJob(1, 0, wl.jobs_of(1)[0]),
            ]
        )
        with pytest.raises(ValueError, match="overlap"):
            s.validate(wl, check_greedy=False)

    def test_fifo_violation_rejected(self):
        wl = make_workload([2], [(0, 0, 2), (0, 0, 2)])
        s = Schedule(
            [
                ScheduledJob(1, 0, wl.jobs_of(0)[1]),  # index 1 first
                ScheduledJob(2, 1, wl.jobs_of(0)[0]),
            ]
        )
        with pytest.raises(ValueError, match="FIFO"):
            s.validate(wl, check_greedy=False)

    def test_greedy_violation_detected(self):
        wl = self.wl()
        # machine 1 idles at t=0 while org 1's job (released 0) waits
        s = Schedule(
            [
                ScheduledJob(0, 0, wl.jobs_of(0)[0]),
                ScheduledJob(2, 0, wl.jobs_of(0)[1]),
                ScheduledJob(3, 1, wl.jobs_of(1)[0]),
            ]
        )
        with pytest.raises(ValueError, match="greedy"):
            s.validate(wl)
        s.validate(wl, check_greedy=False)  # otherwise feasible

    def test_non_member_machine_rejected(self):
        wl = self.wl()
        s = Schedule([ScheduledJob(0, 1, wl.jobs_of(0)[0])])
        with pytest.raises(ValueError, match="outside"):
            s.validate(wl, members=[0], check_greedy=False)

    def test_non_member_job_rejected(self):
        wl = self.wl()
        # org 0's job placed on org 1's machine while only org 1 is a member
        s = Schedule([ScheduledJob(0, 0, wl.jobs_of(0)[0])])
        with pytest.raises(ValueError, match="non-member"):
            s.validate(wl, members=[1], machine_owners=[1, 0],
                       check_greedy=False)

    def test_empty_schedule_with_no_machines(self):
        wl = make_workload([0], [(0, 0, 1)])
        Schedule([]).validate(wl)  # nothing can run; vacuously greedy
