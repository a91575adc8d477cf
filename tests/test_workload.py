"""Unit tests for repro.core.workload."""

import copy
import pickle

import pytest

from repro.core.job import Job
from repro.core.organization import Organization
from repro.core.workload import Workload

from .conftest import make_workload


class TestConstruction:
    def test_ids_assigned_when_negative(self):
        wl = make_workload([1], [(0, 0, 1), (1, 0, 2)])
        assert sorted(j.id for j in wl.jobs) == [0, 1]

    def test_non_contiguous_org_ids_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Workload([Organization(1, 1)], [])

    def test_unknown_org_in_job_rejected(self):
        with pytest.raises(ValueError, match="unknown org"):
            Workload([Organization(0, 1)], [Job(0, 3, 0, 1)])

    def test_duplicate_explicit_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Workload(
                [Organization(0, 1)],
                [Job(0, 0, 0, 1, id=5), Job(0, 0, 1, 1, id=5)],
            )

    def test_immutable(self):
        wl = make_workload([1], [(0, 0, 1)])
        with pytest.raises(AttributeError):
            wl.jobs = ()

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda wl: pickle.loads(pickle.dumps(wl))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip(self, copier):
        wl = make_workload([2, 1], [(0, 0, 3), (1, 1, 2), (2, 0, 1)])
        twin = copier(wl)
        assert twin == wl and hash(twin) == hash(wl)
        assert twin.jobs_of(0) == wl.jobs_of(0)
        with pytest.raises(AttributeError):
            twin.jobs = ()

    def test_fifo_validation_applied(self):
        with pytest.raises(ValueError, match="FIFO"):
            Workload(
                [Organization(0, 1)],
                [Job(5, 0, 0, 1), Job(1, 0, 1, 1)],
            )


class TestAccessors:
    def test_machine_counts_and_shares(self):
        wl = make_workload([3, 1], [(0, 0, 1)])
        assert wl.n_machines == 4
        assert wl.machine_counts() == (3, 1)
        assert wl.shares() == (0.75, 0.25)

    def test_shares_need_machines(self):
        wl = make_workload([0, 0], [(0, 0, 1)])
        with pytest.raises(ValueError):
            wl.shares()

    def test_jobs_of_in_fifo_order(self):
        wl = make_workload([1, 1], [(0, 0, 2), (1, 0, 1), (0, 1, 9)])
        assert [j.size for j in wl.jobs_of(0)] == [2, 1]
        assert [j.size for j in wl.jobs_of(1)] == [9]

    def test_stats(self):
        wl = make_workload([2], [(0, 0, 4), (2, 0, 2)])
        st = wl.stats()
        assert st.n_jobs == 2
        assert st.total_work == 6
        assert st.horizon == 4  # max(release + size)
        assert st.max_size == 4
        assert st.mean_size == 3.0


class TestTransforms:
    def test_restrict_keeps_ids_zeroes_others(self):
        wl = make_workload([2, 3, 1], [(0, 0, 1), (0, 1, 1), (0, 2, 1)])
        sub = wl.restrict([0, 2])
        assert sub.n_orgs == 3  # husks keep the id space
        assert sub.machine_counts() == (2, 0, 1)
        assert {j.org for j in sub.jobs} == {0, 2}

    def test_window_rebases_and_reindexes(self):
        wl = make_workload(
            [1], [(0, 0, 1), (5, 0, 2), (7, 0, 3), (11, 0, 4)]
        )
        win = wl.window(5, 10)
        assert [(j.release, j.size, j.index) for j in win.jobs] == [
            (0, 2, 0),
            (2, 3, 1),
        ]

    def test_window_bad_range(self):
        wl = make_workload([1], [(0, 0, 1)])
        with pytest.raises(ValueError):
            wl.window(5, 3)

    def test_with_unit_jobs_preserves_work(self):
        wl = make_workload([1, 1], [(0, 0, 3), (2, 1, 2)])
        unit = wl.with_unit_jobs()
        assert all(j.size == 1 for j in unit.jobs)
        assert len(unit.jobs) == 5
        assert sum(j.size for j in unit.jobs) == sum(
            j.size for j in wl.jobs
        )
        # releases preserved per chunk
        assert sorted(j.release for j in unit.jobs) == [0, 0, 0, 2, 2]

    def test_map_jobs_revalidates(self):
        wl = make_workload([1], [(0, 0, 1), (3, 0, 1)])
        shifted = wl.map_jobs(lambda j: j.delayed(2))
        assert [j.release for j in shifted.jobs] == [2, 5]

    def test_equality_and_hash(self):
        a = make_workload([1], [(0, 0, 1)])
        b = make_workload([1], [(0, 0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_workload([2], [(0, 0, 1)])
