"""Tests for the executable axiom checkers and workload manipulations."""

import pytest

from repro.utility.axioms import (
    apply_delay,
    apply_merge,
    apply_split,
    check_merge_split_invariance,
    check_start_time_anonymity,
    check_task_count_anonymity,
    delay_never_profitable,
)
from repro.utility.classic import CompletedCountUtility, FlowTimeUtility
from repro.utility.strategyproof import StrategyProofUtility

from .conftest import make_workload


class TestCheckers:
    def setup_method(self):
        self.sp = StrategyProofUtility()

    def test_psi_sp_passes_all(self):
        base_a = [(0, 2), (5, 1)]
        base_b = [(3, 4)]
        assert check_start_time_anonymity(
            self.sp, base_a, base_b, 20, s_a=1, s_b=6, p=3
        )
        assert check_task_count_anonymity(
            self.sp, base_a, base_b, 20, s=2, p=3
        )
        assert check_merge_split_invariance(
            self.sp, base_a, 20, s=1, p1=2, p2=3
        )
        assert delay_never_profitable(self.sp, base_a, 20, s=4, p=2)

    def test_flow_time_fails_merge_split(self):
        util = FlowTimeUtility()
        assert not check_merge_split_invariance(
            util, [], 20, s=0, p1=2, p2=3
        )

    def test_completed_count_fails_start_anonymity(self):
        util = CompletedCountUtility()
        # moving a completed job around changes nothing -> gain is 0, and
        # the axiom demands strictly positive gains
        assert not check_start_time_anonymity(
            util, [], [], 20, s_a=0, s_b=5, p=2
        )

    def test_time_bound_enforced(self):
        with pytest.raises(ValueError):
            check_start_time_anonymity(
                self.sp, [], [], 5, s_a=5, s_b=0, p=1
            )
        with pytest.raises(ValueError):
            check_task_count_anonymity(self.sp, [], [], 5, s=5, p=1)


class TestWorkloadManipulations:
    def base(self):
        return make_workload(
            [1, 1],
            [(0, 0, 6), (2, 0, 3), (0, 1, 4)],
        )

    def test_apply_split(self):
        wl = apply_split(self.base(), org=0, job_index=0, sizes=[2, 4])
        sizes = [j.size for j in wl.jobs_of(0)]
        assert sizes == [2, 4, 3]
        # FIFO indices contiguous
        assert [j.index for j in wl.jobs_of(0)] == [0, 1, 2]
        # other organizations untouched
        assert [j.size for j in wl.jobs_of(1)] == [4]

    def test_apply_split_bad_sizes(self):
        with pytest.raises(ValueError):
            apply_split(self.base(), org=0, job_index=0, sizes=[1, 1])

    def test_apply_split_refuses_a_missing_job(self):
        """A job the organization does not have is refused, as
        ``apply_merge`` refuses its range, not returned unchanged."""
        with pytest.raises(ValueError, match="out of bounds"):
            apply_split(self.base(), org=0, job_index=2, sizes=[1, 2])
        with pytest.raises(ValueError, match="out of bounds"):
            apply_split(self.base(), org=1, job_index=1, sizes=[2, 2])

    def test_apply_merge(self):
        wl = apply_merge(self.base(), org=0, first_index=0, count=2)
        jobs = wl.jobs_of(0)
        assert [j.size for j in jobs] == [9]
        assert jobs[0].release == 2  # released when the last piece was

    def test_apply_merge_bad_range(self):
        with pytest.raises(ValueError):
            apply_merge(self.base(), org=0, first_index=1, count=3)
        with pytest.raises(ValueError):
            apply_merge(self.base(), org=0, first_index=0, count=1)

    def test_apply_delay(self):
        wl = apply_delay(self.base(), org=0, delta=5)
        assert [j.release for j in wl.jobs_of(0)] == [5, 7]
        assert [j.release for j in wl.jobs_of(1)] == [0]

    def test_split_preserves_total_work(self):
        before = sum(j.size for j in self.base().jobs)
        wl = apply_split(self.base(), org=0, job_index=1, sizes=[1, 1, 1])
        assert sum(j.size for j in wl.jobs) == before
