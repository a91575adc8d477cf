"""Cross-module integration tests: the whole pipeline, end to end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    CurrFairShareScheduler,
    DirectContributionScheduler,
    FairShareScheduler,
    GreedyFifoScheduler,
    RandScheduler,
    RefScheduler,
    RoundRobinScheduler,
    UtFairShareScheduler,
)
from repro.algorithms.base import members_mask
from repro.algorithms.ref import RefRun
from repro.core.engine import ClusterEngine
from repro.sim.metrics import avg_delay, unfairness

from .conftest import make_workload, random_workload


def portfolio(horizon):
    return [
        RefScheduler(horizon),
        RandScheduler(10, seed=1, horizon=horizon),
        DirectContributionScheduler(seed=1, horizon=horizon),
        FairShareScheduler(horizon),
        UtFairShareScheduler(horizon),
        CurrFairShareScheduler(horizon),
        RoundRobinScheduler(horizon),
        GreedyFifoScheduler(horizon),
    ]


class TestRefSelfConsistency:
    """Definition 3.1 is recursive: the schedule REF builds for a
    subcoalition *inside* a larger run must equal a standalone REF run on
    that subcoalition's restricted workload.  This is the strongest internal
    consistency check of the whole fair-scheduling recursion."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2_000))
    def test_subcoalition_schedules_match_standalone_runs(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=10)
        members, grand = members_mask(wl, None)
        run = RefRun(wl, members, grand, horizon=None)
        run.drive()
        for mask in run.fleet.masks:
            if mask == grand:
                continue
            sub_members = [u for u in members if mask >> u & 1]
            standalone = RefScheduler().run(wl, members=sub_members)
            assert run.fleet.engine(mask).schedule() == standalone.schedule, (
                seed,
                mask,
            )


class TestPortfolioInvariants:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_all_algorithms_feasible_and_complete(self, seed):
        """Every scheduler produces a feasible greedy schedule that starts
        every job (no horizon), and all schedules execute the same total
        work by completion."""
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=18, max_release=12)
        total_work = sum(j.size for j in wl.jobs)
        for sched in portfolio(None):
            result = sched.run(wl)
            result.schedule.validate(wl)
            assert len(result.schedule) == len(wl.jobs), sched.name
            end = result.schedule.makespan()
            assert result.schedule.busy_units(end) == total_work, sched.name

    def test_ref_is_perfectly_fair_against_itself(self):
        rng = np.random.default_rng(3)
        wl = random_workload(rng, n_orgs=3, n_jobs=20)
        t = 30
        a = RefScheduler(horizon=t).run(wl)
        b = RefScheduler(horizon=t).run(wl)
        assert unfairness(a, b, t) == 0.0

    def test_unfairness_ranking_on_contended_instance(self):
        """On a deliberately contended instance, the Shapley-tracking
        algorithms must not be beaten by RoundRobin."""
        wl = make_workload(
            [2, 1, 0],
            [(0, 0, 4)] * 4
            + [(0, 1, 4)] * 6
            + [(0, 2, 4)] * 6
            + [(12, 0, 3)] * 4,
        )
        t = 40
        ref = RefScheduler(horizon=t).run(wl)
        rand_delay = avg_delay(
            RandScheduler(20, seed=0, horizon=t).run(wl), ref, t
        )
        rr_delay = avg_delay(RoundRobinScheduler(t).run(wl), ref, t)
        assert rand_delay <= rr_delay

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_utilities_sum_matches_engine_value(self, seed):
        """SchedulerResult.utilities (log-derived) agrees with the engine's
        incremental value accounting at any evaluation time."""
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=2, n_jobs=15)
        from repro.algorithms.greedy import fifo_select

        engine = ClusterEngine(wl)
        engine.drive(fifo_select)
        result = GreedyFifoScheduler().run(wl)
        for t in (0, 7, 19, 50):
            assert result.utilities(t) == engine.psis(t)


class TestTraceToFairnessPipeline:
    """Workload generation -> transforms -> scheduling -> metrics."""

    def test_full_pipeline_on_synthetic_trace(self):
        from repro.experiments.harness import sample_instance

        wl = sample_instance(
            "LPC-EGEE", 1_500, 4, np.random.default_rng(5), scale=0.1
        )
        assert wl.n_orgs == 4
        t = 1_500
        ref = RefScheduler(horizon=t).run(wl)
        fs = FairShareScheduler(horizon=t).run(wl)
        ref.schedule.validate(wl, horizon=t)
        fs.schedule.validate(wl, horizon=t)
        assert avg_delay(fs, ref, t) >= 0.0
        assert avg_delay(ref, ref, t) == 0.0

    def test_swf_round_trip_through_scheduling(self, tmp_path):
        """Generate a trace, write SWF, reload, build, schedule."""
        from repro.workloads.swf import load_swf, write_swf
        from repro.workloads.synthetic import SyntheticSpec, generate_jobs
        from repro.workloads.transforms import (
            assign_users_to_orgs,
            build_workload,
            uniform_machine_split,
        )

        rng = np.random.default_rng(0)
        spec = SyntheticSpec(
            n_machines=4, n_users=5, horizon=300, load=0.6,
            size_mu=2.0, size_sigma=0.8, max_size=30,
            session_jobs_mean=3.0, session_gap_mean=5.0,
        )
        jobs = generate_jobs(spec, rng)
        path = tmp_path / "synthetic.swf"
        write_swf(jobs, path)
        reloaded = load_swf(path)
        assert list(reloaded.jobs) == jobs

        user_map = assign_users_to_orgs(
            [j.user for j in reloaded.jobs], 2, rng
        )
        wl = build_workload(
            reloaded.jobs, uniform_machine_split(4, 2), user_map
        )
        result = GreedyFifoScheduler(horizon=300).run(wl)
        result.schedule.validate(wl, horizon=300)


class TestUnitJobTheoryChain:
    """Prop 5.4 -> Lindley values -> RAND FPRAS -> REF, chained."""

    def test_chain(self):
        from repro.shapley.exact import shapley_exact
        from repro.shapley.games import SchedulingGame

        rng = np.random.default_rng(11)
        wl = random_workload(
            rng, n_orgs=3, n_jobs=36, max_release=20, sizes=(1,),
            machine_counts=[1, 1, 1],
        )
        t = 30
        # (1) game values via Lindley == via fair recursion (Prop 5.4)
        fifo_game = SchedulingGame(wl, t, policy="fifo")
        fair_game = SchedulingGame(wl, t, policy="fair")
        for mask in range(8):
            assert fifo_game(mask) == fair_game(mask)
        # (2) REF utilities track the exact Shapley contributions
        phi = shapley_exact(fair_game, 3)
        ref = RefScheduler(horizon=t).run(wl)
        psi = ref.utilities(t)
        assert sum(psi) == fair_game(7)
        gap_ref = sum(abs(float(p) - u) for p, u in zip(phi, psi))
        # (3) ... and any single-org starvation would show a larger gap:
        rr = RoundRobinScheduler(horizon=t).run(wl)
        gap_rr = sum(
            abs(float(p) - u) for p, u in zip(phi, rr.utilities(t))
        )
        assert gap_ref <= gap_rr + 1e-9
