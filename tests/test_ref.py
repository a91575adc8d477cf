"""Tests for REF, the exact Shapley-fair scheduler (Figs. 1 + 3)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ref import GeneralRefScheduler, RefScheduler
from repro.shapley.exact import shapley_exact, shapley_exact_scaled
from repro.shapley.games import SchedulingGame
from repro.sim.metrics import manhattan

from .conftest import make_workload, random_workload


class TestUpdateVals:
    def test_matches_exact_shapley(self):
        values = {0: 0, 0b01: 4, 0b10: 6, 0b11: 14}
        phi, denom = shapley_exact_scaled(values, 2)
        # k!=2; phi scaled by 2
        assert denom == 2
        exact = shapley_exact(lambda m: values[m], 2)
        assert [Fraction(v, 2) for v in phi] == [exact[0], exact[1]]

    def test_efficiency_scaled(self):
        values = {0: 0, 1: 3, 2: 5, 3: 11, 4: 2, 5: 13, 6: 9, 7: 21}
        phi, _ = shapley_exact_scaled(values, 3)
        assert sum(phi) == 6 * values[0b111]  # 3! * v(grand)


class TestRefBehaviour:
    def test_single_org_runs_fifo(self):
        wl = make_workload([1], [(0, 0, 2), (0, 0, 3)])
        r = RefScheduler().run(wl)
        assert [(e.start, e.job.index) for e in r.schedule] == [
            (0, 0),
            (2, 1),
        ]

    def test_prioritizes_machine_contributor(self):
        """An organization that contributed its machine while idle gets
        priority when its own jobs arrive (the paper's core behaviour)."""
        # org 0: one machine, no jobs until t=4; org 1: no machines, jobs
        # from t=0 that run on org 0's machine.
        wl = make_workload(
            [1, 0],
            [(4, 0, 2), (0, 1, 2), (0, 1, 2), (4, 1, 2)],
        )
        r = RefScheduler().run(wl)
        starts = {(e.job.org, e.job.index): e.start for e in r.schedule}
        # at t=4 org 0's first job and org 1's third job compete; org 0
        # has been donating its machine, so its job must start first
        assert starts[(0, 0)] == 4
        assert starts[(1, 2)] == 6

    def test_ties_break_to_lower_org_id(self):
        wl = make_workload([1, 1], [(0, 0, 1), (0, 1, 1)])
        r = RefScheduler().run(wl)
        by_org = {e.job.org: e for e in r.schedule}
        assert by_org[0].start == 0 and by_org[1].start == 0

    def test_contributions_match_fair_game_shapley(self):
        wl = make_workload(
            [1, 1],
            [(0, 0, 1), (0, 0, 1), (0, 0, 1), (0, 1, 1)],
        )
        t = 4
        phi_ref = RefScheduler().contributions_at(wl, t)
        game = SchedulingGame(wl, t, policy="fair")
        phi_game = shapley_exact(game, 2)
        assert phi_ref == phi_game

    def test_collect_contributions_meta(self):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2)])
        r = RefScheduler(horizon=6, collect_contributions=True).run(wl)
        phi = r.meta["contributions"]
        assert sum(phi) == r.value(6)  # efficiency at the horizon

    def test_contributions_efficiency(self):
        rng = np.random.default_rng(5)
        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=8)
        t = 15
        phi = RefScheduler().contributions_at(wl, t)
        ref = RefScheduler(horizon=t).run(wl)
        assert sum(phi) == ref.value(t)

    def test_needs_an_organization(self):
        wl = make_workload([1], [(0, 0, 1)])
        with pytest.raises(ValueError):
            RefScheduler().run(wl, members=[])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_schedules_feasible_and_greedy(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=10)
        r = RefScheduler().run(wl)
        r.schedule.validate(wl)

    def test_horizon_prefix(self):
        rng = np.random.default_rng(11)
        wl = random_workload(rng, n_orgs=2, n_jobs=12)
        full = RefScheduler().run(wl)
        cut = RefScheduler(horizon=10).run(wl)
        assert list(cut.schedule) == [
            e for e in full.schedule if e.start < 10
        ]


class TestRefIsLocallyFairest:
    """Definition 3.1: at its first decision, REF's choice minimizes the
    distance between utility and contribution vectors among all greedy
    alternatives (checked by brute-forcing the alternative choices)."""

    def test_first_decision_minimizes_distance(self):
        wl = make_workload(
            [1, 1],
            [(0, 0, 2), (1, 0, 2), (0, 1, 3), (3, 1, 1)],
        )
        t_eval = 6
        ref = RefScheduler(horizon=t_eval)
        result = ref.run(wl)
        phi = ref.contributions_at(wl, t_eval)
        psi = result.utilities(t_eval)
        ref_dist = manhattan([float(p) for p in phi], psi)
        # alternative: force the *other* org first at every tie by
        # reversing ids via a relabeled workload; fairness distance of REF
        # must be minimal among the sampled alternatives
        from repro.algorithms import (
            GreedyFifoScheduler,
            RoundRobinScheduler,
        )

        for alt in (GreedyFifoScheduler(t_eval), RoundRobinScheduler(t_eval)):
            alt_res = alt.run(wl)
            alt_dist = manhattan(
                [float(p) for p in phi], alt_res.utilities(t_eval)
            )
            assert ref_dist <= alt_dist + 1e-9


class TestGeneralRef:
    def test_psi_sp_matches_specialized_ref(self):
        """With the strategy-proof utility, the general Distance rule and
        Fig. 3's argmax rule build the same schedule."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=8)
            a = RefScheduler().run(wl)
            b = GeneralRefScheduler().run(wl)
            assert a.schedule == b.schedule, seed

    def test_runs_with_flow_time_utility(self):
        from repro.utility.classic import FlowTimeUtility

        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2), (1, 0, 1)])
        r = GeneralRefScheduler(FlowTimeUtility()).run(wl)
        r.schedule.validate(wl)
        assert r.meta["utility"] == "neg_flow_time"
