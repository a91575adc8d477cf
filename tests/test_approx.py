"""Certified approximation ladder (DESIGN.md §12): samplers, confidence
intervals, the adaptive certifier's agreement with the exact oracle, the
hierarchical decomposition's invariants, and the ``repro gap --policy`` /
``scale``-family plumbing that exercises them past the exact ceiling."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from repro.algorithms.base import members_mask
from repro.algorithms.greedy import fifo_select
from repro.algorithms.rand import RandScheduler
from repro.analysis.inapprox import gap_workload, policy_order_gap
from repro.approx import (
    AdaptiveScheduler,
    HierScheduler,
    StratifiedScheduler,
    agreement_report,
    org_blocks,
)
from repro.approx.adaptive import CERTIFICATE_KINDS, AdaptiveRun, wave_sizes
from repro.approx.validate import ORACLE_MAX_ORGS, ExactDecisionOracle
from repro.core.coalition import iter_subsets
from repro.core.fleet import CoalitionFleet
from repro.core.job import Job
from repro.core.kernel import kernel_certified
from repro.core.organization import Organization
from repro.core.workload import Workload
from repro.experiments.registry import get_family, get_scenario
from repro.experiments.spec import ScenarioSpec
from repro.policies import CapabilityError, PolicySpec, build_scheduler
from repro.service import ClusterService
from repro.shapley.confidence import (
    empirical_bernstein_halfwidth,
    hoeffding_halfwidth,
    interval_halfwidth,
    separates_argmax,
)
from repro.shapley.sampling import (
    ORDERING_SAMPLERS,
    SampledPrefixes,
    antithetic_orderings,
    hoeffding_samples,
    sample_member_orderings,
    sample_orderings,
    stratified_orderings,
)

from benchmarks.conftest import service_workload


def asym_workload(seed: int, k: int = 6) -> Workload:
    """Asymmetric org endowments and job mixes: no two orgs play the same
    role, so fair-select keys genuinely differ and CI separation has
    something to certify (symmetric orgs are exact ties -- never
    separable by sampling)."""
    rng = np.random.default_rng(seed)
    machines = [3, 1, 2, 1, 1, 2, 1, 1][:k]
    orgs = [Organization(u, machines[u]) for u in range(k)]
    jobs = []
    for u in range(k):
        n = int(rng.integers(2, 6))
        rels = sorted(int(r) for r in rng.integers(0, 12, size=n))
        for i, r in enumerate(rels):
            size = int(rng.integers(1, 5)) + u % 3
            jobs.append(Job(org=u, index=i, release=r, size=size))
    return Workload(organizations=orgs, jobs=jobs)


# ----------------------------------------------------------------------
# ordering samplers
# ----------------------------------------------------------------------
class TestSamplers:
    members = np.array([2, 5, 7], dtype=np.int64)

    def test_all_rows_are_member_permutations(self):
        for name, draw in ORDERING_SAMPLERS.items():
            rows = draw(self.members, 7, np.random.default_rng(1))
            assert rows.shape == (7, 3), name
            for row in rows:
                assert sorted(row.tolist()) == [2, 5, 7], name

    def test_antithetic_pairs_are_reverses(self):
        rows = antithetic_orderings(
            self.members, 6, np.random.default_rng(2)
        )
        for i in range(0, 6, 2):
            assert rows[i + 1].tolist() == rows[i][::-1].tolist()

    def test_stratified_block_covers_every_position_once(self):
        k = 5
        members = np.arange(10, 10 + k, dtype=np.int64)
        rows = stratified_orderings(
            members, k, np.random.default_rng(3), antithetic=False
        )
        # one block = k cyclic rotations: each member sits in each
        # position exactly once
        for pos in range(k):
            assert sorted(rows[:, pos].tolist()) == members.tolist()

    def test_stratified_antithetic_block_structure(self):
        k = 4
        members = np.arange(k, dtype=np.int64)
        rows = stratified_orderings(
            members, 2 * k, np.random.default_rng(4), antithetic=True
        )
        for i in range(0, 2 * k, 2):
            assert rows[i + 1].tolist() == rows[i][::-1].tolist()

    def test_seed_stability_pinned_draws(self):
        # the exact historical RAND draw stream -- a sampler refactor
        # that shifts these silently invalidates every seeded golden
        # schedule in the repo
        assert sample_member_orderings(
            self.members, 4, np.random.default_rng(0)
        ).tolist() == [[7, 2, 5], [7, 5, 2], [7, 2, 5], [5, 7, 2]]
        assert sample_orderings(4, 3, np.random.default_rng(0)).tolist() == [
            [2, 0, 1, 3],
            [3, 2, 1, 0],
            [1, 3, 0, 2],
        ]
        assert antithetic_orderings(
            self.members, 4, np.random.default_rng(0)
        ).tolist() == [[7, 2, 5], [5, 2, 7], [7, 5, 2], [2, 5, 7]]
        assert stratified_orderings(
            self.members, 6, np.random.default_rng(0), antithetic=False
        ).tolist() == [
            [7, 2, 5],
            [2, 5, 7],
            [5, 7, 2],
            [7, 5, 2],
            [5, 2, 7],
            [2, 7, 5],
        ]

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            sample_member_orderings(self.members, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stratified_orderings(self.members, 0, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Theorem 5.6 budgets on RAND (satellite: tunable PolicySpec params)
# ----------------------------------------------------------------------
class TestHoeffdingBudget:
    def test_resolve_budget_precedence(self):
        s = RandScheduler(n_orderings=15)
        assert s.resolve_budget(5) == 15
        s = RandScheduler(n_orderings=15, epsilon=0.5, delta=0.05)
        assert s.resolve_budget(5) == hoeffding_samples(5, 0.5, 0.95)
        # explicit n_samples beats both
        s = RandScheduler(n_orderings=15, epsilon=0.5, n_samples=7)
        assert s.resolve_budget(5) == 7

    def test_budget_resolved_from_actual_member_count(self):
        wl = asym_workload(0, k=4)
        sched = build_scheduler("rand:epsilon=0.8,delta=0.1", seed=0, horizon=40)
        res = sched.run(wl)
        assert res.algorithm == "Rand(eps=0.8,delta=0.1)"
        assert sched.resolve_budget(4) == hoeffding_samples(4, 0.8, 0.9)

    def test_policy_spec_content_hash_covers_budget_params(self):
        base = PolicySpec.make("rand", n_orderings=15)
        hashes = {
            base.content_hash(),
            PolicySpec.make("rand", n_orderings=15, epsilon=0.5).content_hash(),
            PolicySpec.make("rand", n_orderings=15, n_samples=7).content_hash(),
            PolicySpec.make(
                "rand", n_orderings=15, epsilon=0.5, delta=0.1
            ).content_hash(),
        }
        assert len(hashes) == 4

    def test_scenario_reference_hash_migration(self):
        base = ScenarioSpec(family="synthetic")
        explicit = ScenarioSpec(family="synthetic", reference="ref")
        custom = ScenarioSpec(
            family="synthetic", reference="ref_hier:block_size=5"
        )
        # the default reference must hash like the pre-field spec (cache
        # keys of every committed run survive the migration)
        assert base.content_hash() == explicit.content_hash()
        assert base.content_hash() != custom.content_hash()


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------
class TestConfidence:
    def test_hoeffding_shrinks_with_n(self):
        widths = [hoeffding_halfwidth(n, 10.0, 0.05) for n in (1, 4, 16, 64)]
        assert widths == sorted(widths, reverse=True)
        assert hoeffding_halfwidth(5, 0.0, 0.05) == 0.0

    def test_bernstein_beats_hoeffding_at_low_variance(self):
        # near-deterministic marginals: the variance term vanishes and
        # the range term decays as 1/n
        n, rng_bound = 512, 100.0
        eb = empirical_bernstein_halfwidth(n, 1e-6, rng_bound, 0.05)
        hoef = hoeffding_halfwidth(n, rng_bound, 0.05)
        assert eb < hoef
        assert interval_halfwidth(n, 1e-6, rng_bound, 0.05) == eb

    def test_interval_is_min_of_both(self):
        args = (8, 50.0, 10.0, 0.05)
        assert interval_halfwidth(*args) == min(
            hoeffding_halfwidth(8, 10.0, 0.05),
            empirical_bernstein_halfwidth(*args),
        )

    def test_separates_argmax(self):
        means = {0: 10.0, 1: 5.0, 2: 4.0}
        tight = {0: 1.0, 1: 1.0, 2: 1.0}
        wide = {0: 3.0, 1: 3.0, 2: 3.0}
        assert separates_argmax(0, [0, 1, 2], means, tight)
        assert not separates_argmax(0, [0, 1, 2], means, wide)
        # an exact tie never separates, however tight the intervals
        means_tie = {0: 5.0, 1: 5.0}
        assert not separates_argmax(0, [0, 1], means_tie, {0: 0.0, 1: 0.0})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hoeffding_halfwidth(0, 1.0, 0.05)
        with pytest.raises(ValueError):
            hoeffding_halfwidth(1, 1.0, 1.5)
        with pytest.raises(ValueError):
            empirical_bernstein_halfwidth(1, -1.0, 1.0, 0.05)


# ----------------------------------------------------------------------
# wave plan
# ----------------------------------------------------------------------
class TestWavePlan:
    def test_geometric_doubling_lands_on_budget(self):
        assert wave_sizes(8, 1024) == [8, 8, 16, 32, 64, 128, 256, 512]
        assert sum(wave_sizes(8, 1024)) == 1024
        assert wave_sizes(4, 10) == [4, 4, 2]
        assert wave_sizes(5, 5) == [5]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            wave_sizes(0, 8)
        with pytest.raises(ValueError):
            wave_sizes(8, 4)


# ----------------------------------------------------------------------
# agreement with the exact oracle (the acceptance criterion)
# ----------------------------------------------------------------------
GOLDEN_CELLS = [
    (
        "churn",
        dict(
            family="churn",
            traces=("LPC-EGEE",),
            duration=600,
            n_repeats=1,
            scale=0.08,
            seed=7,
            org_counts=(2, 3, 4, 5),
        ),
    ),
    (
        "federated",
        dict(
            family="federated",
            traces=("FED",),
            duration=300,
            n_repeats=1,
            seed=3,
            n_orgs=4,
            machine_dist="uniform",
        ),
    ),
    (
        "synthetic",
        dict(
            family="synthetic",
            traces=("LPC-EGEE",),
            duration=600,
            n_repeats=1,
            scale=0.08,
            seed=7,
            n_orgs=5,
        ),
    ),
]


class TestAgreement:
    @pytest.mark.parametrize("family,kwargs", GOLDEN_CELLS)
    def test_certified_decisions_match_exact_argmax(self, family, kwargs):
        """Every *certified* adaptive decision at k <= 10 must equal the
        full-lattice exact argmax, and the default budget must certify
        >= 95% of decisions on the golden scenario cells."""
        spec = ScenarioSpec(**kwargs)
        build = get_family(family)
        for inst in spec.instances():
            workload, alg_seed = build(spec, inst)
            res = AdaptiveScheduler(
                seed=alg_seed, horizon=spec.duration
            ).run(workload)
            report = agreement_report(
                workload, res.meta["certificates"], horizon=spec.duration
            )
            assert report["mismatches"] == [], (family, inst.key)
            assert res.meta["certified_rate"] >= 0.95, (family, inst.key)

    def test_sampled_regime_certified_agreement(self):
        # force the sampled regime (k! > n_max) -- certified decisions
        # must still agree; uncertified ones are allowed to exist
        spec = ScenarioSpec(
            family="federated",
            traces=("FED",),
            duration=300,
            n_repeats=1,
            seed=3,
            n_orgs=5,
            machine_dist="uniform",
        )
        inst = spec.instances()[0]
        workload, alg_seed = get_family("federated")(spec, inst)
        res = AdaptiveScheduler(
            seed=alg_seed, horizon=300, n_max=64, n_min=4
        ).run(workload)
        report = agreement_report(
            workload, res.meta["certificates"], horizon=300
        )
        assert report["mismatches"] == []
        kinds = {c.kind for c in res.meta["certificates"]}
        assert "budget_exhausted" in kinds  # honest about the tail

    def test_separated_certificates_fire_and_agree(self):
        # asymmetric orgs + a large pre-drawn budget: the CI race must
        # actually separate contested argmaxes, not just fall back on
        # structural certificates
        workload = asym_workload(6, k=8)
        res = AdaptiveScheduler(
            seed=0, horizon=60, n_max=8192, n_min=8
        ).run(workload)
        kinds = [c.kind for c in res.meta["certificates"]]
        assert kinds.count("separated") >= 3
        report = agreement_report(workload, res.meta["certificates"], horizon=60)
        assert report["mismatches"] == []
        for cert in res.meta["certificates"]:
            if cert.kind == "separated":
                assert cert.margin > 0.0
                assert cert.n_used <= 8192

    def test_exact_rung_matches_ref_and_certifies_everything(self):
        # k! <= n_max: the bottom rung builds the full lattice outright,
        # so the schedule is bit-identical to exact REF and every
        # decision is certified
        workload = asym_workload(2, k=6)
        ref = build_scheduler("ref", seed=0, horizon=60).run(workload)
        res = AdaptiveScheduler(seed=0, horizon=60).run(workload)
        assert factorial(6) <= 1024
        assert res.schedule == ref.schedule
        assert res.meta["certified_rate"] == 1.0
        assert {c.kind for c in res.meta["certificates"]} <= {
            "exact",
            "singleton",
            "degenerate",
        }

    def test_adaptive_run_is_deterministic(self):
        workload = asym_workload(1, k=7)
        a = AdaptiveScheduler(seed=5, horizon=60, n_max=128, n_min=4).run(
            workload
        )
        b = AdaptiveScheduler(seed=5, horizon=60, n_max=128, n_min=4).run(
            workload
        )
        assert a.schedule == b.schedule
        assert a.meta["certificates"] == b.meta["certificates"]

    def test_oracle_rejects_oversized_lattices(self):
        workload = asym_workload(0, k=8)
        members_t, _ = members_mask(workload, None)
        assert len(members_t) <= ORACLE_MAX_ORGS
        big = Workload(
            organizations=[
                Organization(u, 1) for u in range(ORACLE_MAX_ORGS + 1)
            ],
            jobs=[],
        )
        with pytest.raises(ValueError):
            ExactDecisionOracle(big)


# ----------------------------------------------------------------------
# hierarchical block mode
# ----------------------------------------------------------------------
class TestHier:
    def test_org_blocks_partition(self):
        assert org_blocks((0, 1, 2, 3, 4), 2) == ((0, 1), (2, 3), (4,))
        assert org_blocks((3, 7), 10) == ((3, 7),)
        with pytest.raises(ValueError):
            org_blocks((0, 1), 0)

    def test_single_block_reduces_to_ref(self):
        workload = asym_workload(2, k=6)
        ref = build_scheduler("ref", seed=0, horizon=60).run(workload)
        hier = HierScheduler(block_size=6, seed=0, horizon=60).run(workload)
        assert hier.schedule == ref.schedule
        assert hier.meta["n_blocks"] == 1
        assert hier.meta["exact_across"]

    def test_two_level_decomposition_is_efficient(self):
        # exact-across regime: sum_u phi_u == v(grand) at any decision
        # time (both Shapley levels are efficient), in exact rationals
        from repro.approx.hier import HierRun

        workload = asym_workload(2, k=6)
        members_t, grand = members_mask(workload, None)
        run = HierRun(
            workload,
            members_t,
            grand,
            np.random.default_rng(0),
            60,
            block_size=2,
        )
        run.drive()
        for t in (10, 20, 40):
            keys = run.keys_at(t)
            psis = run.grand.psis(t)
            total = sum(keys[u] + psis[u] for u in members_t)
            v_grand = run.oracle.values_at(t, select=fifo_select)[grand]
            assert total == Fraction(v_grand), t

    def test_sampled_across_regime_is_deterministic(self):
        workload = asym_workload(3, k=6)
        mk = lambda: HierScheduler(  # noqa: E731
            block_size=2, n_orderings=7, seed=4, horizon=60,
            max_exact_blocks=2,
        ).run(workload)
        a, b = mk(), mk()
        assert not a.meta["exact_across"]
        assert a.schedule == b.schedule

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            HierScheduler(block_size=11)
        with pytest.raises(ValueError):
            HierScheduler(block_size=0)


# ----------------------------------------------------------------------
# past the ceiling: kernel gate, gap gadget, scale family
# ----------------------------------------------------------------------
class TestPastTheCeiling:
    def test_kernel_certifies_past_int64_masks(self):
        # the kernel keeps coalition masks as Python ints, so k > 63 is
        # admissible; only the ledger arithmetic is certified
        big = Workload(
            organizations=[Organization(u, 1) for u in range(64)], jobs=[]
        )
        assert kernel_certified(big, 100)
        small = asym_workload(0, k=4)
        assert kernel_certified(small, 100)

    @pytest.mark.parametrize("k", range(64, 71))
    def test_rand_kernel_matches_engines_past_int64_masks(
        self, k, monkeypatch
    ):
        """RAND's oracle on the kernel at k = 64..70 (masks with bit 63
        and up) schedules exactly like the per-engine oracle."""
        from repro.algorithms.rand import RandRun
        from repro.core import kernel as kernel_mod

        # three machines (orgs 0, 63, k-1) and jobs on many orgs, so RAND
        # has contested decisions that read high-bit coalition values
        machines = [0] * k
        for u in (0, 63, k - 1):
            machines[u] = 1
        jobs, counters = [], [0] * k
        for i, u in enumerate(range(k - 1, -1, -3)):
            for _ in range(2):
                jobs.append(Job(i % 4, u, counters[u], 1 + (u + i) % 3))
                counters[u] += 1
        wl = Workload(
            organizations=[Organization(u, m) for u, m in enumerate(machines)],
            jobs=jobs,
        )
        members_t, grand = members_mask(wl, None)

        def run():
            r = RandRun(wl, members_t, grand, 3, np.random.default_rng(k), None)
            r.drive()
            return r

        on = run()
        assert on.oracle.kernel is not None
        assert max(on.oracle.masks) >= 1 << 63
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
        off = run()
        assert off.oracle.kernel is None
        assert len(on.grand.schedule()) == len(jobs)
        assert on.grand.schedule() == off.grand.schedule()

    def test_gap_workload_shape(self):
        wl = gap_workload(5, job_size=3)
        assert [o.machines for o in wl.organizations] == [1, 0, 0, 0, 0]
        assert len(wl.jobs) == 5
        assert all(j.size == 3 and j.release == 0 for j in wl.jobs)

    def test_gap_exact_policy_refused_past_cap(self):
        with pytest.raises(CapabilityError):
            policy_order_gap("ref", 16)

    def test_gap_adaptive_runs_past_cap(self):
        from repro.analysis.inapprox import order_reverse_gap

        r = policy_order_gap("ref_adaptive:n_max=16,n_min=4", 12, seed=0)
        assert r["n_orgs"] == 12
        assert r["gap"] == pytest.approx(order_reverse_gap(12, 1).ratio)
        # any real schedule sits between the two extreme orders
        assert 0.0 <= r["ratio_ord"] <= 2.0
        assert 0.0 <= r["ratio_rev"] <= 2.0

    def test_scale_family_builds_high_k_instances(self):
        spec = ScenarioSpec(
            family="scale",
            traces=("SCALE",),
            duration=100,
            n_repeats=1,
            seed=0,
            machine_dist="uniform",
            org_counts=(12,),
        )
        insts = spec.instances()
        assert len(insts) == 1
        workload, alg_seed = get_family("scale")(spec, insts[0])
        assert workload.n_orgs == 12
        assert sum(o.machines for o in workload.organizations) == 24
        assert isinstance(alg_seed, int)

    def test_scale_scenario_registered_with_hier_reference(self):
        scen = get_scenario("scale")
        assert scen.spec.family == "scale"
        assert scen.spec.reference == "ref_hier:block_size=5"
        assert max(scen.spec.org_counts) >= 50


# ----------------------------------------------------------------------
# online serving: certificates across membership epochs
# ----------------------------------------------------------------------
class TestOnlineAdaptive:
    def test_certificates_span_membership_epochs(self):
        svc = ClusterService(
            [1] * 12, "ref_adaptive:n_max=16,n_min=4", seed=0
        )
        for u in range(12):
            svc.submit(u, 1 + u % 3)
        svc.advance(2)
        org = svc.join_org(machines=1)
        svc.submit(org, 2)
        svc.drain()
        run = svc._policy.run
        certs = run.all_certificates()
        # the pre-join epoch's certificates survive the redraw
        assert len(certs) > len(run.certificates)
        assert run.summary().decisions == len(certs)
        assert all(c.certified in (True, False) for c in certs)
        # and so do their counts by kind in the status
        kinds = svc.status()["policy_backend"]["certificates"]
        assert kinds == {
            kind: sum(c.kind == kind for c in certs)
            for kind in CERTIFICATE_KINDS
        }

    def test_stratified_online_is_deterministic_past_cap(self):
        # replay == batch equivalence for the new step-capable policies is
        # covered by tests/test_service.py's ALL_POLICIES sweep; here we
        # pin the k > 10 regime the exact policies refuse outright
        def serve():
            svc = ClusterService(
                [1] * 12, "ref_stratified:n_orderings=8", seed=1
            )
            for u in range(12):
                svc.submit(u, 1 + u % 4)
            svc.drain()
            return svc.schedule()

        first = serve()
        assert len(first) == 12
        assert first == serve()
        with pytest.raises(CapabilityError):
            ClusterService([1] * 12, "ref", seed=1)


# ----------------------------------------------------------------------
# quality floors (clock-free) and registry plumbing
# ----------------------------------------------------------------------
class TestApproxGate:
    def test_adaptive_k50_certified_rate_floor(self):
        """Five times past the exact ceiling the honest certifier (sound
        kinds only: singleton / degenerate / separated / exact) still
        certifies 108 of 150 decisions; no clock enters, so the floor
        sits just under the reading instead of a tolerance band away."""
        wl = service_workload((1,) * 50, 150, seed=11)
        members, mask = members_mask(wl, None)
        run = AdaptiveRun(
            wl, members, mask, np.random.default_rng(0), None,
            n_min=4, n_max=16,
        )
        run.drive()
        s = run.summary()
        assert s.decisions == 150
        assert s.certified / s.decisions >= 0.70

    def test_stratification_reduces_realized_variance(self):
        """Realized estimator variance on one frozen decision: exact
        full-lattice coalition values at mid-stream ``t``, 24 seeded
        ``N=8`` draws per sampler, per-org variance averaged.  Position
        stratification is "pure profit" (``approx/stratified.py``), so
        uniform over stratified may never reach parity; it reads 1.911."""
        k, n = 8, 8
        wl = service_workload((1,) * k, 120, seed=3)
        fleet = CoalitionFleet(
            wl, [m for m in iter_subsets((1 << k) - 1) if m]
        )
        t = max(j.release for j in wl.jobs) // 2
        values = dict(fleet.values_at(t, select=fifo_select))
        values[0] = 0
        member_arr = np.arange(k, dtype=np.int64)

        def mean_var(draw) -> float:
            ests = []
            for r in range(24):
                sp = SampledPrefixes(
                    k, draw(member_arr, n, np.random.default_rng(1000 + r))
                )
                phi = sp.estimate_scaled({m: values[m] for m in sp.masks})
                ests.append([phi[u] / sp.n for u in range(k)])
            return float(np.array(ests, dtype=float).var(axis=0).mean())

        ratio = mean_var(sample_member_orderings) / mean_var(
            ORDERING_SAMPLERS["stratified"]
        )
        assert ratio >= 1.5, ratio

    def test_stratified_scheduler_registered_capabilities(self):
        from repro.policies import get_policy

        for name in ("ref_stratified", "ref_adaptive", "ref_hier"):
            entry = get_policy(name)
            assert entry.capabilities.max_orgs is None
            assert not entry.capabilities.exact
            assert entry.capabilities.needs_seed
        assert not get_policy("ref_hier").capabilities.step
        assert get_policy("ref_adaptive").capabilities.step

    def test_stratified_beats_nothing_silently(self):
        # StratifiedScheduler is RandScheduler with a variance-reduced
        # sampler: same budget, same oracle shape, different joint draw
        workload = asym_workload(4, k=5)
        strat = StratifiedScheduler(n_orderings=10, seed=2, horizon=40)
        res = strat.run(workload)
        assert res.schedule is not None
        uni = RandScheduler(n_orderings=10, seed=2, horizon=40).run(workload)
        assert {e.job.org for e in res.schedule} == {
            e.job.org for e in uni.schedule
        }
