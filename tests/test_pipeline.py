"""Tests for the ScenarioSpec pipeline: registry, hashing, streaming
aggregation, parallel/serial bit-identity, cache resume, and the new
scenario families (SWF end-to-end, federated offload, churn sweep)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.pipeline import (
    MAX_SHARD,
    PipelineInstanceResult,
    StreamingStats,
    cache_path_for,
    run_instance_spec,
    run_pipeline,
    run_shard,
    shard_instances,
)
from repro.experiments.store import ResultStore
from repro.experiments.registry import (
    FAMILIES,
    PORTFOLIOS,
    SCENARIOS,
    get_family,
    get_portfolio,
    get_scenario,
    scenario_spec,
)
from repro.experiments.spec import ScenarioSpec, derive_rng
from repro.workloads.federated import FederatedSpec, federated_records
from repro.workloads.swf import load_swf, parse_swf, write_swf

TINY_SWF = Path(__file__).parent / "data" / "tiny.swf"


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="synthetic", traces=("LPC-EGEE",), n_orgs=3, duration=600,
        n_repeats=2, scale=0.08, seed=1,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(machine_dist="pareto")
        with pytest.raises(ValueError):
            tiny_spec(n_repeats=0)
        with pytest.raises(ValueError):
            tiny_spec(traces=())
        with pytest.raises(ValueError):
            tiny_spec(metrics=())

    def test_content_hash_stable_and_sensitive(self):
        a, b = tiny_spec(), tiny_spec()
        assert a.content_hash() == b.content_hash()
        for change in (
            {"seed": 2},
            {"duration": 601},
            {"portfolio": "fast"},
            {"metrics": ("avg_delay", "unfairness")},
            {"org_counts": (2, 3)},
        ):
            assert tiny_spec(**change).content_hash() != a.content_hash()

    def test_instance_enumeration(self):
        spec = tiny_spec(traces=("A", "B"), n_repeats=3)
        insts = spec.instances()
        assert len(insts) == 6
        assert [i.index for i in insts] == list(range(6))
        assert len({i.key for i in insts}) == 6

    def test_sweep_variants(self):
        spec = tiny_spec(org_counts=(2, 4), zipf_exponents=(1.0, 2.0))
        insts = spec.instances()
        assert len(insts) == 2 * 2 * 2
        variants = {i.variant for i in insts}
        assert (("n_orgs", 2), ("zipf_exponent", 1.0)) in variants
        assert insts[0].param("n_orgs", None) == 2

    def test_derive_rng_cross_process_stable(self):
        # crc32-derived seeds must not depend on interpreter hash state
        assert derive_rng("x/0/1").integers(0, 1 << 30) == derive_rng(
            "x/0/1"
        ).integers(0, 1 << 30)


class TestRegistry:
    def test_builtin_registrations(self):
        assert {"synthetic", "swf", "federated", "churn"} <= set(FAMILIES)
        assert {"paper", "fast", "contribution"} <= set(PORTFOLIOS)
        for name in ("table1", "table2", "figure10", "churn", "federated", "swf"):
            assert get_scenario(name).spec.family in FAMILIES

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_family("nope")
        with pytest.raises(KeyError, match="available"):
            get_portfolio("nope")
        with pytest.raises(KeyError, match="available"):
            get_scenario("nope")

    def test_scenario_spec_overrides(self):
        spec = scenario_spec("table1", duration=123, seed=9, scale=0.5)
        assert (spec.duration, spec.seed, spec.scale) == (123, 9, 0.5)
        # None overrides are ignored (CLI flags left at default)
        assert scenario_spec("table1", duration=None) == get_scenario("table1").spec

    def test_paper_portfolio_matches_table_rows(self):
        names = [a.name for a in get_portfolio("paper")(100, 0)]
        assert names == [
            "RoundRobin", "Rand(N=15)", "DirectContr",
            "FairShare", "UtFairShare", "CurrFairShare",
        ]


class TestStreamingStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(3.0, 2.0, size=257)
        s = StreamingStats()
        for x in xs:
            s.push(float(x))
        assert s.n == len(xs)
        assert s.mean == pytest.approx(float(xs.mean()), rel=1e-12)
        assert s.std == pytest.approx(float(xs.std()), rel=1e-12)

    def test_empty(self):
        assert StreamingStats().as_tuple() == (0, 0.0, 0.0)


class TestPipelineExecution:
    def test_serial_parallel_bit_identical(self):
        spec = tiny_spec()
        serial = run_pipeline(spec, workers=1, keep_instances=True)
        parallel = run_pipeline(spec, workers=2, keep_instances=True)
        assert serial.instances == parallel.instances
        assert serial.aggregates == parallel.aggregates

    def test_aggregates_match_instances(self):
        spec = tiny_spec(n_repeats=3)
        result = run_pipeline(spec, keep_instances=True)
        for alg in result.algorithms():
            vals = [r.metrics["avg_delay"][alg] for r in result.instances]
            mean, std = result.mean_std("LPC-EGEE", alg)
            assert mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
            assert std == pytest.approx(float(np.std(vals)), rel=1e-12)

    def test_memory_default_drops_instances(self):
        result = run_pipeline(tiny_spec())
        assert result.instances is None

    def test_matches_legacy_serial_loop(self):
        """The pipeline must be bit-compatible with the pre-pipeline
        hand-rolled experiment loop (same crc32 seed scheme)."""
        import zlib

        from repro.experiments.harness import sample_instance
        from repro.experiments.registry import paper_portfolio
        from repro.sim.runner import evaluate_portfolio

        spec = tiny_spec()
        expected = []
        for trace in spec.traces:
            for rep in range(spec.n_repeats):
                rng = np.random.default_rng(
                    zlib.crc32(f"{trace}/{rep}/{spec.seed}".encode())
                )
                wl = sample_instance(
                    trace, spec.duration, spec.n_orgs, rng, scale=spec.scale
                )
                algs = paper_portfolio(
                    spec.duration, int(rng.integers(0, 2**31 - 1))
                )
                expected.append(
                    evaluate_portfolio(wl, spec.duration, algs)["avg_delay"]
                )
        result = run_pipeline(spec, keep_instances=True)
        assert [r.metrics["avg_delay"] for r in result.instances] == expected


class TestMakespanMetric:
    """The spec-nameable ``makespan`` scoring function (METRICS registry)."""

    def test_registered_and_spec_nameable(self):
        from repro.sim.runner import METRICS

        assert "makespan" in METRICS
        spec = tiny_spec(metrics=("avg_delay", "makespan"), n_repeats=1)
        result = run_pipeline(spec, keep_instances=True)
        (inst,) = result.instances
        assert set(inst.metrics) == {"avg_delay", "makespan"}
        group = result.aggregates[("LPC-EGEE", ())]
        assert set(group) == {"avg_delay", "makespan"}

    def test_value_matches_schedule_makespan(self):
        from repro.algorithms.greedy import GreedyFifoScheduler
        from repro.algorithms.ref import RefScheduler
        from repro.experiments.registry import get_family
        from repro.sim.runner import METRICS

        spec = tiny_spec(metrics=("makespan",), n_repeats=1, duration=1_200,
                         scale=0.15)
        inst = spec.instances()[0]
        workload, _ = get_family(spec.family)(spec, inst)
        assert workload.jobs, "window must contain jobs for this check"
        result = GreedyFifoScheduler(horizon=spec.duration).run(workload)
        reference = RefScheduler(horizon=spec.duration).run(workload)
        got = METRICS["makespan"](result, reference, spec.duration)
        want = float(
            max(
                e.end
                for e in result.schedule
                if e.start < spec.duration
            )
        )
        assert got == want
        # reference-independence: any reference gives the same score
        assert got == METRICS["makespan"](result, result, spec.duration)

    def test_empty_schedule_scores_zero(self):
        from repro.algorithms.base import SchedulerResult
        from repro.core.schedule import Schedule
        from repro.core.workload import Workload
        from repro.core.organization import Organization
        from repro.sim.metrics import makespan

        wl = Workload((Organization(0, 1),), ())
        empty = SchedulerResult("x", wl, (0,), Schedule(()))
        assert makespan(empty, empty, 100) == 0.0


class TestCacheResume:
    def test_full_resume_recomputes_zero(self, tmp_path):
        spec = tiny_spec()
        first = run_pipeline(spec, cache_dir=tmp_path, keep_instances=True)
        assert (first.computed, first.cached) == (2, 0)
        again = run_pipeline(spec, cache_dir=tmp_path, keep_instances=True)
        assert (again.computed, again.cached) == (0, 2)
        assert again.instances == first.instances
        assert again.aggregates == first.aggregates

    def test_killed_run_resumes_from_flushed_lines(self, tmp_path):
        """Simulate a kill mid-run: keep the first flushed line plus a torn
        partial line; the resumed run must recompute only the missing
        instance and reproduce the original results exactly."""
        spec = tiny_spec()
        full = run_pipeline(spec, cache_dir=tmp_path, keep_instances=True)
        cache = cache_path_for(spec, tmp_path)
        lines = cache.read_text().splitlines()
        assert len(lines) == 2
        cache.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_pipeline(spec, cache_dir=tmp_path, keep_instances=True)
        assert (resumed.computed, resumed.cached) == (1, 1)
        assert resumed.instances == full.instances

    def test_no_resume_recomputes(self, tmp_path):
        spec = tiny_spec()
        run_pipeline(spec, cache_dir=tmp_path)
        fresh = run_pipeline(spec, cache_dir=tmp_path, resume=False)
        assert fresh.computed == 2

    def test_spec_edit_invalidates_cache(self, tmp_path):
        run_pipeline(tiny_spec(), cache_dir=tmp_path)
        other = run_pipeline(tiny_spec(seed=2), cache_dir=tmp_path)
        assert other.cached == 0
        assert len(list(Path(tmp_path).glob("*.jsonl"))) == 2

    def test_instance_result_json_roundtrip(self):
        spec = tiny_spec(org_counts=(2,), family="churn")
        result = run_instance_spec(spec, spec.instances()[0])
        back = PipelineInstanceResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert back == result


class TestSwfFamily:
    def test_fixture_round_trips(self, tmp_path):
        trace = load_swf(TINY_SWF)
        assert len(trace) > 100 and trace.max_procs == 6
        rewritten = tmp_path / "again.swf"
        write_swf(trace, rewritten)
        again = load_swf(rewritten)
        assert again.jobs == trace.jobs and again.header == trace.header
        assert parse_swf(TINY_SWF.read_text()).jobs == trace.jobs

    def test_swf_end_to_end_serial_equals_parallel(self, tmp_path):
        """The satellite acceptance test: a real SWF file flows through
        parsing -> Workload construction -> the pipeline, and a workers>1
        run is bit-identical to serial, including after a cache resume."""
        spec = dataclasses.replace(
            scenario_spec("swf", swf_path=str(TINY_SWF)),
            traces=("tiny",), n_orgs=3, duration=400, n_repeats=2,
            portfolio="fast",
        )
        serial = run_pipeline(spec, keep_instances=True)
        parallel = run_pipeline(
            spec, workers=2, cache_dir=tmp_path, keep_instances=True
        )
        assert serial.instances == parallel.instances
        resumed = run_pipeline(
            spec, workers=2, cache_dir=tmp_path, keep_instances=True
        )
        assert resumed.computed == 0
        assert resumed.instances == serial.instances
        for inst in serial.instances:
            assert inst.n_machines == 6
            assert inst.n_jobs > 0

    def test_swf_family_requires_path(self):
        spec = scenario_spec("swf")
        with pytest.raises(ValueError, match="swf_path"):
            run_instance_spec(spec, spec.instances()[0])


class TestFederatedFamily:
    def test_records_deterministic_and_partitioned(self):
        fspec = FederatedSpec(n_orgs=3, horizon=2_000, users_per_org=4)
        a, map_a = federated_records(fspec, np.random.default_rng(5))
        b, map_b = federated_records(fspec, np.random.default_rng(5))
        assert a == b and map_a == map_b
        # users are partitioned per provider and every record is mapped
        assert set(map_a.values()) == {0, 1, 2}
        for r in a:
            assert r.user in map_a
            assert 0 <= r.submit < fspec.horizon
            assert r.cpus == 1

    def test_staggered_peaks(self):
        """Provider demand peaks must be phase-shifted: the circular mean
        submit phase of each provider differs from its neighbours'."""
        fspec = FederatedSpec(
            n_orgs=2, horizon=4_000, day_length=4_000, peak_amplitude=1.0,
            users_per_org=6,
        )
        records, user_map = federated_records(fspec, np.random.default_rng(2))
        phases = []
        for org in (0, 1):
            submits = np.array(
                [r.submit for r in records if user_map[r.user] == org]
            )
            angle = 2 * np.pi * submits / fspec.day_length
            phases.append(
                np.arctan2(np.sin(angle).mean(), np.cos(angle).mean())
            )
        gap = abs(phases[0] - phases[1]) % (2 * np.pi)
        gap = min(gap, 2 * np.pi - gap)
        assert gap > np.pi / 2  # half-day apart for k=2

    def test_federated_through_pipeline(self):
        spec = dataclasses.replace(
            scenario_spec("federated"),
            duration=600, n_repeats=2, portfolio="fast", metrics=("avg_delay",),
        )
        serial = run_pipeline(spec, keep_instances=True)
        parallel = run_pipeline(spec, workers=2, keep_instances=True)
        assert serial.instances == parallel.instances
        k = spec.n_orgs
        for inst in serial.instances:
            assert inst.n_machines == k * 5  # uniform machines_per_org=5


class TestChurnFamily:
    def test_common_random_number_windows(self):
        """The churn family's CRN design: cells of one repeat share the
        trace window, so job counts differ only through the assignment."""
        spec = tiny_spec(
            family="churn", org_counts=(2, 3), n_repeats=1, duration=500,
        )
        results = [
            run_instance_spec(spec, inst) for inst in spec.instances()
        ]
        # same window -> the union of jobs comes from the same records;
        # machine pool identical across k
        assert len({r.n_machines for r in results}) == 1

    def test_figure10_matches_legacy_scheme(self):
        """figure10 through the pipeline reproduces the documented legacy
        seed scheme (window key independent of k, assignment key
        trace/k/rep/seed)."""
        import zlib

        from repro.experiments.figures import figure10
        from repro.experiments.harness import assign_instance, sample_window
        from repro.experiments.registry import paper_portfolio
        from repro.sim.runner import evaluate_portfolio

        trace, duration, seed = "LPC-EGEE", 500, 0
        xs, series = figure10(
            (2, 3), trace=trace, duration=duration, n_repeats=1,
            scale=0.08, seed=seed,
        )
        window = sample_window(
            trace, duration,
            np.random.default_rng(
                zlib.crc32(f"{trace}/window/0/{seed}".encode())
            ),
            scale=0.08,
        )
        for xi, k in enumerate((2, 3)):
            records, gen_spec, t_start = window
            rng = np.random.default_rng(
                zlib.crc32(f"{trace}/{k}/0/{seed}".encode())
            )
            wl = assign_instance(records, gen_spec, t_start, duration, k, rng)
            algs = paper_portfolio(
                duration, int(rng.integers(0, 2**31 - 1))
            )
            expected = evaluate_portfolio(wl, duration, algs)["avg_delay"]
            for alg, val in expected.items():
                assert series[alg][xi] == val


class TestBatchedPipeline:
    """Serial == sharded-batched == parallel bit-identity for every
    registered scenario family, with k >= 5 so the cross-instance fused
    kernel actually engages (and mixed-k sweeps exercise the per-instance
    fallback next to batched siblings)."""

    def _assert_three_way(self, spec):
        serial = run_pipeline(spec, batch=False, keep_instances=True)
        batched = run_pipeline(spec, batch=True, keep_instances=True)
        parallel = run_pipeline(
            spec, batch=True, workers=2, keep_instances=True
        )
        assert serial.instances == batched.instances
        assert serial.instances == parallel.instances
        assert serial.aggregates == batched.aggregates == parallel.aggregates
        return serial

    def test_synthetic_family(self):
        spec = tiny_spec(n_orgs=5)
        # the batched path must actually engage for this spec
        from repro.algorithms.multiref import batchable

        build = get_family(spec.family)
        wl, _ = build(spec, spec.instances()[0])
        assert batchable(wl, spec.duration)
        self._assert_three_way(spec)

    def test_swf_family(self):
        spec = dataclasses.replace(
            scenario_spec("swf", swf_path=str(TINY_SWF)),
            traces=("tiny",), n_orgs=5, duration=400, n_repeats=2,
            portfolio="fast",
        )
        self._assert_three_way(spec)

    def test_federated_family(self):
        spec = dataclasses.replace(
            scenario_spec("federated"),
            n_orgs=5, duration=600, n_repeats=2, portfolio="fast",
            metrics=("avg_delay",),
        )
        self._assert_three_way(spec)

    def test_churn_family_mixed_k(self):
        # k=3 rides the per-instance fallback, k=5 the batched kernel --
        # in the same shard
        spec = tiny_spec(
            family="churn", org_counts=(3, 5), n_repeats=1, duration=500,
            portfolio="fast",
        )
        self._assert_three_way(spec)

    def test_shard_sizing(self):
        todo = list(range(100))
        serial_shards = shard_instances(todo, 1)
        assert [len(s) for s in serial_shards[:-1]] == [MAX_SHARD] * 3
        assert [x for s in serial_shards for x in s] == todo
        par_shards = shard_instances(todo, 4)
        assert len(par_shards) >= 8  # ~2 shards per worker
        assert [x for s in par_shards for x in s] == todo
        assert shard_instances([], 4) == []
        assert [len(s) for s in shard_instances(todo[:3], 4)] == [1, 1, 1]


class TestResultStore:
    def test_cross_spec_dedupe_bit_identical(self, tmp_path):
        """Rows stored by one spec replay bit-identically into a
        different spec that shares (workload, policy, seed) triples."""
        base = dict(
            family="synthetic", traces=("LPC-EGEE",), n_orgs=5,
            duration=600, n_repeats=2, scale=0.08, seed=3,
        )
        warm_spec = ScenarioSpec(**base, portfolio="fast")
        sub_spec = ScenarioSpec(**base, policies=("fairshare",))
        warm = run_pipeline(warm_spec, store_dir=tmp_path, keep_instances=True)
        fresh = run_pipeline(sub_spec, keep_instances=True)
        via_store = run_pipeline(
            sub_spec, store_dir=tmp_path, keep_instances=True
        )
        assert via_store.instances == fresh.instances
        assert via_store.aggregates == fresh.aggregates
        # and the hits were real: a direct shard run skips all simulation
        store = ResultStore(tmp_path)
        shard_results = run_shard(sub_spec, sub_spec.instances(), store=store)
        assert store.hits == len(sub_spec.instances())
        assert [r.metrics for r in shard_results] == [
            r.metrics for r in fresh.instances
        ]
        # the fully-warm store also serves the original spec untouched
        assert (
            run_pipeline(
                warm_spec, store_dir=tmp_path, keep_instances=True
            ).instances
            == warm.instances
        )

    def test_store_resume_zero_recompute(self, tmp_path):
        spec = tiny_spec(n_orgs=5, portfolio="fast")
        first = run_pipeline(spec, store_dir=tmp_path, keep_instances=True)
        rows_after_first = len(ResultStore(tmp_path))
        assert rows_after_first == len(spec.instances()) * 3  # fast = 3 rows
        again = run_pipeline(spec, store_dir=tmp_path, keep_instances=True)
        assert again.instances == first.instances
        assert len(ResultStore(tmp_path)) == rows_after_first  # no growth
        store = ResultStore(tmp_path)
        run_shard(spec, spec.instances(), store=store)
        assert store.misses == 0

    def test_store_and_jsonl_cache_compose(self, tmp_path):
        spec = tiny_spec(n_orgs=5, portfolio="fast")
        plain = run_pipeline(spec, keep_instances=True)
        cached = run_pipeline(
            spec, cache_dir=tmp_path / "cache", store_dir=tmp_path / "store",
            keep_instances=True,
        )
        assert cached.instances == plain.instances
        resumed = run_pipeline(
            spec, cache_dir=tmp_path / "cache", store_dir=tmp_path / "store",
            keep_instances=True,
        )
        assert resumed.computed == 0
        assert resumed.instances == plain.instances

    def test_callable_algorithms_disable_store(self, tmp_path):
        from repro.experiments.registry import PORTFOLIOS

        spec = tiny_spec(n_orgs=5)
        run_pipeline(
            spec, store_dir=tmp_path, algorithms=PORTFOLIOS["fast"],
        )
        assert not (tmp_path / "results.jsonl").exists()

    def test_junk_lines_skipped(self, tmp_path):
        spec = tiny_spec(n_orgs=5, portfolio="fast")
        first = run_pipeline(spec, store_dir=tmp_path, keep_instances=True)
        path = tmp_path / "results.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"torn": ')  # killed mid-write
        replay = run_pipeline(spec, store_dir=tmp_path, keep_instances=True)
        assert replay.instances == first.instances
