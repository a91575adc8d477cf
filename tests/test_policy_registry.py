"""The unified policy registry (PR 4): PolicySpec round-trips, typed
errors, capability gating, entry-point discovery, and the batch==online
equivalence guarantee for every policy that registers the ``step``
capability.

The dummy third-party policy defined here (``_DummyEntry``) exercises
the full extension story: a :class:`~repro.algorithms.base.
PolicyScheduler` subclass registered through the entry-point group flows
through the batch runners, the experiment pipeline, and the online
service without any of those layers naming it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import PolicyScheduler, Scheduler
from repro.experiments.pipeline import run_pipeline
from repro.experiments.registry import PORTFOLIO_SPECS
from repro.experiments.spec import ScenarioSpec
from repro.policies import (
    POLICY_REGISTRY,
    CapabilityError,
    PolicyCapabilities,
    PolicyEntry,
    PolicyParamError,
    PolicySpec,
    UnknownPolicyError,
    build_online_policy,
    build_scheduler,
    discover_policies,
    get_policy,
    list_policies,
    policy_names,
    resolve_policy,
)
from repro.service import ClusterService, ReplayDriver
from repro.sim.runner import as_scheduler, compare_algorithms

from .conftest import random_workload

REPO_ROOT = Path(__file__).parent.parent


# ----------------------------------------------------------------------
# PolicySpec value-object semantics
# ----------------------------------------------------------------------
class TestPolicySpec:
    def test_roundtrip_json_and_hash_stability(self):
        spec = PolicySpec.make("rand", n_orderings=30)
        clone = PolicySpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()
        # the hash is a function of content, not construction order
        assert PolicySpec(
            "rand", (("n_orderings", 30),)
        ).content_hash() == spec.content_hash()

    def test_params_sorted_regardless_of_input_order(self):
        a = PolicySpec("x", (("b", 2), ("a", 1)))
        b = PolicySpec("x", (("a", 1), ("b", 2)))
        assert a == b and a.params == (("a", 1), ("b", 2))

    def test_parse_cli_strings(self):
        assert PolicySpec.parse("ref") == PolicySpec("ref")
        spec = PolicySpec.parse("rand:n_orderings=30")
        assert spec.param("n_orderings") == 30  # int, not str
        multi = PolicySpec.parse("x:a=1.5,b=hi,c=true")
        assert multi.params == (("a", 1.5), ("b", "hi"), ("c", True))

    def test_parse_rejects_malformed_params(self):
        with pytest.raises(PolicyParamError, match="key=value"):
            PolicySpec.parse("rand:n_orderings")

    def test_duplicate_params_rejected(self):
        with pytest.raises(PolicyParamError, match="duplicate"):
            PolicySpec("x", (("a", 1), ("a", 2)))

    def test_str_is_parseable(self):
        spec = PolicySpec.make("rand", n_orderings=9)
        assert PolicySpec.parse(str(spec)) == spec

    def test_usable_as_dict_key_and_picklable(self):
        import pickle

        spec = PolicySpec.make("directcontr", mode="faithful")
        assert {spec: 1}[pickle.loads(pickle.dumps(spec))] == 1


# ----------------------------------------------------------------------
# typed errors
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(UnknownPolicyError, match="available"):
            get_policy("nope")
        # still a KeyError for legacy except clauses
        with pytest.raises(KeyError):
            build_scheduler("nope")

    def test_unknown_param_is_typed(self):
        with pytest.raises(PolicyParamError, match="no parameter"):
            resolve_policy("ref:bogus=1")

    def test_wrong_param_type_is_typed(self):
        with pytest.raises(PolicyParamError, match="expects int"):
            build_scheduler(PolicySpec.make("rand", n_orderings="many"))

    def test_batch_only_policy_refused_by_service(self):
        with pytest.raises(CapabilityError, match="step"):
            ClusterService([1, 1], "ref-general")

    def test_service_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            ClusterService([1, 1], "nope")

    def test_service_rejects_bad_params(self):
        with pytest.raises(PolicyParamError):
            ClusterService([1, 1], "rand:bogus=3")

    @pytest.mark.parametrize(
        "spec",
        [
            "rand:n_orderings=0",
            "rand:epsilon=0.1,delta=1.5",
            "ref_stratified:epsilon=-1",
            "ref_stratified:epsilon=0.1,delta=0",
            "ref_adaptive:delta=1.5",
            "ref_adaptive:n_min=0",
            "ref_adaptive:n_max=-1",
            "ref_adaptive:n_max=0,epsilon=0",
            "ref_adaptive:sampler=bogus",
        ],
    )
    def test_batch_and_online_refuse_bad_specs_alike(self, spec):
        """A sampled policy's knobs are checked where its scheduler is
        built, and its online adapter is built from that scheduler: both
        paths refuse at construction, with one message -- also
        ``n_min=0`` at k=3, where 3! <= n_max and no wave is ever drawn."""
        with pytest.raises(ValueError) as batch:
            build_scheduler(spec)
        with pytest.raises(ValueError) as online:
            ClusterService([1, 1, 1], spec)
        assert str(online.value) == str(batch.value)

    def test_join_beyond_max_orgs_is_typed_at_ingest(self):
        cap = get_policy("ref").capabilities.max_orgs
        svc = ClusterService([1] * cap, "ref")
        before = set(svc.census.members)
        with pytest.raises(CapabilityError, match="max_orgs cap"):
            svc.join_org(machines=1)
        # refused before any state mutated: no rollback was needed
        assert set(svc.census.members) == before
        assert ClusterService.restore(svc.snapshot()).census.members == svc.census.members

    def test_genesis_beyond_max_orgs_is_typed(self):
        cap = get_policy("ref").capabilities.max_orgs
        with pytest.raises(CapabilityError, match="max_orgs cap"):
            ClusterService([1] * (cap + 1), "ref")


# ----------------------------------------------------------------------
# registry consistency
# ----------------------------------------------------------------------
class TestRegistryConsistency:
    def test_expected_builtins_present(self):
        assert {
            "ref", "ref-general", "rand", "directcontr", "fifo",
            "roundrobin", "fairshare", "utfairshare", "currfairshare",
        } <= set(POLICY_REGISTRY)

    def test_every_batch_policy_instantiates(self):
        """The CI registry-smoke assertion, kept in-tree too."""
        for entry in list_policies():
            if entry.capabilities.batch:
                scheduler = entry.build(seed=0, horizon=50)
                assert isinstance(scheduler, Scheduler), entry.name

    def test_every_step_policy_builds_an_online_adapter(self):
        for name in policy_names("step"):
            svc = ClusterService([2, 1], name, seed=0)
            assert svc.policy.pending() is None  # constructed, idle

    def test_capability_factory_consistency(self):
        for entry in list_policies():
            assert entry.capabilities.batch == (entry.batch_factory is not None)
            assert entry.capabilities.step == (entry.online_factory is not None)

    def test_entry_declares_step_without_factory_rejected(self):
        with pytest.raises(ValueError, match="online_factory"):
            PolicyEntry(
                name="broken", summary="",
                batch_factory=lambda p, s, h: None,
                capabilities=PolicyCapabilities(step=True),
            )

    def test_portfolio_spec_collision_leaves_maps_consistent(self):
        from repro.experiments.registry import (
            PORTFOLIOS,
            register_portfolio,
            register_portfolio_specs,
        )

        name = "collision-probe"
        register_portfolio(name, lambda horizon, seed: [])
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_portfolio_specs(name, ("fifo",))
            # the failed call must not leave stale declarative rows
            assert name not in PORTFOLIO_SPECS
        finally:
            PORTFOLIOS.pop(name, None)

    def test_paper_portfolio_rows_resolve_through_registry(self):
        rows = PORTFOLIO_SPECS["paper"]
        assert [r.name for r in rows] == [
            "roundrobin", "rand", "directcontr", "fairshare",
            "utfairshare", "currfairshare",
        ]
        for row in rows:
            assert row.name in POLICY_REGISTRY

    def test_no_duplicate_dispatch_tables_in_source(self):
        """Acceptance bullet: policy-name -> constructor dispatch exists
        only in the registry module (and spec rows referencing it)."""
        import re

        src = REPO_ROOT / "src" / "repro"
        offenders = []
        # a dispatch table names a policy string next to a Scheduler class
        pattern = re.compile(
            r"[\"'](?:directcontr|roundrobin|fairshare)[\"']\s*:"
        )
        for path in src.rglob("*.py"):
            if path.name == "policies.py":
                continue
            if pattern.search(path.read_text(encoding="utf-8")):
                offenders.append(str(path))
        assert not offenders, offenders


# ----------------------------------------------------------------------
# runner-level resolution
# ----------------------------------------------------------------------
class TestRunnerResolution:
    def test_compare_algorithms_accepts_names_specs_and_instances(self):
        rng = np.random.default_rng(5)
        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=8)
        t_end = 20
        mixed = compare_algorithms(
            ["roundrobin", PolicySpec.make("rand", n_orderings=5),
             build_scheduler("fairshare", horizon=t_end)],
            "ref", wl, t_end, seed=3,
        )
        legacy = compare_algorithms(
            [build_scheduler("roundrobin", horizon=t_end),
             build_scheduler("rand:n_orderings=5", seed=3, horizon=t_end),
             build_scheduler("fairshare", horizon=t_end)],
            build_scheduler("ref", horizon=t_end), wl, t_end,
        )
        assert [o.algorithm for o in mixed.outcomes] == [
            o.algorithm for o in legacy.outcomes
        ]
        assert [o.avg_delay for o in mixed.outcomes] == [
            o.avg_delay for o in legacy.outcomes
        ]

    def test_as_scheduler_passes_instances_through(self):
        inst = build_scheduler("fifo", horizon=9)
        assert as_scheduler(inst) is inst


# ----------------------------------------------------------------------
# scenario specs embedding policy specs
# ----------------------------------------------------------------------
class TestScenarioSpecPolicies:
    KW = dict(
        family="synthetic", traces=("LPC-EGEE",), n_orgs=3, duration=800,
        n_repeats=2, scale=0.08, seed=7,
    )

    def test_hash_unchanged_without_policies(self):
        # pinned from the pre-registry ScenarioSpec (PR 2): existing
        # on-disk caches must stay valid through the API redesign
        assert ScenarioSpec(**self.KW).content_hash() == "ce6f23c71bc43b01"

    def test_policies_field_changes_hash_and_normalizes(self):
        spec = ScenarioSpec(
            policies=("fifo", PolicySpec.make("rand", n_orderings=5)),
            **self.KW,
        )
        assert spec.content_hash() != ScenarioSpec(**self.KW).content_hash()
        assert all(isinstance(p, PolicySpec) for p in spec.policies)

    def test_pipeline_builds_embedded_policies(self, tmp_path):
        spec = ScenarioSpec(
            policies=("roundrobin", "fairshare"), **self.KW
        )
        result = run_pipeline(spec, cache_dir=tmp_path)
        (group,) = result.groups()
        algs = sorted(result.aggregates[group]["avg_delay"])
        assert algs == ["FairShare", "RoundRobin"]
        # embedded rows must match the equivalent named portfolio exactly
        named = run_pipeline(ScenarioSpec(portfolio="fast", **self.KW))
        for alg in algs:
            assert (
                result.aggregates[group]["avg_delay"][alg]
                == named.aggregates[group]["avg_delay"][alg]
            )

    def test_embedded_policies_resume_from_cache(self, tmp_path):
        spec = ScenarioSpec(policies=("fifo",), **self.KW)
        first = run_pipeline(spec, cache_dir=tmp_path)
        again = run_pipeline(spec, cache_dir=tmp_path)
        assert (first.computed, first.cached) == (2, 0)
        assert (again.computed, again.cached) == (0, 2)


# ----------------------------------------------------------------------
# third-party policies via entry points
# ----------------------------------------------------------------------
class _LongestQueueScheduler(PolicyScheduler):
    """Dummy third-party policy: serve the org with the longest queue."""

    name = "LongestQueue"

    def select(self, engine):
        """Pick the waiting organization with the most waiting jobs."""
        return max(
            engine.waiting_orgs(),
            key=lambda u: (engine.waiting_count(u), -u),
        )


def _dummy_entry(name: str = "longestqueue") -> PolicyEntry:
    def batch(params, seed, horizon):
        return _LongestQueueScheduler(horizon=horizon)

    def online(service, params):
        from repro.service.service import _SingleEnginePolicy

        return _SingleEnginePolicy(
            service, batch(params, service.seed, service.horizon)
        )

    return PolicyEntry(
        name=name,
        summary="dummy third-party policy (tests)",
        batch_factory=batch,
        online_factory=online,
        paper_section="n/a",
    )


class _FakeEntryPoint:
    name = "longestqueue"

    @staticmethod
    def load():
        return lambda: _dummy_entry()


@pytest.fixture
def registry_sandbox(monkeypatch):
    """Snapshot/restore the global registry around a mutation test."""
    import repro.policies as pol

    saved = dict(POLICY_REGISTRY)
    saved_flag = pol._discovered
    yield monkeypatch
    POLICY_REGISTRY.clear()
    POLICY_REGISTRY.update(saved)
    pol._discovered = saved_flag


class TestEntryPointDiscovery:
    def test_dummy_policy_flows_through_every_layer(self, registry_sandbox):
        import repro.policies as pol

        registry_sandbox.setattr(
            pol, "entry_points",
            lambda group: [_FakeEntryPoint()] if group == pol.ENTRY_POINT_GROUP else [],
        )
        added = discover_policies(force=True)
        assert added == ["longestqueue"]

        rng = np.random.default_rng(11)
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=10)

        # batch runner, by name
        comparison = compare_algorithms(["longestqueue"], "ref", wl, 30)
        assert comparison.outcomes[0].algorithm == "LongestQueue"

        # pipeline, embedded in a scenario spec
        spec = ScenarioSpec(
            family="synthetic", traces=("LPC-EGEE",), n_orgs=3,
            duration=600, n_repeats=1, scale=0.08, seed=3,
            policies=("longestqueue",),
        )
        result = run_pipeline(spec)
        (group,) = result.groups()
        assert "LongestQueue" in result.aggregates[group]["avg_delay"]

        # online service + replay equivalence (step capability honored)
        report = ReplayDriver(wl, "longestqueue", seed=0).run()
        assert report.equivalent

    def test_broken_entry_point_warns_but_does_not_break(self, registry_sandbox):
        import repro.policies as pol

        class Broken:
            name = "broken"

            @staticmethod
            def load():
                raise RuntimeError("boom")

        registry_sandbox.setattr(
            pol, "entry_points", lambda group: [Broken()]
        )
        with pytest.warns(RuntimeWarning, match="failed to load"):
            added = discover_policies(force=True)
        assert added == []
        assert "ref" in POLICY_REGISTRY  # registry intact

    def test_colliding_entry_point_name_warns(self, registry_sandbox):
        import repro.policies as pol

        class Colliding:
            name = "shadow-ref"

            @staticmethod
            def load():
                return _dummy_entry("ref")  # collides with the builtin

        registry_sandbox.setattr(
            pol, "entry_points", lambda group: [Colliding()]
        )
        with pytest.warns(RuntimeWarning, match="already registered"):
            assert discover_policies(force=True) == []
        # the builtin won: still the exact REF entry
        assert get_policy("ref").capabilities.max_orgs == 10

    def test_discovery_is_idempotent(self, registry_sandbox):
        import repro.policies as pol

        calls = []
        registry_sandbox.setattr(
            pol, "entry_points", lambda group: calls.append(group) or []
        )
        discover_policies(force=True)
        discover_policies()
        assert len(calls) == 1


# ----------------------------------------------------------------------
# batch == online equivalence for every step-capable policy
# ----------------------------------------------------------------------
class TestStepCapabilityContract:
    """A policy that registers ``step`` promises ReplayDriver
    equivalence; this catches future policies that claim it wrongly."""

    @pytest.mark.parametrize("name", sorted(policy_names("step")))
    def test_replay_equals_batch_on_golden_workload(self, name):
        rng = np.random.default_rng(0)
        wl = random_workload(
            rng, n_orgs=3, n_jobs=14, max_release=12,
            sizes=(1, 2, 3), machine_counts=[1, 2, 1],
        )
        report = ReplayDriver(wl, name, seed=0, snapshot_every=3).run()
        assert report.equivalent, f"{name} violates its step capability"

    def test_build_online_policy_requires_step(self):
        svc = ClusterService([1, 1], "fifo")
        with pytest.raises(CapabilityError, match="step"):
            build_online_policy(svc, "ref-general")


# ----------------------------------------------------------------------
# CLI + api facade
# ----------------------------------------------------------------------
class TestCliAndFacade:
    def test_policies_subcommand_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for entry in list_policies():
            assert entry.name in out
            assert entry.paper_section.split(",")[0] in out
        assert "max_orgs=10" in out

    def test_policies_capability_filter(self, capsys):
        from repro.cli import main

        assert main(["policies", "--capability", "step"]) == 0
        out = capsys.readouterr().out
        assert "ref-general" not in out
        with pytest.raises(SystemExit):
            main(["policies", "--capability", "bogus"])
        with pytest.raises(SystemExit):
            # a method name is not a capability field
            main(["policies", "--capability", "summary"])

    def test_policy_help_derived_from_registry(self):
        from repro.cli import build_parser

        help_text = build_parser().format_help()
        for command in ("replay", "serve", "gateway", "loadgen"):
            assert command in help_text
        # can't drift: the replay/serve --policy help names every
        # step-capable policy
        from repro.cli import _policy_flag_help

        derived = _policy_flag_help("service policy")
        for name in policy_names("step"):
            assert name in derived

    def test_console_and_module_policies_agree(self, capsys):
        from repro.cli import main

        assert main(["policies"]) == 0
        want = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "policies"],
            capture_output=True, text=True, check=True,
            cwd=str(REPO_ROOT),
        )
        assert proc.stdout == want

    def test_api_facade_resolves_and_is_sorted(self):
        from repro import api

        assert list(api.__all__) == sorted(set(api.__all__))
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_api_surface_snapshot_matches_code(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import api_surface
        finally:
            sys.path.pop(0)
        want = api_surface.render()
        have = (REPO_ROOT / "API_SURFACE.txt").read_text(encoding="utf-8")
        assert have == want, (
            "API_SURFACE.txt is stale; regenerate with "
            "`PYTHONPATH=src python tools/api_surface.py --write` after "
            "reviewing the surface change"
        )

    def test_top_level_quickstart_names(self):
        for name in ("PolicySpec", "build_scheduler", "list_policies",
                     "POLICY_REGISTRY", "CapabilityError", "api"):
            assert name in repro.__all__
