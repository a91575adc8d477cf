"""The stable public API facade: the blessed surface to build on.

Everything the repository's three consumer layers expose is re-exported
here under one import::

    from repro import api

    spec = api.PolicySpec.parse("rand:n_orderings=30")
    scheduler = api.build_scheduler(spec, seed=7, horizon=5_000)
    comparison = api.compare_algorithms(
        ["roundrobin", spec, "directcontr"], "ref", workload, t_end=5_000
    )

The surface is **versioned by snapshot**: ``API_SURFACE.txt`` at the
repository root records every exported name and callable signature, and
CI fails on unreviewed changes (``python tools/api_surface.py --check``).
Deprecated aliases (``repro.service.service.POLICIES``,
``batch_counterpart``) are *not* part of this surface — they emit
``DeprecationWarning`` and forward here.

Layers (see DESIGN.md §7 for the policy registry / capability model):

* **policy registry** — :class:`PolicySpec`, :class:`PolicyEntry`,
  :class:`PolicyCapabilities`, :data:`POLICY_REGISTRY`,
  :func:`register_policy`, :func:`build_scheduler`,
  :func:`build_online_policy`, entry-point discovery
  (:func:`discover_policies`), typed errors;
* **model** — :class:`Workload`, :class:`Job`, :class:`Organization`,
  :class:`Schedule`, :class:`ScheduledJob`, :class:`ClusterEngine`,
  :class:`CoalitionFleet`;
* **batch running** — :class:`Scheduler`, :class:`SchedulerResult`,
  :func:`compare_algorithms`, :func:`evaluate_portfolio`,
  :func:`run_schedule`, :data:`METRICS`;
* **experiments** — :class:`ScenarioSpec`, :func:`run_pipeline`, the
  scenario/portfolio/family registries;
* **online serving** — :class:`ClusterService`, :class:`OnlinePolicy`,
  :class:`ReplayDriver`, :func:`replay_scenario`, snapshot I/O;
* **gateway fleet** — :class:`Gateway`, :class:`GatewayConfig`,
  :class:`TenantSpec`, :class:`AdmissionController`,
  :class:`AdmissionError`, :class:`LoadSpec`, :func:`run_loadgen`
  (DESIGN.md §11: the sharded multi-tenant front door);
* **self-healing** — :class:`SupervisorPolicy`, :class:`FaultPlan`,
  :class:`ShardUnavailable` (DESIGN.md §13: supervision, deterministic
  fault injection, graceful degradation).

Every name resolves on first access (PEP 562, the helper of
:mod:`repro`), so ``from repro import api`` imports no layer until a
name of it is used.
"""

from . import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        ".algorithms.base": ("PolicyScheduler", "Scheduler", "SchedulerResult"),
        ".approx": (
            "AdaptiveScheduler",
            "CertificateSummary",
            "DecisionCertificate",
            "HierScheduler",
            "StratifiedScheduler",
            "agreement_report",
        ),
        ".core": (
            "ClusterEngine",
            "CoalitionFleet",
            "FleetKernel",
            "Job",
            "Organization",
            "Schedule",
            "ScheduledJob",
            "Workload",
            "kernel_certified",
        ),
        ".experiments.pipeline": ("PipelineResult", "run_pipeline"),
        ".experiments.registry": (
            "PORTFOLIO_SPECS",
            "Scenario",
            "list_scenarios",
            "register_family",
            "register_portfolio",
            "register_portfolio_specs",
            "register_scenario",
            "scenario_spec",
        ),
        ".experiments.spec": ("InstanceSpec", "ScenarioSpec"),
        ".gateway": (
            "AdmissionController",
            "AdmissionError",
            "FaultPlan",
            "Gateway",
            "GatewayConfig",
            "LoadReport",
            "LoadSpec",
            "ShardUnavailable",
            "SupervisorPolicy",
            "TenantSpec",
            "run_loadgen",
        ),
        ".policies": (
            "ENTRY_POINT_GROUP",
            "POLICY_REGISTRY",
            "CapabilityError",
            "ParamSpec",
            "PolicyCapabilities",
            "PolicyEntry",
            "PolicyParamError",
            "PolicySpec",
            "UnknownPolicyError",
            "build_online_policy",
            "build_scheduler",
            "discover_policies",
            "get_policy",
            "list_policies",
            "policy_names",
            "register_policy",
            "resolve_policy",
        ),
        ".service": (
            "ClusterService",
            "OnlinePolicy",
            "ReplayDriver",
            "ReplayReport",
            "load_snapshot",
            "replay_scenario",
            "save_snapshot",
        ),
        ".sim.runner": (
            "METRICS",
            "as_scheduler",
            "compare_algorithms",
            "evaluate_portfolio",
            "run_schedule",
        ),
    },
)
