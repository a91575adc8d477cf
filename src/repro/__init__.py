"""repro: non-monetary fair scheduling via cooperative game theory.

A complete reproduction of Skowron & Rzadca, *"Non-monetary fair
scheduling -- a cooperative game theory approach"* (SPAA 2013,
arXiv:1302.0948): the multi-organizational scheduling model, the
strategy-proof utility, Shapley-value fairness, the exact exponential
scheduler (REF), the randomized FPRAS (RAND), the practical heuristic
(DIRECTCONTR), distributive-fairness baselines, the workload substrate and
the full experimental harness.

Quickstart (the stable surface lives in :mod:`repro.api`; policies are
named through the :data:`~repro.policies.POLICY_REGISTRY`)::

    from repro import api

    wl = api.Workload(
        [api.Organization(0, 2), api.Organization(1, 1)],
        [api.Job(release=0, org=0, index=0, size=4),
         api.Job(release=0, org=1, index=0, size=4)],
    )
    result = api.build_scheduler("ref").run(wl)
    print(result.utilities(t=8))

    # the whole mechanism family, by name, against the exact reference
    comparison = api.compare_algorithms(
        [e.name for e in api.list_policies() if e.capabilities.batch],
        "ref", wl, t_end=8,
    )

Direct constructor imports (``repro.RefScheduler()`` etc.) keep working
bit-identically.  See README.md for the architecture overview and the
deprecation table, and EXPERIMENTS.md for the paper-versus-measured
record of every table and figure.

Imports are lazy: ``import repro`` loads this module and
:mod:`repro.api` and nothing else; each re-exported name imports its
submodule on first access (PEP 562), so a process that runs one
subsystem -- a gateway worker, one service -- loads only that one.
"""

from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(namespace: dict, sources: "dict[str, tuple[str, ...]]"):
    """PEP 562 re-exports for a module of this package.

    ``sources`` maps a submodule, relative to this package, to the names
    it supplies.  Returns the module's ``__getattr__`` and ``__dir__`` and
    the sorted exported names.  A name is imported on first access and
    stored in ``namespace``, so later lookups never reach ``__getattr__``.
    """
    table = {name: mod for mod, names in sources.items() for name in names}

    def __getattr__(name: str):
        try:
            mod = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(mod, __name__), name)
        return value

    def __dir__() -> "list[str]":
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, sorted(table)


__getattr__, __dir__, _exported = _lazy_exports(
    globals(),
    {
        ".algorithms": (
            "CurrFairShareScheduler",
            "DirectContributionScheduler",
            "FairShareScheduler",
            "GeneralRefScheduler",
            "GreedyFifoScheduler",
            "RandScheduler",
            "RefScheduler",
            "RoundRobinScheduler",
            "Scheduler",
            "SchedulerResult",
            "UtFairShareScheduler",
        ),
        ".core": (
            "ClusterEngine",
            "Coalition",
            "CoalitionFleet",
            "Job",
            "Organization",
            "Schedule",
            "ScheduledJob",
            "Workload",
        ),
        ".shapley": (
            "SchedulingGame",
            "hoeffding_samples",
            "shapley_exact",
            "shapley_sample",
        ),
        ".experiments": (
            "ScenarioSpec",
            "list_scenarios",
            "run_pipeline",
            "scenario_spec",
        ),
        ".policies": (
            "POLICY_REGISTRY",
            "CapabilityError",
            "PolicySpec",
            "build_scheduler",
            "list_policies",
            "register_policy",
        ),
        ".sim": ("avg_delay", "compare_algorithms", "run_schedule", "unfairness"),
        ".utility": (
            "FlowTimeUtility",
            "GeneralAnonymousUtility",
            "StrategyProofUtility",
            "UtilityFunction",
            "psi_sp",
        ),
        ".workloads": ("load_swf", "make_trace"),
    },
)

from . import api  # noqa: E402  (imports _lazy_exports from here)

__all__ = sorted([*_exported, "__version__", "api"])
