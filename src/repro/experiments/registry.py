"""Pluggable registries: scenario families, algorithm portfolios, scenarios.

Three small name->object maps decouple *what* an experiment is (a frozen
:class:`~repro.experiments.spec.ScenarioSpec`) from *how* it runs:

* **families** — instance builders ``(spec, instance) -> (workload,
  algorithm_seed)``.  A family owns its RNG-derivation scheme (documented
  per builder, pinned in DESIGN.md §3) so that every instance is
  independently computable on any worker process;
* **portfolios** — named algorithm row sets ``(horizon, seed) ->
  [Scheduler]``.  Specs reference portfolios by name so they stay
  hashable/picklable.  Built-ins are declared as
  :class:`~repro.policies.PolicySpec` rows
  (:func:`register_portfolio_specs`, inspectable via
  :data:`PORTFOLIO_SPECS`) and constructed through the global policy
  registry — no algorithm constructors are named here;
* **scenarios** — named, ready-to-run specs with a one-line description
  (what ``repro scenarios`` lists and ``repro run NAME`` executes).

Built-ins registered at import time:

=============  ========================================================
family         instances it builds
=============  ========================================================
``synthetic``  the paper's Tables 1-2 protocol on the four archive
               stand-ins (bit-compatible with the legacy serial loop)
``swf``        the same protocol over a *real* SWF file
               (``spec.swf_path``), closing the DESIGN.md §1.5 gap
``federated``  federated-cloud providers with staggered correlated
               bursts offloading onto each other's idle machines
``churn``      org-count x Zipf-exponent heterogeneity sweeps with
               common-random-number windows (generalizes Figure 10)
``scale``      high-``k`` federations (25-200 orgs) past REF's exact
               ceiling, scored against an approximate reference
               (DESIGN.md §12; ``spec.reference``)
=============  ========================================================

Register your own with :func:`register_family` / :func:`register_portfolio`
/ :func:`register_scenario`; parallel runs require registration to happen
at import time of your module (worker processes re-import, they do not
inherit runtime state).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

from ..algorithms import Scheduler
from ..core.workload import Workload
from ..policies import PolicySpec, build_scheduler
from ..workloads.federated import FederatedSpec, federated_records
from ..workloads.swf import load_swf
from ..workloads.traces import PAPER_TRACES
from ..workloads.transforms import (
    build_swf_instance,
    build_workload,
    machine_split,
)
from .harness import assign_instance, sample_instance, sample_window
from .spec import InstanceSpec, ScenarioSpec, derive_rng

__all__ = [
    "Scenario",
    "FAMILIES",
    "PORTFOLIOS",
    "PORTFOLIO_SPECS",
    "SCENARIOS",
    "register_family",
    "register_portfolio",
    "register_portfolio_specs",
    "register_scenario",
    "get_family",
    "get_portfolio",
    "get_scenario",
    "list_scenarios",
    "scenario_spec",
]

#: An instance builder: (spec, instance) -> (workload, algorithm seed).
InstanceBuilder = Callable[[ScenarioSpec, InstanceSpec], "tuple[Workload, int]"]

#: A portfolio factory: (horizon, seed) -> fresh scheduler objects.
PortfolioFactory = Callable[[int, int], "list[Scheduler]"]

FAMILIES: dict[str, InstanceBuilder] = {}
PORTFOLIOS: dict[str, PortfolioFactory] = {}

#: Declarative row sets: portfolio name -> :class:`PolicySpec` rows.
#: Populated by :func:`register_portfolio_specs`; a portfolio registered
#: through a bare callable (:func:`register_portfolio`) has no entry
#: here.  Policy *construction* always happens in
#: :data:`repro.policies.POLICY_REGISTRY`.
PORTFOLIO_SPECS: dict[str, tuple[PolicySpec, ...]] = {}


@dataclass(frozen=True)
class Scenario:
    """A named, documented, ready-to-run experiment spec."""

    name: str
    description: str
    spec: ScenarioSpec


SCENARIOS: dict[str, Scenario] = {}


def register_family(
    name: str, builder: InstanceBuilder, *, overwrite: bool = False
) -> InstanceBuilder:
    if name in FAMILIES and not overwrite:
        raise ValueError(f"family {name!r} already registered")
    FAMILIES[name] = builder
    return builder


def register_portfolio(
    name: str, factory: PortfolioFactory, *, overwrite: bool = False
) -> PortfolioFactory:
    if name in PORTFOLIOS and not overwrite:
        raise ValueError(f"portfolio {name!r} already registered")
    PORTFOLIOS[name] = factory
    return factory


def register_portfolio_specs(
    name: str,
    specs: "tuple[PolicySpec | str, ...]",
    *,
    overwrite: bool = False,
) -> PortfolioFactory:
    """Register a portfolio declaratively: :class:`PolicySpec` rows (or
    names / ``name:k=v`` strings) built through the policy registry.

    The resulting factory constructs each row with the run's
    ``(horizon, seed)``; the normalized specs are kept in
    :data:`PORTFOLIO_SPECS` so tooling (and tests) can inspect a
    portfolio without constructing it.
    """
    rows = tuple(
        s if isinstance(s, PolicySpec) else PolicySpec.parse(s) for s in specs
    )

    def factory(horizon: int, seed: int) -> list[Scheduler]:
        return [build_scheduler(s, seed=seed, horizon=horizon) for s in rows]

    factory.__name__ = f"{name}_portfolio"
    factory.__doc__ = f"Rows: {', '.join(str(s) for s in rows)}."
    # register the factory first: on a name collision it raises before
    # PORTFOLIO_SPECS is touched, keeping the two maps consistent
    result = register_portfolio(name, factory, overwrite=overwrite)
    PORTFOLIO_SPECS[name] = rows
    return result


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    if scenario.spec.family not in FAMILIES:
        raise KeyError(
            f"scenario {scenario.name!r} uses unknown family "
            f"{scenario.spec.family!r}; register the family first"
        )
    if scenario.name in SCENARIOS and not overwrite:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_family(name: str) -> InstanceBuilder:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {name!r}; available: {sorted(FAMILIES)}"
        ) from None


def get_portfolio(name: str) -> PortfolioFactory:
    try:
        return PORTFOLIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown portfolio {name!r}; available: {sorted(PORTFOLIOS)}"
        ) from None


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def list_scenarios() -> list[Scenario]:
    """Registered scenarios in registration order."""
    return list(SCENARIOS.values())


def scenario_spec(name: str, **overrides) -> ScenarioSpec:
    """The registered spec with any non-``None`` keyword overrides applied
    (the CLI's flag -> spec plumbing)."""
    spec = get_scenario(name).spec
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(spec, **clean) if clean else spec


# ----------------------------------------------------------------------
# built-in portfolios (rows are PolicySpecs; construction lives in the
# policy registry)
# ----------------------------------------------------------------------
def paper_portfolio(horizon: int, seed: int) -> list[Scheduler]:
    """The paper's Table 1/2 row set (Section 7.1)."""
    return get_portfolio("paper")(horizon, seed)


def fast_portfolio(horizon: int, seed: int) -> list[Scheduler]:
    """Cheap subset for smoke runs: no sampled-Shapley algorithms."""
    return get_portfolio("fast")(horizon, seed)


def contribution_portfolio(horizon: int, seed: int) -> list[Scheduler]:
    """Only the contribution-tracking algorithms (RAND, DIRECTCONTR)."""
    return get_portfolio("contribution")(horizon, seed)


# ----------------------------------------------------------------------
# built-in families
# ----------------------------------------------------------------------
def synthetic_instance(
    spec: ScenarioSpec, inst: InstanceSpec
) -> tuple[Workload, int]:
    """Tables 1-2 protocol on an archive stand-in.

    Seed scheme (unchanged from the pre-pipeline harness, so serial,
    parallel and legacy runs are bit-identical):
    ``crc32(f"{trace}/{repeat}/{seed}")`` drives trace generation, window
    position, user assignment and finally the algorithm seed, in that
    order.
    """
    rng = derive_rng(f"{inst.trace}/{inst.repeat}/{spec.seed}")
    workload = sample_instance(
        inst.trace,
        spec.duration,
        int(inst.param("n_orgs", spec.n_orgs)),
        rng,
        scale=spec.scale,
        machine_dist=spec.machine_dist,
        pool_factor=spec.pool_factor,
    )
    return workload, int(rng.integers(0, 2**31 - 1))


def churn_instance(
    spec: ScenarioSpec, inst: InstanceSpec
) -> tuple[Workload, int]:
    """Org-churn / heterogeneity sweep cell (generalizes Figure 10).

    Common-random-numbers design: the window RNG key
    ``f"{trace}/window/{repeat}/{seed}"`` is independent of the sweep
    variant, so every (org count, Zipf exponent) cell of one repeat reuses
    the same trace window and the sweep trend is not swamped by
    window-to-window load variance.  The assignment RNG key matches the
    legacy ``figure10`` scheme exactly when ``zipf_exponent == 1.0`` under
    the Zipf split, so the figure reproduces bit-for-bit through the
    pipeline.
    """
    k = int(inst.param("n_orgs", spec.n_orgs))
    z = float(inst.param("zipf_exponent", spec.zipf_exponent))
    window_rng = derive_rng(f"{inst.trace}/window/{inst.repeat}/{spec.seed}")
    records, gen_spec, t_start = sample_window(
        inst.trace,
        spec.duration,
        window_rng,
        scale=spec.scale,
        pool_factor=spec.pool_factor,
    )
    legacy = spec.machine_dist == "zipf" and z == 1.0
    akey = (
        f"{inst.trace}/{k}/{inst.repeat}/{spec.seed}"
        if legacy
        else f"{inst.trace}/{k}/{spec.machine_dist}{z:g}/{inst.repeat}/{spec.seed}"
    )
    assign_rng = derive_rng(akey)
    workload = assign_instance(
        records,
        gen_spec,
        t_start,
        spec.duration,
        k,
        assign_rng,
        machine_dist=spec.machine_dist,
        zipf_exponent=z,
    )
    return workload, int(assign_rng.integers(0, 2**31 - 1))


@lru_cache(maxsize=8)
def _cached_swf(path: str):
    """Parse an SWF file once per process (instances share the trace)."""
    return load_swf(path)


def swf_instance(
    spec: ScenarioSpec, inst: InstanceSpec
) -> tuple[Workload, int]:
    """Tables 1-2 protocol over a real SWF archive file (``spec.swf_path``).

    Seed scheme: ``crc32(f"{trace}/{repeat}/{seed}")`` drives the window
    position, the user assignment and the algorithm seed, in that order
    (the trace itself is data, not randomness).
    """
    if not spec.swf_path:
        raise ValueError(
            "the 'swf' family needs swf_path (CLI: repro run swf --swf FILE)"
        )
    trace = _cached_swf(spec.swf_path)
    rng = derive_rng(f"{inst.trace}/{inst.repeat}/{spec.seed}")
    workload = build_swf_instance(
        trace,
        spec.duration,
        int(inst.param("n_orgs", spec.n_orgs)),
        rng,
        machine_dist=spec.machine_dist,
        zipf_exponent=float(inst.param("zipf_exponent", spec.zipf_exponent)),
        scale=spec.scale,
    )
    return workload, int(rng.integers(0, 2**31 - 1))


def federated_instance(
    spec: ScenarioSpec, inst: InstanceSpec
) -> tuple[Workload, int]:
    """Federated-offload cell: staggered provider bursts over a pooled
    cluster (see :mod:`repro.workloads.federated`).

    Seed scheme: ``crc32(f"{trace}/{repeat}/{seed}")`` drives federation
    generation, window position and the algorithm seed, in that order.
    """
    k = int(inst.param("n_orgs", spec.n_orgs))
    rng = derive_rng(f"{inst.trace}/{inst.repeat}/{spec.seed}")
    horizon = spec.duration * spec.pool_factor
    fspec = FederatedSpec(
        n_orgs=k,
        horizon=horizon,
        machines_per_org=int(spec.param("machines_per_org", 5)),
        users_per_org=int(spec.param("users_per_org", 8)),
        load=float(spec.param("load", 0.8)),
        peak_amplitude=float(spec.param("peak_amplitude", 0.9)),
        day_length=int(spec.param("day_length", spec.duration)),
    )
    records, user_map = federated_records(fspec, rng)
    t_start = int(rng.integers(0, max(1, horizon - spec.duration)))
    machines = machine_split(
        k * fspec.machines_per_org, k, spec.machine_dist, spec.zipf_exponent
    )
    full = build_workload(records, machines, user_map)
    workload = full.window(t_start, t_start + spec.duration)
    return workload, int(rng.integers(0, 2**31 - 1))


def scale_instance(
    spec: ScenarioSpec, inst: InstanceSpec
) -> tuple[Workload, int]:
    """High-``k`` federation cell: the federated burst generator pushed
    past REF's exact ceiling (org counts swept via ``spec.org_counts``,
    typically 25-200).

    Seed scheme: ``crc32(f"{trace}/scale/{k}/{repeat}/{seed}")`` drives
    federation generation, window position and the algorithm seed, in
    that order -- the org count is part of the key, so sweep cells are
    independent draws (no CRN across ``k``; at this scale the trend
    dwarfs window noise).  Sample budgets are swept through the
    portfolio rows (e.g. the ``approx`` portfolio), not the instance.
    """
    k = int(inst.param("n_orgs", spec.n_orgs))
    rng = derive_rng(f"{inst.trace}/scale/{k}/{inst.repeat}/{spec.seed}")
    horizon = spec.duration * spec.pool_factor
    fspec = FederatedSpec(
        n_orgs=k,
        horizon=horizon,
        machines_per_org=int(spec.param("machines_per_org", 2)),
        users_per_org=int(spec.param("users_per_org", 3)),
        load=float(spec.param("load", 0.7)),
        peak_amplitude=float(spec.param("peak_amplitude", 0.5)),
        day_length=int(spec.param("day_length", spec.duration)),
    )
    records, user_map = federated_records(fspec, rng)
    t_start = int(rng.integers(0, max(1, horizon - spec.duration)))
    machines = machine_split(
        k * fspec.machines_per_org, k, spec.machine_dist, spec.zipf_exponent
    )
    full = build_workload(records, machines, user_map)
    workload = full.window(t_start, t_start + spec.duration)
    return workload, int(rng.integers(0, 2**31 - 1))


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
register_portfolio_specs(
    "paper",
    (
        PolicySpec("roundrobin"),
        PolicySpec.make("rand", n_orderings=15),
        PolicySpec("directcontr"),
        PolicySpec("fairshare"),
        PolicySpec("utfairshare"),
        PolicySpec("currfairshare"),
    ),
)
register_portfolio_specs(
    "fast",
    (
        PolicySpec("roundrobin"),
        PolicySpec("fairshare"),
        PolicySpec("currfairshare"),
    ),
)
register_portfolio_specs(
    "contribution",
    (PolicySpec.make("rand", n_orderings=15), PolicySpec("directcontr")),
)
register_portfolio_specs(
    "approx",
    # fairness-vs-budget ladder: uniform RAND vs the variance-reduced and
    # certified samplers at a low and a moderate ordering budget
    (
        PolicySpec.make("rand", n_orderings=5),
        PolicySpec.make("rand", n_orderings=15),
        PolicySpec.make("ref_stratified", n_orderings=5),
        PolicySpec.make("ref_stratified", n_orderings=15),
        PolicySpec.make("ref_adaptive", n_max=64),
    ),
)

register_family("synthetic", synthetic_instance)
register_family("churn", churn_instance)
register_family("swf", swf_instance)
register_family("federated", federated_instance)
register_family("scale", scale_instance)

register_scenario(
    Scenario(
        "table1",
        "Paper Table 1 (scaled): 6 algorithms x 4 trace stand-ins, D=5e3",
        ScenarioSpec(
            family="synthetic", traces=PAPER_TRACES, duration=5_000,
            n_repeats=3, seed=0,
        ),
    )
)
register_scenario(
    Scenario(
        "table2",
        "Paper Table 2 (scaled): the Table 1 protocol, 4x longer windows",
        ScenarioSpec(
            family="synthetic", traces=PAPER_TRACES, duration=20_000,
            n_repeats=2, seed=1,
        ),
    )
)
register_scenario(
    Scenario(
        "figure10",
        "Paper Fig. 10: avg delay vs organization count (LPC-EGEE, CRN windows)",
        ScenarioSpec(
            family="churn", traces=("LPC-EGEE",), duration=4_000,
            n_repeats=2, seed=0, org_counts=(2, 3, 4, 5, 6),
        ),
    )
)
register_scenario(
    Scenario(
        "churn",
        "Heterogeneity sweep: org counts x Zipf machine-split exponents",
        ScenarioSpec(
            family="churn", traces=("LPC-EGEE",), duration=3_000,
            n_repeats=2, seed=0, org_counts=(2, 3, 4, 5),
            zipf_exponents=(0.5, 1.0, 2.0),
        ),
    )
)
register_scenario(
    Scenario(
        "federated",
        "Federated clouds: staggered provider bursts offloading onto idle peers",
        ScenarioSpec(
            family="federated", traces=("FED",), n_orgs=4, duration=2_500,
            n_repeats=3, seed=0, machine_dist="uniform",
            metrics=("avg_delay", "unfairness"),
        ),
    )
)
register_scenario(
    Scenario(
        "scale",
        "Certified approximation at scale: 25-100 orgs, budget ladder vs ref_hier",
        ScenarioSpec(
            family="scale", traces=("SCALE",), duration=400, n_repeats=2,
            seed=0, machine_dist="uniform", org_counts=(25, 50, 100),
            portfolio="approx", metrics=("avg_delay", "unfairness"),
            reference="ref_hier:block_size=5",
            params=(("load", 1.2), ("peak_amplitude", 0.9)),
        ),
    )
)
register_scenario(
    Scenario(
        "swf",
        "Tables protocol over a real SWF archive file (pass --swf FILE)",
        ScenarioSpec(
            family="swf", traces=("SWF",), duration=2_000, n_repeats=3,
            seed=0,
        ),
    )
)
