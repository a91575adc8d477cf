"""The policy registry: one first-class API for every fairness mechanism.

The paper contributes a *family* of mechanisms (REF, RAND, DIRECTCONTR,
plus the distributive baselines), and this repository runs them through
three consumer layers: the batch runners (:mod:`repro.sim.runner`), the
experiment pipeline (:mod:`repro.experiments`), and the online service
(:mod:`repro.service`).  Before this module each layer hand-rolled its
own name -> constructor table; now there is exactly one dispatch point:

* :class:`PolicySpec` — a frozen, content-hashed value object naming a
  policy and its typed parameters (serializable exactly like
  :class:`~repro.experiments.spec.ScenarioSpec`, parseable from CLI
  strings such as ``"rand:n_orderings=30"``);
* :class:`PolicyEntry` — a registry row: summary, paper section, typed
  parameter schema, **capabilities**, and factory hooks for both the
  batch :class:`~repro.algorithms.base.Scheduler` and the online
  :class:`~repro.service.service.OnlinePolicy` adapter;
* :class:`PolicyCapabilities` — what a consumer may ask of a policy:
  ``batch`` (frozen-workload runs), ``step`` (event-granular online
  stepping), ``dynamic_membership`` (orgs may join/leave a live
  service), ``max_orgs`` (active-organization cap, e.g. REF's
  2^k-engine recursion), ``needs_seed`` (consumes the run seed) and
  ``exact`` (exact vs sampled value oracle).  Consumers validate
  capabilities *at ingest* and raise typed errors
  (:class:`CapabilityError`) instead of failing deep inside a policy;
* :data:`POLICY_REGISTRY` + :func:`register_policy` — the global table,
  extended at import time by builtins and lazily by third-party
  packages through the ``repro.policies`` entry-point group
  (:func:`discover_policies`), so new mechanisms (e.g. federated-cloud
  variants per Pacholczyk & Rzadca 2018) plug in without editing this
  package.

Resolution helpers: :func:`get_policy` (name -> entry),
:func:`resolve_policy` (str | PolicySpec -> normalized PolicySpec),
:func:`build_scheduler` (spec -> batch scheduler) and
:func:`build_online_policy` (spec + service -> online adapter).  The
blessed import surface is re-exported by :mod:`repro.api`; see
DESIGN.md §7 for the capability model.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from importlib.metadata import entry_points
from typing import TYPE_CHECKING, Callable, Mapping

from .algorithms import (
    CurrFairShareScheduler,
    DirectContributionScheduler,
    FairShareScheduler,
    GeneralRefScheduler,
    GreedyFifoScheduler,
    RandScheduler,
    RefScheduler,
    RoundRobinScheduler,
    Scheduler,
    UtFairShareScheduler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> here)
    from .service.service import ClusterService, OnlinePolicy

__all__ = [
    "CapabilityError",
    "ENTRY_POINT_GROUP",
    "POLICY_REGISTRY",
    "ParamSpec",
    "PolicyCapabilities",
    "PolicyEntry",
    "PolicyParamError",
    "PolicySpec",
    "REF_MAX_ORGS",
    "UnknownPolicyError",
    "build_online_policy",
    "build_scheduler",
    "discover_policies",
    "get_policy",
    "list_policies",
    "policy_names",
    "register_policy",
    "resolve_policy",
]

#: Entry-point group third-party packages register policies under::
#:
#:     [project.entry-points."repro.policies"]
#:     mypolicy = "mypkg.policies:register"
#:
#: The target may be a :class:`PolicyEntry` or a zero-argument callable
#: returning one (or ``None`` after calling :func:`register_policy`
#: itself).
ENTRY_POINT_GROUP = "repro.policies"

#: REF (online) keeps one engine per nonempty subcoalition (2^k - 1);
#: past this many *active* members a join is refused rather than letting
#: the recursion explode silently.  Canonical home of the cap the
#: ``ref`` registry entry declares as ``max_orgs``.
REF_MAX_ORGS = 10


# ----------------------------------------------------------------------
# typed errors
# ----------------------------------------------------------------------
class UnknownPolicyError(KeyError):
    """No registered policy has this name (subclasses ``KeyError`` so
    legacy ``except KeyError`` call sites keep working)."""

    def __init__(self, name: str, available: "list[str]"):
        super().__init__(
            f"unknown policy {name!r}; available: {sorted(available)}"
        )
        self.name = name
        self.available = sorted(available)

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


class PolicyParamError(ValueError):
    """A :class:`PolicySpec` carries a parameter the policy does not
    declare, or a value of the wrong type."""


class CapabilityError(ValueError):
    """A consumer asked a policy for a capability it does not declare
    (e.g. online stepping from a batch-only policy, or an org count
    beyond ``max_orgs``)."""


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
ParamValue = "int | float | str | bool"


def _parse_value(text: str) -> "int | float | str | bool":
    """CLI value parsing: int, then float, then bool literals, else str."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


@dataclass(frozen=True)
class PolicySpec:
    """A policy identity: name + typed parameters (frozen value object).

    Like :class:`~repro.experiments.spec.ScenarioSpec` it is plain data:
    content-hashable (:meth:`content_hash`), JSON-serializable
    (:meth:`to_json` / :meth:`from_json`), picklable, and usable as a
    dict key.  ``params`` is a sorted tuple of ``(name, value)`` pairs;
    construct via keyword arguments with :meth:`make` or from a CLI
    string with :meth:`parse`::

        PolicySpec.make("rand", n_orderings=30)
        PolicySpec.parse("rand:n_orderings=30")

    Validation against the policy's declared parameter schema happens at
    resolution time (:meth:`PolicyEntry.resolve_params`), not at
    construction: a spec may name a policy registered later.
    """

    name: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("policy name must be a non-empty string")
        pairs = (
            tuple(self.params.items())
            if isinstance(self.params, Mapping)
            else tuple(tuple(p) for p in self.params)
        )
        names = [k for k, _ in pairs]
        if len(names) != len(set(names)):
            raise PolicyParamError(
                f"policy {self.name!r}: duplicate parameters in {names}"
            )
        object.__setattr__(self, "params", tuple(sorted(pairs)))

    @classmethod
    def make(cls, name: str, **params: ParamValue) -> "PolicySpec":
        """Keyword-argument constructor: ``PolicySpec.make("rand", n_orderings=30)``."""
        return cls(name, tuple(params.items()))

    @classmethod
    def parse(cls, text: "str | PolicySpec") -> "PolicySpec":
        """Parse ``"name"`` or ``"name:k=v,k=v"`` (the CLI ``--policy`` syntax)."""
        if isinstance(text, PolicySpec):
            return text
        name, _, rest = text.partition(":")
        params: list[tuple[str, ParamValue]] = []
        if rest:
            for chunk in rest.split(","):
                key, sep, value = chunk.partition("=")
                if not sep or not key:
                    raise PolicyParamError(
                        f"bad policy parameter {chunk!r} in {text!r} "
                        f"(expected NAME:key=value[,key=value...])"
                    )
                params.append((key.strip(), _parse_value(value.strip())))
        return cls(name.strip(), tuple(params))

    def with_params(self, **params: ParamValue) -> "PolicySpec":
        """A copy with ``params`` merged over the existing pairs."""
        merged = dict(self.params)
        merged.update(params)
        return PolicySpec(self.name, tuple(merged.items()))

    def param(self, name: str, default=None):
        """One parameter's value (``default`` when absent)."""
        for k, v in self.params:
            if k == name:
                return v
        return default

    def as_dict(self) -> dict:
        """The parameters as a plain dict."""
        return dict(self.params)

    # -- identity / serialization --------------------------------------
    def to_json(self) -> dict:
        """Canonical JSON form (inverse of :meth:`from_json`)."""
        return {"name": self.name, "params": [list(p) for p in self.params]}

    @classmethod
    def from_json(cls, d: "dict | str") -> "PolicySpec":
        """Rebuild from :meth:`to_json` output (a bare string is a name)."""
        if isinstance(d, str):
            return cls.parse(d)
        return cls(d["name"], tuple((k, v) for k, v in d.get("params", ())))

    def content_hash(self) -> str:
        """Stable hex digest of name + params (16 hex chars), computed
        the same way :meth:`ScenarioSpec.content_hash` is."""
        payload = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __str__(self) -> str:
        if not self.params:
            return self.name
        rest = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{rest}"


# ----------------------------------------------------------------------
# capabilities and registry rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyCapabilities:
    """What consumers may ask of a policy (validated at ingest).

    ``exact`` distinguishes exact value oracles (REF's full recursion,
    DIRECTCONTR's ledger) from sampled ones (RAND's prefix estimates);
    ``max_orgs`` caps *active* organizations (``None``: unbounded) —
    the online service refuses a join beyond it with a typed
    :class:`CapabilityError` instead of a deep assertion.
    """

    batch: bool = True
    step: bool = True
    dynamic_membership: bool = True
    max_orgs: "int | None" = None
    needs_seed: bool = False
    exact: bool = True

    def summary(self) -> str:
        """Compact rendering for tables (``repro policies``)."""
        flags = [
            name
            for name, on in (
                ("batch", self.batch),
                ("step", self.step),
                ("dynamic", self.dynamic_membership),
                ("seeded", self.needs_seed),
            )
            if on
        ]
        flags.append("exact" if self.exact else "sampled")
        if self.max_orgs is not None:
            flags.append(f"max_orgs={self.max_orgs}")
        return ",".join(flags)


@dataclass(frozen=True)
class ParamSpec:
    """One declared policy parameter: name, type, default, one-line doc."""

    name: str
    type: type
    default: ParamValue
    doc: str = ""

    def coerce(self, value, policy: str):
        """Validate/convert one supplied value (typed error on mismatch)."""
        if isinstance(value, self.type) and not (
            self.type is int and isinstance(value, bool)
        ):
            return value
        if self.type is float and isinstance(value, int):
            return float(value)
        if self.type is int and isinstance(value, float) and value.is_integer():
            return int(value)
        raise PolicyParamError(
            f"policy {policy!r}: parameter {self.name!r} expects "
            f"{self.type.__name__}, got {value!r}"
        )


#: Batch factory hook: ``(params, seed, horizon) -> Scheduler`` where
#: ``params`` is the fully-defaulted parameter dict.
BatchFactory = Callable[[dict, int, "int | None"], Scheduler]

#: Online factory hook: ``(service, params) -> OnlinePolicy``.
OnlineFactory = Callable[["ClusterService", dict], "OnlinePolicy"]


@dataclass(frozen=True)
class PolicyEntry:
    """One registry row: identity, docs, capabilities, factory hooks."""

    name: str
    summary: str
    capabilities: PolicyCapabilities = field(default_factory=PolicyCapabilities)
    batch_factory: "BatchFactory | None" = None
    online_factory: "OnlineFactory | None" = None
    params: tuple[ParamSpec, ...] = ()
    paper_section: str = ""

    def __post_init__(self) -> None:
        if self.capabilities.batch and self.batch_factory is None:
            raise ValueError(
                f"policy {self.name!r} declares the batch capability but "
                f"has no batch_factory"
            )
        if self.capabilities.step and self.online_factory is None:
            raise ValueError(
                f"policy {self.name!r} declares the step capability but "
                f"has no online_factory"
            )

    # -- params --------------------------------------------------------
    def resolve_params(self, spec: "PolicySpec | None" = None) -> dict:
        """The fully-defaulted parameter dict for ``spec`` (typed errors
        on unknown names / wrong types)."""
        declared = {p.name: p for p in self.params}
        out = {p.name: p.default for p in self.params}
        for key, value in (spec.params if spec is not None else ()):
            if key not in declared:
                raise PolicyParamError(
                    f"policy {self.name!r} has no parameter {key!r}; "
                    f"declared: {sorted(declared) or 'none'}"
                )
            out[key] = declared[key].coerce(value, self.name)
        return out

    # -- factories -----------------------------------------------------
    def build(
        self,
        spec: "PolicySpec | None" = None,
        *,
        seed: int = 0,
        horizon: "int | None" = None,
    ) -> Scheduler:
        """Construct the batch scheduler (requires the ``batch`` capability)."""
        if not self.capabilities.batch or self.batch_factory is None:
            raise CapabilityError(
                f"policy {self.name!r} has no batch capability"
            )
        return self.batch_factory(self.resolve_params(spec), seed, horizon)

    def build_online(
        self, service: "ClusterService", spec: "PolicySpec | None" = None
    ) -> "OnlinePolicy":
        """Construct the online adapter (requires the ``step`` capability)."""
        if not self.capabilities.step or self.online_factory is None:
            raise CapabilityError(
                f"policy {self.name!r} has no step capability: it cannot "
                f"drive the online service (batch-only)"
            )
        return self.online_factory(service, self.resolve_params(spec))


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: The global policy table.  Mutate only through :func:`register_policy`.
POLICY_REGISTRY: dict[str, PolicyEntry] = {}

_discovered = False


def register_policy(entry: PolicyEntry, *, overwrite: bool = False) -> PolicyEntry:
    """Add one policy to :data:`POLICY_REGISTRY` (error on collisions
    unless ``overwrite``); returns the entry for chaining."""
    if entry.name in POLICY_REGISTRY and not overwrite:
        raise ValueError(f"policy {entry.name!r} already registered")
    POLICY_REGISTRY[entry.name] = entry
    return entry


def discover_policies(*, force: bool = False) -> list[str]:
    """Load third-party policies from the ``repro.policies`` entry-point
    group (idempotent; ``force`` re-scans).  Returns newly added names.

    A broken entry point is reported as a :class:`RuntimeWarning`, never
    an import failure: one bad plugin must not take down the registry.
    """
    global _discovered
    if _discovered and not force:
        return []
    _discovered = True
    added: list[str] = []
    try:
        eps = tuple(entry_points(group=ENTRY_POINT_GROUP))
    except Exception:  # pragma: no cover - metadata backend quirks
        return added
    for ep in eps:
        try:
            obj = ep.load()
            if callable(obj) and not isinstance(obj, PolicyEntry):
                obj = obj()
            if isinstance(obj, PolicyEntry):
                if obj.name in POLICY_REGISTRY:
                    warnings.warn(
                        f"repro policy entry point {ep.name!r} skipped: "
                        f"policy {obj.name!r} is already registered",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    register_policy(obj)
                    added.append(obj.name)
        except Exception as exc:
            warnings.warn(
                f"repro policy entry point {ep.name!r} failed to load: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return added


def get_policy(name: str) -> PolicyEntry:
    """The registry row for ``name`` (typed error listing alternatives)."""
    discover_policies()
    try:
        return POLICY_REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(name, list(POLICY_REGISTRY)) from None


def list_policies() -> list[PolicyEntry]:
    """Every registered policy, in registration order (builtins first)."""
    discover_policies()
    return list(POLICY_REGISTRY.values())


def policy_names(capability: "str | None" = None) -> list[str]:
    """Registered names, optionally filtered by a truthy capability
    field (``"step"``, ``"batch"``, ``"dynamic_membership"``, ...)."""
    return [
        e.name
        for e in list_policies()
        if capability is None or getattr(e.capabilities, capability)
    ]


def resolve_policy(policy: "str | PolicySpec") -> PolicySpec:
    """Normalize a name / CLI string / spec to a validated
    :class:`PolicySpec` (the policy must be registered)."""
    spec = PolicySpec.parse(policy)
    get_policy(spec.name).resolve_params(spec)
    return spec


def build_scheduler(
    policy: "str | PolicySpec",
    *,
    seed: int = 0,
    horizon: "int | None" = None,
) -> Scheduler:
    """One-call batch construction: resolve ``policy`` through the
    registry and build its :class:`~repro.algorithms.base.Scheduler`."""
    spec = PolicySpec.parse(policy)
    return get_policy(spec.name).build(spec, seed=seed, horizon=horizon)


def build_online_policy(
    service: "ClusterService", policy: "str | PolicySpec"
) -> "OnlinePolicy":
    """One-call online construction: resolve ``policy`` and build its
    :class:`~repro.service.service.OnlinePolicy` adapter for ``service``."""
    spec = PolicySpec.parse(policy)
    return get_policy(spec.name).build_online(service, spec)


# ----------------------------------------------------------------------
# builtin policies
# ----------------------------------------------------------------------
def _from_batch(adapter: str, batch_factory: BatchFactory) -> OnlineFactory:
    """A step policy's online factory: the service's ``adapter`` class
    around the scheduler the *same* batch factory returns, so the batch
    and online paths cannot drift (knobs, validation, names)."""

    def make(service: "ClusterService", params: dict) -> "OnlinePolicy":
        from .service import service as online

        return getattr(online, adapter)(
            service, batch_factory(params, service.seed, service.horizon)
        )

    return make


def _register_builtin(
    name: str,
    summary: str,
    batch_factory: BatchFactory,
    *,
    paper_section: str,
    capabilities: "PolicyCapabilities | None" = None,
    params: tuple[ParamSpec, ...] = (),
    adapter: str = "_SingleEnginePolicy",
) -> None:
    caps = capabilities or PolicyCapabilities()
    register_policy(
        PolicyEntry(
            name=name,
            summary=summary,
            capabilities=caps,
            batch_factory=batch_factory,
            online_factory=(
                _from_batch(adapter, batch_factory) if caps.step else None
            ),
            params=params,
            paper_section=paper_section,
        )
    )


_register_builtin(
    "ref",
    "exact exponential Shapley-fair benchmark (REF)",
    lambda params, seed, horizon: RefScheduler(horizon=horizon),
    paper_section="§3, Figs. 1/3",
    capabilities=PolicyCapabilities(max_orgs=REF_MAX_ORGS),
    adapter="_RefPolicy",
)
_register_builtin(
    "ref-general",
    "REF for arbitrary anonymous utility functions (batch only)",
    lambda params, seed, horizon: GeneralRefScheduler(horizon=horizon),
    paper_section="§4, Fig. 1",
    capabilities=PolicyCapabilities(
        step=False, dynamic_membership=False, max_orgs=REF_MAX_ORGS
    ),
)
#: Budget knobs shared by the sampled policies (``rand`` and the
#: approximation ladder): explicit ``n_samples`` beats the Theorem 5.6
#: ``epsilon``/``delta`` Hoeffding choice beats fixed ``n_orderings``.
_BUDGET_PARAMS = (
    ParamSpec("n_orderings", int, 15, "sampled joining orders per estimate"),
    ParamSpec(
        "epsilon", float, 0.0,
        "Theorem 5.6 accuracy target (0: use n_orderings)",
    ),
    ParamSpec(
        "delta", float, 0.05, "failure probability for the epsilon budget"
    ),
    ParamSpec(
        "n_samples", int, 0, "explicit budget override (beats epsilon)"
    ),
)


def _build_stratified(params: dict, seed: int, horizon: "int | None"):
    from .approx import StratifiedScheduler

    return StratifiedScheduler(
        n_orderings=int(params["n_orderings"]),
        seed=seed,
        horizon=horizon,
        epsilon=float(params["epsilon"]),
        delta=float(params["delta"]),
        n_samples=int(params["n_samples"]),
        antithetic=bool(params["antithetic"]),
    )


def _build_adaptive(params: dict, seed: int, horizon: "int | None"):
    from .approx import AdaptiveScheduler

    return AdaptiveScheduler(
        seed=seed,
        horizon=horizon,
        epsilon=float(params["epsilon"]),
        delta=float(params["delta"]),
        n_min=int(params["n_min"]),
        n_max=int(params["n_max"]),
        sampler=str(params["sampler"]),
    )


def _build_hier(params: dict, seed: int, horizon: "int | None"):
    from .approx import HierScheduler

    return HierScheduler(
        block_size=int(params["block_size"]),
        n_orderings=int(params["n_orderings"]),
        seed=seed,
        horizon=horizon,
        max_exact_blocks=int(params["max_exact_blocks"]),
    )


_register_builtin(
    "rand",
    "randomized sampled-coalition fair scheduler (FPRAS for unit jobs)",
    lambda params, seed, horizon: RandScheduler(
        n_orderings=int(params["n_orderings"]),
        seed=seed,
        horizon=horizon,
        epsilon=float(params["epsilon"]),
        delta=float(params["delta"]),
        n_samples=int(params["n_samples"]),
    ),
    paper_section="§5.2, Fig. 6",
    capabilities=PolicyCapabilities(needs_seed=True, exact=False),
    params=_BUDGET_PARAMS,
    adapter="_SampledPolicy",
)
_register_builtin(
    "ref_stratified",
    "RAND on variance-reduced (stratified/antithetic) joining orders",
    _build_stratified,
    paper_section="§5.2 + DESIGN.md §12",
    capabilities=PolicyCapabilities(needs_seed=True, exact=False),
    params=_BUDGET_PARAMS
    + (
        ParamSpec(
            "antithetic", bool, True,
            "pair every stratified rotation with its reverse",
        ),
    ),
    adapter="_SampledPolicy",
)
_register_builtin(
    "ref_adaptive",
    "certified adaptive-N sampled Shapley (per-decision certificates)",
    _build_adaptive,
    paper_section="§5.2, Thm. 5.6 + DESIGN.md §12",
    capabilities=PolicyCapabilities(needs_seed=True, exact=False),
    params=(
        ParamSpec(
            "epsilon", float, 0.1,
            "accuracy target for the auto (n_max=0) budget",
        ),
        ParamSpec(
            "delta", float, 0.05,
            "per-decision certificate failure probability",
        ),
        ParamSpec("n_min", int, 8, "first escalation wave size"),
        ParamSpec(
            "n_max", int, 1024,
            "escalation budget cap (0: Theorem 5.6 worst case)",
        ),
        ParamSpec(
            "sampler", str, "antithetic",
            "ordering sampler (see ORDERING_SAMPLERS)",
        ),
    ),
    adapter="_SampledPolicy",
)
_register_builtin(
    "ref_hier",
    "hierarchical block-decomposed Shapley (exact within <=10-org blocks)",
    _build_hier,
    paper_section="§3 + DESIGN.md §12",
    capabilities=PolicyCapabilities(
        step=False, dynamic_membership=False, needs_seed=True, exact=False
    ),
    params=(
        ParamSpec(
            "block_size", int, 10, "organizations per exact block (<= 10)"
        ),
        ParamSpec(
            "n_orderings", int, 15,
            "sampled block-joining orders past max_exact_blocks",
        ),
        ParamSpec(
            "max_exact_blocks", int, 10,
            "block count up to which the across game is exact",
        ),
    ),
)
_register_builtin(
    "directcontr",
    "direct-contribution heuristic (the paper's practical mechanism)",
    lambda params, seed, horizon: DirectContributionScheduler(
        seed=seed, mode=str(params["mode"]), horizon=horizon
    ),
    paper_section="§6, Fig. 9",
    capabilities=PolicyCapabilities(needs_seed=True),
    params=(
        ParamSpec(
            "mode", str, "exact",
            "'exact' (intent of Fig. 9) or 'faithful' (literal pseudo-code)",
        ),
    ),
)
_register_builtin(
    "fifo",
    "greedy FIFO control (no fairness objective)",
    lambda params, seed, horizon: GreedyFifoScheduler(horizon=horizon),
    paper_section="§6, Thm. 6.2",
)
_register_builtin(
    "roundrobin",
    "cycle through organizations (distributive control)",
    lambda params, seed, horizon: RoundRobinScheduler(horizon=horizon),
    paper_section="§7.1",
)
_register_builtin(
    "fairshare",
    "machine-endowment proportional share (distributive baseline)",
    lambda params, seed, horizon: FairShareScheduler(horizon=horizon),
    paper_section="§7.1",
)
_register_builtin(
    "utfairshare",
    "utilization-weighted fair share (distributive baseline)",
    lambda params, seed, horizon: UtFairShareScheduler(horizon=horizon),
    paper_section="§7.1",
)
_register_builtin(
    "currfairshare",
    "current-usage fair share (distributive baseline)",
    lambda params, seed, horizon: CurrFairShareScheduler(horizon=horizon),
    paper_section="§7.1",
)
