"""Declarative experiment scenarios: :class:`ScenarioSpec`.

A *scenario* is everything needed to reproduce one family of Section-7.2
experiments: the trace source, the window sampler, the organization /
user / machine split, the algorithm portfolio, the metrics, the repeat
count and the scale.  A :class:`ScenarioSpec` is a frozen value object, so

* it can be **content-hashed** (:meth:`ScenarioSpec.content_hash`) — the
  hash keys the pipeline's on-disk instance cache, so a re-run of an
  unchanged spec resumes instead of recomputing and any edit to any knob
  invalidates the cache automatically;
* it **enumerates its instances** (:meth:`ScenarioSpec.instances`)
  up front: every (trace, sweep-variant, repeat) cell becomes one
  :class:`InstanceSpec` with a deterministic identity key.  Instances are
  independent by construction (per-instance seeds are derived from stable
  string keys with ``zlib.crc32``, never from shared mutable RNG state),
  which is what lets :mod:`repro.experiments.pipeline` fan them out over
  worker processes while staying bit-identical with a serial run;
* it is trivially **picklable** (plain data, no callables), so the same
  object parameterizes the worker processes.

How a spec turns into concrete workloads is delegated to its *family* —
a named instance builder registered in :mod:`repro.experiments.registry`
(``synthetic``, ``swf``, ``federated``, ``churn``, ...).  Likewise the
algorithm row set is a named *portfolio*.  Names rather than callables keep
the spec hashable and the registry pluggable.

See DESIGN.md §3 for the seed-derivation and cache-key schemes.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from ..policies import PolicySpec

__all__ = ["ScenarioSpec", "InstanceSpec", "derive_rng", "seed_from_key"]


def seed_from_key(key: str) -> int:
    """Deterministic 32-bit seed for a stable string key.

    ``zlib.crc32`` (unlike ``hash()``) is identical across processes and
    Python builds, so an instance computes the same seed no matter which
    worker — or which run — executes it.  This is the scheme the original
    harness used; keeping it makes the pipeline bit-compatible with the
    pre-pipeline serial loops.
    """
    return zlib.crc32(key.encode())


def derive_rng(key: str) -> np.random.Generator:
    """A fresh, process-independent generator for a stable string key."""
    return np.random.default_rng(seed_from_key(key))


@dataclass(frozen=True)
class InstanceSpec:
    """One cell of a scenario: (trace, sweep variant, repeat).

    ``key`` is the instance's identity inside its spec's cache file (the
    file itself is keyed by the spec content hash, so ``key`` only needs to
    be unique within the scenario).  ``variant`` carries sweep-axis
    overrides (e.g. ``(("n_orgs", 4), ("zipf_exponent", 2.0))``) that the
    family builder applies on top of the spec's scalar fields.
    """

    index: int
    trace: str
    repeat: int
    variant: tuple[tuple[str, "int | float | str"], ...] = ()
    key: str = ""

    def param(self, name: str, default):
        for k, v in self.variant:
            if k == name:
                return v
        return default


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment family (frozen).

    Parameters
    ----------
    family:
        Name of the instance builder (``repro.experiments.registry``):
        how (trace, variant, repeat, seed) becomes a concrete
        :class:`~repro.core.workload.Workload`.
    traces:
        Trace labels the family understands (archive stand-in names for
        ``synthetic``/``churn``, a display label for ``swf``/``federated``).
    n_orgs, machine_dist, zipf_exponent:
        The organization split: user identifiers are dealt uniformly among
        ``n_orgs`` organizations; machines follow Zipf (``zipf_exponent``)
        or uniform counts.
    duration, pool_factor:
        Window sampler: a sub-trace window of length ``duration`` is drawn
        from a long trace of length ``pool_factor * duration``.
    n_repeats:
        Windows per (trace, variant) cell.
    scale:
        Trace shrink factor; ``None`` means the per-trace tuned default
        (:data:`repro.experiments.harness.DEFAULT_SCALES`).
    portfolio:
        Named algorithm row set (see ``registry.PORTFOLIOS``).
    policies:
        Explicit algorithm rows as :class:`~repro.policies.PolicySpec`
        values (or names / ``name:k=v`` strings, normalized at
        construction).  When non-empty this *overrides* ``portfolio``:
        each spec is built through the policy registry with the
        instance's derived seed.  Empty (the default) keeps the named
        portfolio and the spec's pre-registry content hash, so existing
        caches stay valid.
    metrics:
        Named scoring functions (see ``repro.sim.runner.METRICS``); every
        algorithm is scored against the ``reference`` policy's schedule.
    reference:
        The policy every metric scores against (default ``"ref"``, the
        exact exponential benchmark).  High-``k`` scenarios past REF's
        ``max_orgs=10`` ceiling name an approximate stand-in instead
        (e.g. ``"ref_hier:block_size=8"`` for the ``scale`` family);
        parsed as a :class:`~repro.policies.PolicySpec` CLI string.
    seed:
        Master seed; per-instance seeds are derived, never shared.
    org_counts, zipf_exponents:
        Optional sweep axes (the ``churn`` family): when non-empty they
        override ``n_orgs`` / ``zipf_exponent`` per variant and the
        scenario becomes their cross product.
    swf_path:
        For the ``swf`` family: path of the Standard Workload Format file.
    params:
        Family-specific extra knobs as a sorted tuple of (name, value)
        pairs (e.g. the federated family's burst amplitude).
    """

    family: str
    traces: tuple[str, ...] = ("LPC-EGEE",)
    n_orgs: int = 5
    duration: int = 5_000
    n_repeats: int = 5
    scale: "float | None" = None
    machine_dist: str = "zipf"
    zipf_exponent: float = 1.0
    seed: int = 0
    pool_factor: int = 4
    portfolio: str = "paper"
    policies: "tuple[PolicySpec, ...]" = ()
    metrics: tuple[str, ...] = ("avg_delay",)
    org_counts: tuple[int, ...] = ()
    zipf_exponents: tuple[float, ...] = ()
    swf_path: "str | None" = None
    reference: str = "ref"
    params: tuple[tuple[str, "int | float | str"], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        if self.machine_dist not in ("zipf", "uniform"):
            raise ValueError("machine_dist must be 'zipf' or 'uniform'")
        if self.n_orgs < 1 or self.duration < 1 or self.n_repeats < 1:
            raise ValueError("n_orgs, duration, n_repeats must be >= 1")
        if self.pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        if not self.traces:
            raise ValueError("need at least one trace")
        if not self.metrics:
            raise ValueError("need at least one metric")
        if any(k < 1 for k in self.org_counts):
            raise ValueError("org_counts entries must be >= 1")
        # normalize for stable hashing regardless of caller container types
        object.__setattr__(
            self,
            "policies",
            tuple(
                p if isinstance(p, PolicySpec) else PolicySpec.from_json(p)
                for p in self.policies
            ),
        )
        object.__setattr__(self, "traces", tuple(self.traces))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "org_counts", tuple(self.org_counts))
        object.__setattr__(
            self, "zipf_exponents", tuple(self.zipf_exponents)
        )
        object.__setattr__(
            self, "params", tuple(sorted(tuple(p) for p in self.params))
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable hex digest of every knob (keys the instance cache).

        Canonical JSON of the dataclass fields, SHA-256, first 16 hex
        chars.  Any change to any field — including the portfolio or
        metric *names* — yields a different hash and therefore a fresh
        cache file.

        Migration note: fields added after PR 2 (currently ``policies``
        and ``reference``) are dropped from the payload while at their
        "absent" default, so every pre-registry spec keeps its original
        hash and on-disk caches survive the API redesign; a spec that
        *uses* a new field hashes fresh.
        """
        fields = asdict(self)
        if not self.policies:
            fields.pop("policies")
        if self.reference == "ref":
            fields.pop("reference")
        payload = json.dumps(
            fields, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def param(self, name: str, default):
        """Family-specific extra knob lookup."""
        for k, v in self.params:
            if k == name:
                return v
        return default

    def policy_rows(self) -> "tuple[PolicySpec, ...] | None":
        """The spec's portfolio as concrete :class:`PolicySpec` rows, or
        ``None`` when it resolves to a bare factory with no stable policy
        identity.  This is what keys the cross-spec result store: two
        specs that differ only in portfolio *naming* share rows whenever
        the underlying ``(workload, policy, seed)`` triples coincide.
        (New hash-relevant fields must follow the migration rule in
        :meth:`content_hash`; this method adds none.)
        """
        if self.policies:
            return self.policies
        from .registry import PORTFOLIO_SPECS

        return PORTFOLIO_SPECS.get(self.portfolio)

    # ------------------------------------------------------------------
    # instance enumeration
    # ------------------------------------------------------------------
    def variants(self) -> tuple[tuple[tuple[str, "int | float | str"], ...], ...]:
        """The sweep-axis cross product (a single empty variant when no
        axis is set)."""
        if not self.org_counts and not self.zipf_exponents:
            return ((),)
        ks = self.org_counts or (self.n_orgs,)
        zs = self.zipf_exponents or (self.zipf_exponent,)
        out = []
        for k in ks:
            for z in zs:
                v: list[tuple[str, "int | float | str"]] = []
                if self.org_counts:
                    v.append(("n_orgs", int(k)))
                if self.zipf_exponents:
                    v.append(("zipf_exponent", float(z)))
                out.append(tuple(v))
        return tuple(out)

    def instances(self) -> tuple[InstanceSpec, ...]:
        """Every (trace, variant, repeat) cell, in deterministic order.

        The order is the serial execution order; the parallel pipeline
        aggregates results in this same order, which is why parallel and
        serial runs agree bit-for-bit.
        """
        out: list[InstanceSpec] = []
        index = 0
        for trace in self.traces:
            for variant in self.variants():
                suffix = "".join(
                    f"/{name}={value:g}" if isinstance(value, float)
                    else f"/{name}={value}"
                    for name, value in variant
                )
                for rep in range(self.n_repeats):
                    out.append(
                        InstanceSpec(
                            index=index,
                            trace=trace,
                            repeat=rep,
                            variant=variant,
                            key=f"{trace}{suffix}/{rep}",
                        )
                    )
                    index += 1
        return tuple(out)
