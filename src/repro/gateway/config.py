"""GatewayConfig: the content-hashed shape of a multi-tenant fleet.

A gateway deployment is fully described by one frozen value: the tenant
roster (with per-tenant machine endowments and admission limits), the
worker/shard topology, and the per-shard scheduling policy.  Like
:class:`~repro.experiments.spec.ScenarioSpec` and the service snapshot
format, the config is content-hashed (canonical JSON, SHA-256, 16 hex
chars) so two gateways are interchangeable iff their hashes match -- the
hash is stamped into benchmark records and recovery manifests.

Placement is derived, never stored: ``tenant -> shard`` by stable hash
(:mod:`repro.gateway.routing`), ``shard -> worker`` round-robin, and
``tenant -> org id within its shard`` by declaration order.  Every shard
is an independent :class:`~repro.service.ClusterService` whose genesis
organizations are exactly the tenants routed to it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from .routing import shard_of, worker_of

__all__ = ["TenantSpec", "GatewayConfig"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant organization: identity, endowment, admission limits.

    ``rate``/``burst`` parameterize the ingest token bucket (jobs per
    time unit of the gateway clock / bucket capacity); ``credits`` is the
    tenant's work budget in size units.  ``None`` disables that limit.
    """

    name: str
    machines: int = 1
    rate: "float | None" = None
    burst: "float | None" = None
    credits: "int | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.machines < 0:
            raise ValueError(f"tenant {self.name}: machines must be >= 0")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"tenant {self.name}: rate must be > 0")
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"tenant {self.name}: burst must be >= 1")
        if self.credits is not None and self.credits < 0:
            raise ValueError(f"tenant {self.name}: credits must be >= 0")


@dataclass(frozen=True)
class GatewayConfig:
    """The full, hashable description of one gateway fleet.

    Parameters
    ----------
    tenants:
        The tenant roster.  Declaration order is semantic: it fixes each
        tenant's organization id within its shard.
    n_workers / n_shards:
        Topology: shards are spread round-robin over workers
        (process-per-core; shards with no routed tenants are not
        instantiated).
    policy / seed / horizon:
        Per-shard :class:`~repro.service.ClusterService` knobs.  The
        policy string accepts the registry's parameterized form (e.g.
        ``"rand:n_orderings=30"``); each shard runs seed
        ``seed + shard_id`` so sampled policies draw independent streams.
    """

    tenants: "tuple[TenantSpec, ...]"
    n_workers: int = 2
    n_shards: int = 4
    policy: str = "fifo"
    seed: int = 0
    horizon: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate tenant names: {dupes}")

    @classmethod
    def uniform(
        cls,
        n_tenants: int,
        *,
        machines: int = 1,
        rate: "float | None" = None,
        burst: "float | None" = None,
        credits: "int | None" = None,
        **kwargs,
    ) -> "GatewayConfig":
        """A roster of ``n_tenants`` identical tenants named ``t0..``."""
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        return cls(
            tenants=tuple(
                TenantSpec(
                    f"t{i}",
                    machines=machines,
                    rate=rate,
                    burst=burst,
                    credits=credits,
                )
                for i in range(n_tenants)
            ),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # derived placement (pure functions of the config)
    # ------------------------------------------------------------------
    @cached_property
    def shard_map(self) -> "dict[int, tuple[TenantSpec, ...]]":
        """Populated shards -> their tenants in declaration order."""
        shards: "dict[int, list[TenantSpec]]" = {}
        for t in self.tenants:
            shards.setdefault(shard_of(t.name, self.n_shards), []).append(t)
        return {s: tuple(ts) for s, ts in sorted(shards.items())}

    @cached_property
    def routes(self) -> "dict[str, tuple[int, int]]":
        """Tenant name -> ``(shard, org id within the shard)``."""
        out: "dict[str, tuple[int, int]]" = {}
        for shard, tenants in self.shard_map.items():
            for org, t in enumerate(tenants):
                out[t.name] = (shard, org)
        return out

    def shard_ids(self) -> "tuple[int, ...]":
        """The populated shards, ascending."""
        return tuple(self.shard_map)

    def worker_shards(self, worker: int) -> "tuple[int, ...]":
        """The shards owned by one worker process."""
        return tuple(
            s for s in self.shard_map if worker_of(s, self.n_workers) == worker
        )

    def tenant_route(self, tenant: str) -> "tuple[int, int]":
        try:
            return self.routes[tenant]
        except KeyError:
            raise KeyError(f"unknown tenant {tenant!r}") from None

    def tenant_spec(self, tenant: str) -> TenantSpec:
        for t in self.tenants:
            if t.name == tenant:
                return t
        raise KeyError(f"unknown tenant {tenant!r}")

    def shard_machine_counts(self, shard: int) -> "tuple[int, ...]":
        """The shard service's genesis endowment (declaration order)."""
        return tuple(t.machines for t in self.shard_map[shard])

    def shard_seed(self, shard: int) -> int:
        return self.seed + shard

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "tenants": [
                {
                    "name": t.name,
                    "machines": t.machines,
                    "rate": t.rate,
                    "burst": t.burst,
                    "credits": t.credits,
                }
                for t in self.tenants
            ],
            "n_workers": self.n_workers,
            "n_shards": self.n_shards,
            "policy": self.policy,
            "seed": self.seed,
            "horizon": self.horizon,
        }

    def content_hash(self) -> str:
        """Canonical-JSON SHA-256 prefix: equal iff interchangeable."""
        text = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]
