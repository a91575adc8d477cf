"""Membership and pool changes on a kernel-backed service (DESIGN.md §8.5).

A join, a leave or a machine change takes a kernel fleet to real engines
once, under the reason the operation names (``join``, ``remove_mask``,
``pool_change``), and the service then runs exactly like one that never
used the kernel: equal schedule digests after every phase of a churn
stream.  A view of a kernel row read after its fleet materialized raises
instead of answering from a dead kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernel as kernel_mod
from repro.core.kernel import KernelEngineView
from repro.service import ClusterService

#: genesis machine counts: REF at k=6 keeps 63 coalition rows; RAND at
#: k=8 samples enough prefix coalitions to put its oracle on the kernel
GENESIS = {
    "ref": [2, 1, 1, 0, 1, 1],
    "rand": [1, 1, 0, 2, 1, 1, 0, 1],
}
OPS = ("join_org", "leave_org", "add_machines", "remove_machines")
#: the reason a kernel fleet records when ``op`` is the first to reach it
REASON = {
    "join_org": "join",
    "leave_org": "remove_mask",
    "add_machines": "pool_change",
    "remove_machines": "pool_change",
}


def apply(svc: ClusterService, op: str, rng) -> None:
    members = svc.census.members
    if op == "join_org":
        svc.join_org(machines=1)
    elif op == "leave_org":
        svc.leave_org(members[int(rng.integers(1, len(members)))])
    elif op == "add_machines":
        svc.add_machines(members[int(rng.integers(len(members)))], 1)
    else:
        owners = [u for u in members if svc.census.machines[u]]
        svc.remove_machines(owners[int(rng.integers(len(owners)))], 1)


def fleet_record(svc: ClusterService) -> list:
    """``(materializations, reason)`` of each fleet the policy keeps."""
    return [
        (fl.n_materializations, fl.materialize_reason)
        for fl in svc._policy._fleets()
    ]


def churn(svc: ClusterService, seed: int, ops) -> tuple[list, list]:
    """Submits and advances with one membership op after each phase;
    returns the digest trail and the fleets' record after each op."""
    rng = np.random.default_rng(seed)
    digests, records = [], []
    last: dict[int, int] = {}  # releases stay FIFO per organization
    for phase in range(len(ops) + 1):
        for _ in range(6):
            members = svc.census.members
            org = members[int(rng.integers(len(members)))]
            release = max(svc.clock, last.get(org, 0)) + int(rng.integers(3))
            last[org] = release
            svc.submit(org, int(rng.integers(1, 5)), release=release)
        svc.advance(svc.clock + 3)
        if phase < len(ops):
            apply(svc, ops[phase], rng)
            records.append(fleet_record(svc))
        digests.append((svc._digest(), svc.n_events))
    svc.drain()
    digests.append((svc._digest(), svc.n_events))
    return digests, records


def expected_first(policy: str, op: str) -> list:
    """The fleets' record right after ``op`` hit the kernel run first."""
    if policy == "ref":
        return [(1, REASON[op])]
    if op in ("add_machines", "remove_machines"):
        # the carrier (one mask) was never on the kernel; the oracle was
        return [(0, None), (1, "pool_change")]
    # a RAND join or leave redraws: the kernel oracle is replaced by an
    # epoch oracle of adopted engines, and nothing materialized
    return [(0, None), (0, None)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("first", OPS)
@pytest.mark.parametrize("policy", sorted(GENESIS))
def test_kernel_churn_equals_engines(policy, first, seed, monkeypatch):
    ops = (first,) + tuple(op for op in OPS if op != first)
    on = ClusterService(GENESIS[policy], policy, seed=seed)
    assert on.status()["policy_backend"]["backend"] == "kernel"
    kernel_digests, records = churn(on, seed, ops)
    assert records[0] == expected_first(policy, first)
    if policy == "ref":  # left once; later ops find it per-engine already
        assert records[-1] == records[0]

    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
    off = ClusterService(GENESIS[policy], policy, seed=seed)
    assert off.status()["policy_backend"]["backend"] == "engines"
    engine_digests, off_records = churn(off, seed, ops)
    assert all(n == 0 for rec in off_records for n, _ in rec)
    assert kernel_digests == engine_digests
    assert on.schedule() == off.schedule()


def test_forced_kernel_carrier_survives_pool_change(monkeypatch):
    """With every fleet forced onto the kernel, RAND's one-mask carrier
    materializes at a pool change; the run asks the carrier for its grand
    engine afresh, so it carries on exactly like the engines run."""
    ops = ("add_machines", "remove_machines")
    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)
    on = ClusterService([1, 2, 1], "rand", seed=3)
    kernel_digests, records = churn(on, 3, ops)
    assert records[0] == [(1, "pool_change"), (1, "pool_change")]
    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
    off = ClusterService([1, 2, 1], "rand", seed=3)
    assert churn(off, 3, ops)[0] == kernel_digests


def test_view_read_after_materialize_raises():
    svc = ClusterService(GENESIS["ref"], "ref", seed=0)
    for org in range(6):
        svc.submit(org, 3, release=0)
    svc.advance(1)
    view = svc._policy.grand_engine()
    assert isinstance(view, KernelEngineView)
    free, digest = view.free_count, svc._digest()
    svc.add_machines(3, 1)
    fleet = svc._policy.fleet
    assert (fleet.n_materializations, fleet.materialize_reason) == (
        1, "pool_change"
    )
    for read in (lambda: view.free_count, view.schedule, view.psis):
        with pytest.raises(RuntimeError, match="stale view"):
            read()
    assert svc._digest() == digest  # the fleet's own engine answers
    assert svc._policy.grand_engine().free_count >= free
