"""Gateway frame-coalescing guard (ISSUE 13; DESIGN.md §11.3, §13.5).

The front door must not pay a syscall per command.  It did: every
pipelined ``shard_cmd`` flushed its worker's pipe and polled it for
answers, and every WAL record reopened its shard's file -- for the
20 416 commands of one ``gateway_fifo_k64`` pass, 20 424 pipe writes,
36 728 ``select``s and 20 420 ``open``s.  Commands now join a frame that
leaves when the caller is about to block (about 35 per write on this
stream) and each shard's WAL keeps one handle open.

The guard counts, it does not time: the counters in
``Gateway.status()["transport"]`` are the program's own and the stream
is fixed, so the ratios do not depend on the machine running them
(the tick cadence moves frames by a few commands, not by an order).
"""

from __future__ import annotations

from itertools import groupby

import pytest

from repro.gateway import Gateway, GatewayConfig, LoadSpec, generate_stream

N_TENANTS, N_SHARDS, N_WORKERS = 64, 8, 2
SUBMITS_PER_TICK, N_TICKS = 400, 10
#: commands per pipe write, fleet-wide (one per write before coalescing)
MIN_COMMANDS_PER_WRITE = 8


def test_commands_share_frames_and_wal_handles_stay_open(benchmark, tmp_path):
    config = GatewayConfig.uniform(
        N_TENANTS, n_workers=N_WORKERS, n_shards=N_SHARDS, policy="fifo"
    )
    stream = generate_stream(
        config, LoadSpec(n_events=SUBMITS_PER_TICK * N_TICKS,
                         n_releases=N_TICKS)
    )
    with Gateway(config, snapshot_dir=tmp_path) as gw:
        # closed loop: a tick's submits, then wait for every shard
        for release, group in groupby(stream, key=lambda e: e[0]):
            for _, tenant, size in group:
                assert gw.submit(tenant, size, release)["ok"]
            gw.advance(release, wait=True)
        gw.drain()
        transport = gw.status()["transport"]
        wal_opens = sum(w.opens for w in gw.pool.dwal.values())
    writes = sum(w["tx_writes"] for w in transport["workers"].values())
    commands = sum(w["tx_commands"] for w in transport["workers"].values())
    benchmark.extra_info.update(
        {"tx_writes": writes, "tx_commands": commands,
         "commands_per_write": commands / writes,
         "wal_appends": transport["wal_appends"], "wal_opens": wal_opens}
    )
    benchmark(lambda: None)  # counts recorded above; keep the fixture happy
    # every submit, advance and drain was logged and crossed a pipe
    assert transport["wal_appends"] == len(stream) + N_SHARDS * (N_TICKS + 1)
    assert commands >= transport["wal_appends"]
    assert commands >= MIN_COMMANDS_PER_WRITE * writes, (
        f"{commands} commands in {writes} pipe writes "
        f"({commands / writes:.1f} per write, floor {MIN_COMMANDS_PER_WRITE})"
    )
    assert wal_opens <= N_SHARDS, (
        f"{wal_opens} WAL file opens for {N_SHARDS} shards"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
