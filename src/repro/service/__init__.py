"""Online serving subsystem: the long-lived incremental fair scheduler.

The batch layers of this repository answer "what schedule would be fair
for this frozen workload?"; this package answers the production question
the paper's online algorithm implies (and Pacholczyk & Rzadca 2018 make
explicit for federated clouds): *keep* a fair schedule as jobs stream in
and providers join, leave and resize.

* :mod:`repro.service.service` -- :class:`ClusterService`, the stateful
  daemon: ingest API, per-event fair-share stepping for every policy,
  dynamic membership;
* :mod:`repro.service.state` -- the event-sourced journal and live census;
* :mod:`repro.service.snapshot` -- versioned, content-hashed checkpoints
  with verified bit-identical restore;
* :mod:`repro.service.replay` -- :class:`ReplayDriver`, streaming any
  workload source through the service and asserting replay == batch;
* :mod:`repro.service.daemon` -- the pipe plumbing (line reader, graceful
  shutdown) of ``repro serve`` and the gateway; ``repro serve`` itself is
  a gateway worker's row loop over one shard
  (:func:`repro.gateway.worker.serve_rows`).
"""

from .replay import ReplayDriver, ReplayReport, replay_scenario
from .service import ClusterService, OnlinePolicy
from .snapshot import load_snapshot, save_snapshot

__all__ = [
    "ClusterService",
    "OnlinePolicy",
    "ReplayDriver",
    "ReplayReport",
    "replay_scenario",
    "load_snapshot",
    "save_snapshot",
]
