"""DIRECTCONTR: the direct-contribution heuristic (paper Fig. 9).

The practical polynomial-time algorithm: instead of Shapley sums over
subcoalitions, an organization's contribution is estimated *directly* as the
utility produced on its own machines -- the CPU-time units its processors
execute (for anyone's jobs), weighted exactly like ψ_sp weights job units.
The scheduler then mirrors REF's rule: the waiting organization with the
largest (contribution − utility) difference starts its FIFO-head job, on a
machine chosen in random order (so ownership attribution is unbiased).

Two accounting modes:

* ``mode="exact"`` (default) -- contributions and utilities are the exact
  ψ_sp aggregates maintained by the engine (by machine owner / job owner
  respectively).  This is the evident intent of Fig. 9.
* ``mode="faithful"`` -- a literal transcription of the Fig. 9 pseudo-code,
  including its two quirks (documented in DESIGN.md §5): the swapped
  ``phi[own(J)] / psi[own(m)]`` updates in the running-job loop, and the
  double-count of a started job's first unit (counted at start *and* in the
  next event's elapsed term).  One necessary repair is applied: jobs that
  *completed* between two events are accounted like running ones (the
  pseudo-code's ``not FreeMachine`` guard would silently drop their last
  chunk of work, which cannot be intended -- completed work would otherwise
  never enter the counters).

Tables 1-2 of the paper (and our benchmarks) show DIRECTCONTR beats the fair
share family on Shapley-fairness while staying equally cheap.

Like every policy scheduler, DIRECTCONTR runs on a
:class:`~repro.core.fleet.CoalitionFleet` of one coalition (see
:class:`~repro.algorithms.base.PolicyScheduler`); its random explicit
machine choice is O(1) thanks to the engine's lazy-deletion free set
(DESIGN.md §2.2).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.engine import ClusterEngine
from ..core.workload import Workload
from .base import PolicyScheduler, SchedulerResult

__all__ = ["DirectContributionScheduler"]

#: the Fig. 9 counters, one int per organization id
_COUNTERS = ("fin_ut", "fin_con", "phi", "psi")


class DirectContributionScheduler(PolicyScheduler):
    """Algorithm DIRECTCONTR (Fig. 9).

    Parameters
    ----------
    seed:
        Seed (or generator) for the random machine iteration order.
    mode:
        ``"exact"`` or ``"faithful"`` (see module docstring).
    horizon:
        Optional stop time.
    """

    name = "DirectContr"

    def __init__(
        self,
        seed: "int | np.random.Generator | None" = 0,
        mode: str = "exact",
        horizon: int | None = None,
    ):
        super().__init__(horizon)
        if mode not in ("exact", "faithful"):
            raise ValueError("mode must be 'exact' or 'faithful'")
        self.mode = mode
        self._seed = seed
        self._rng: np.random.Generator = np.random.default_rng(0)
        # faithful-mode counters (paper Fig. 9 notation)
        self._fin_ut: list[int] = []
        self._fin_con: list[int] = []
        self._phi: list[int] = []
        self._psi: list[int] = []
        self._tprev: int = 0
        self._completed_seen: int = 0

    def on_run_start(self, engine: ClusterEngine) -> None:
        self._rng = (
            self._seed
            if isinstance(self._seed, np.random.Generator)
            else np.random.default_rng(self._seed)
        )
        k = engine.n_orgs
        self._fin_ut = [0] * k
        self._fin_con = [0] * k
        self._phi = [0] * k
        self._psi = [0] * k
        self._tprev = 0
        self._completed_seen = 0

    def on_cluster_change(self, engine: ClusterEngine) -> None:
        # online org admission can grow the org-id range; the faithful-mode
        # counters must cover it (newcomers start at zero, history kept)
        grow = engine.n_orgs - len(self._phi)
        if grow > 0:
            for counters in (self._fin_ut, self._fin_con, self._phi, self._psi):
                counters.extend([0] * grow)

    def state(self) -> "dict[str, list[int]]":
        """The PCG64 stream position as ints, and the Fig. 9 counters."""
        bits = self._rng.bit_generator.state
        return {
            "rng": [
                bits["state"]["state"],
                bits["state"]["inc"],
                bits["has_uint32"],
                bits["uinteger"],
            ],
            "clock": [self._tprev, self._completed_seen],
            **{name: list(getattr(self, "_" + name)) for name in _COUNTERS},
        }

    def load_state(self, state: "dict[str, list[int]]") -> None:
        k = len(state.get("phi", ()))
        shape = {"rng": 4, "clock": 2, **dict.fromkeys(_COUNTERS, k)}
        if {key: len(row) for key, row in state.items()} != shape:
            raise ValueError(
                f"image scheduler rows {sorted(state)}: {self.name} keeps "
                f"rng[4], clock[2] and {', '.join(_COUNTERS)} of one length"
            )
        s, inc, has_uint32, uinteger = state["rng"]
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": s, "inc": inc},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        self._tprev, self._completed_seen = state["clock"]
        for name in _COUNTERS:
            setattr(self, "_" + name, list(state[name]))

    # the select() hook is unused: scheduling is machine-driven
    def select(self, engine: ClusterEngine) -> int:
        raise RuntimeError("DirectContr schedules per machine")

    def schedule_event(self, engine: ClusterEngine) -> None:
        t = engine.t
        if self.mode == "faithful":
            self._accumulate_faithful(engine, t)
            keys = [
                self._phi[u] - self._psi[u] for u in range(engine.n_orgs)
            ]
        else:
            phi = engine.psis_by_machine_owner(t)
            psi = engine.psis(t)
            keys = [phi[u] - psi[u] for u in range(engine.n_orgs)]

        machines = engine.free_machines()
        self._rng.shuffle(machines)
        for machine in machines:
            if not engine.has_waiting():
                break
            u = max(engine.waiting_orgs(), key=lambda w: (keys[w], -w))
            engine.start_next(u, machine=machine)
            if self.mode == "faithful":
                # Fig. 9: startJob is followed by finUt[org] += 1 and
                # finCon[own(m)] += 1 (the first unit counted at start)
                self._fin_ut[u] += 1
                self._fin_con[engine.machine_owner[machine]] += 1

    def _accumulate_faithful(self, engine: ClusterEngine, t: int) -> None:
        """Literal Fig. 9 ``Schedule(tprev, t)`` accounting."""
        dt = t - self._tprev
        if dt > 0:
            for u in range(engine.n_orgs):
                self._phi[u] += dt * self._fin_con[u]
                self._psi[u] += dt * self._fin_ut[u]
            tri = dt * (dt + 1) // 2
            # running jobs: the pseudo-code's (swapped) updates
            for machine, owner in engine.machine_owner.items():
                run = engine.running_on(machine)
                if run is None:
                    continue
                self._fin_ut[run.job.org] += dt
                self._fin_con[owner] += dt
                self._phi[run.job.org] += tri  # paper writes phi[own(J)]
                self._psi[owner] += tri  # paper writes psi[own(m)]
            # repair: jobs completed in (tprev, t] would otherwise lose
            # their final chunk entirely
            completed = engine.completed_log
            for entry in completed[self._completed_seen:]:
                finish = entry.end
                span = finish - max(self._tprev, entry.start)
                if span <= 0:
                    continue
                part = (dt * (dt + 1) - (t - finish) * (t - finish + 1)) // 2
                owner = engine.machine_owner[entry.machine]
                self._fin_ut[entry.job.org] += span
                self._fin_con[owner] += span
                self._phi[entry.job.org] += part
                self._psi[owner] += part
            self._completed_seen = len(completed)
        self._tprev = t

    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        result = super().run(workload, members)
        return SchedulerResult(
            algorithm=self.name,
            workload=result.workload,
            members=result.members,
            schedule=result.schedule,
            horizon=result.horizon,
            meta={"mode": self.mode},
        )
