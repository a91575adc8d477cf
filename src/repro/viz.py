"""Plain-text visualization: Gantt charts, fairness reports, sparklines.

Everything renders to strings (no plotting dependencies) so the CLI,
examples and EXPERIMENTS.md can embed the output directly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .algorithms.base import SchedulerResult
from .core.schedule import Schedule
from .sim.runner import Comparison

__all__ = ["gantt", "fairness_report", "sparkline", "utilities_bar"]

_SPARK = "▁▂▃▄▅▆▇█"


def gantt(
    schedule: "Schedule | Iterable",
    n_machines: int,
    t_end: int,
    *,
    idle_char: str = "·",
) -> str:
    """ASCII Gantt chart: one row per machine, one character per time slot,
    digits/letters identify the owning organization (1-based, then a-z)."""
    if t_end < 1 or n_machines < 1:
        raise ValueError("need t_end >= 1 and n_machines >= 1")
    rows = [[idle_char] * t_end for _ in range(n_machines)]
    alphabet = "123456789abcdefghijklmnopqrstuvwxyz"
    for e in schedule:
        label = alphabet[e.job.org % len(alphabet)]
        for slot in range(max(0, e.start), min(e.end, t_end)):
            rows[e.machine][slot] = label
    axis = "".join(
        str((t // 10) % 10) if t % 10 == 0 else " " for t in range(t_end)
    )
    lines = [f"      {axis}"]
    for m, row in enumerate(rows):
        lines.append(f"  M{m:<2} |{''.join(row)}|")
    return "\n".join(lines)


def utilities_bar(
    result: SchedulerResult, t: int, width: int = 40
) -> str:
    """Horizontal bars of per-organization utilities at ``t``."""
    utils = result.utilities(t)
    peak = max(utils) if utils and max(utils) > 0 else 1
    lines = []
    for org in result.workload.organizations:
        val = utils[org.id]
        bar = "#" * max(0, round(width * val / peak))
        lines.append(f"  {org.name:<10} {val:>10} |{bar}")
    return "\n".join(lines)


def fairness_report(comparison: Comparison) -> str:
    """Ranked fairness summary of a :func:`repro.sim.compare_algorithms`
    result (the paper's Delta-psi / p_tot per algorithm)."""
    lines = [
        f"fairness vs {comparison.reference.algorithm} at t={comparison.t_end}",
        f"  {'algorithm':<16}{'delta_psi':>12}{'avg delay':>12}{'seconds':>10}",
    ]
    for name in comparison.ranking():
        o = comparison.by_name(name)
        lines.append(
            f"  {o.algorithm:<16}{o.delta_psi:>12.0f}"
            f"{o.avg_delay:>12.3f}{o.wall_time_s:>10.2f}"
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line unicode sparkline (used for Figure-10-style series)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[0] * len(values)
    out = []
    for v in values:
        idx = int((v - lo) / (hi - lo) * (len(_SPARK) - 1))
        out.append(_SPARK[idx])
    return "".join(out)
