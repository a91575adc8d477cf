"""Paper-style ASCII rendering of experiment results."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline -> registry)
    from .pipeline import PipelineResult

__all__ = ["render_series", "format_cell", "render_pipeline"]


def format_cell(mean: float, std: float) -> str:
    """Render one (mean, std) cell the way the paper's tables read."""

    def fmt(x: float) -> str:
        if x == 0:
            return "0"
        if x < 0.1:
            return f"{x:.3f}"
        if x < 10:
            return f"{x:.2f}"
        return f"{x:.0f}"

    return f"{fmt(mean)} ±{fmt(std)}"


def _group_label(trace: str, variant) -> str:
    if not variant:
        return trace
    inner = ",".join(
        f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in variant
    )
    return f"{trace}[{inner}]"


def render_pipeline(result: "PipelineResult", title: "str | None" = None) -> str:
    """Render a :class:`~repro.experiments.pipeline.PipelineResult` as one
    Tables-1/2-style grid per metric: rows = algorithms, columns = (trace,
    sweep-variant) groups, cells = ``mean ±std`` over repeats."""
    spec = result.spec
    heading = title or (
        f"scenario family={spec.family} "
        f"(hash {spec.content_hash()}, {result.computed} computed / "
        f"{result.cached} cached, {result.wall_time_s:.1f}s)"
    )
    groups = result.groups()
    algorithms = result.algorithms()
    labels = [_group_label(trace, variant) for trace, variant in groups]
    width = max([len(a) for a in algorithms] + [12])
    cwidth = max(max((len(c) for c in labels), default=0) + 2, 16)
    lines = [heading]
    for metric in spec.metrics:
        lines.append(metric)
        lines.append(" " * width + "".join(c.rjust(cwidth) for c in labels))
        for alg in algorithms:
            cells = []
            for group in groups:
                per_alg = result.aggregates[group].get(metric, {})
                if alg in per_alg:
                    _, mean, std = per_alg[alg]
                    cells.append(format_cell(mean, std).rjust(cwidth))
                else:
                    cells.append("-".rjust(cwidth))
            lines.append(alg.ljust(width) + "".join(cells))
    return "\n".join(lines)


def render_series(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str,
    title: str,
) -> str:
    """Render a Figure-10-style family of curves as an aligned text table."""
    width = max([len(name) for name in series] + [len(x_label), 12])
    cwidth = 12
    lines = [title]
    lines.append(
        x_label.ljust(width) + "".join(f"{x:>{cwidth}g}" for x in xs)
    )
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")
        lines.append(
            name.ljust(width) + "".join(f"{y:>{cwidth}.3f}" for y in ys)
        )
    return "\n".join(lines)
