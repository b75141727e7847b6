"""Terminal-friendly chart rendering for the figure regenerators.

The paper's figures are bar charts and line plots; these helpers render
them as aligned ASCII so the CLI and the benchmark output are readable
without matplotlib (which this environment does not ship).
"""

from __future__ import annotations


def hbar(value: float, vmax: float, width: int = 40, fill: str = "#") -> str:
    """One horizontal bar scaled to ``vmax``."""
    if vmax <= 0:
        return ""
    n = int(round(min(value, vmax) / vmax * width))
    return fill * n


def bar_chart(series: dict[str, float], *, width: int = 40,
              title: str = "", fmt: str = "{:.2f}",
              baseline: float | None = None) -> str:
    """Render ``label -> value`` as a horizontal bar chart.

    ``baseline`` draws a reference tick (e.g. 1.0 for speedup charts).
    """
    if not series:
        return title
    vmax = max(max(series.values()), baseline or 0.0)
    label_w = max(len(str(k)) for k in series)
    lines = [title] if title else []
    # lint: ignore[DET002] -- bars render in the caller's series order
    for k, v in series.items():
        bar = hbar(v, vmax, width)
        if baseline is not None:
            tick = int(round(baseline / vmax * width))
            if tick >= len(bar):
                bar = bar + " " * (tick - len(bar)) + "|"
            else:
                bar = bar[:tick] + "|" + bar[tick + 1:]
        lines.append(f"{k:<{label_w}} {fmt.format(v):>7} {bar}")
    return "\n".join(lines)


def best_so_far_plot(records: list[dict], *, height: int = 12,
                     width: int = 64, title: str | None = None) -> str:
    """ArchGym-style search-progress curve from ``trajectory.jsonl``
    records (and nothing else): per-evaluation fitness plus the running
    best-so-far, lower is better.

    ``records`` is the parsed JSONL stream written by ``repro explore``
    (one ``explore-meta`` record, then ``evaluation`` records; see
    docs/design-space.md).  Fatal candidates carry ``fitness: null`` and
    are skipped.  Raises :class:`ValueError` when no plottable
    evaluation records are present.
    """
    meta = next((r for r in records if r.get("kind") == "explore-meta"), {})
    xs: list[int] = []
    fitness: list[float] = []
    for i, rec in enumerate(r for r in records
                            if r.get("kind") == "evaluation"):
        if rec.get("fitness") is None:
            continue
        xs.append(i + 1)
        fitness.append(float(rec["fitness"]))
    if not xs:
        raise ValueError("no evaluation records with a fitness value in "
                         "the trajectory; nothing to plot")
    best: list[float] = []
    for f in fitness:
        best.append(f if not best else min(best[-1], f))
    if title is None:
        title = (f"best-so-far {meta.get('fitness', 'fitness')} over "
                 f"{len(xs)} evaluations "
                 f"({meta.get('agent', '?')} agent, "
                 f"seed {meta.get('seed', '?')})")
    chart = line_plot(xs, {"best-so-far": best, "evaluation": fitness},
                      height=height, width=width, title=title)
    return (chart + f"\n{' ' * 10}final best "
            f"{best[-1]:g} (from {fitness[0]:g} at evaluation 1)")


def line_plot(xs, ys_by_series: dict[str, list], *, height: int = 12,
              width: int = 64, title: str = "") -> str:
    """Plot one or more series as ASCII scatter lines over shared axes."""
    # lint: ignore[DET002] -- min/max scan only; order cannot reach output
    pts = [v for ys in ys_by_series.values() for v in ys]
    if not pts:
        return title
    ymin, ymax = min(pts), max(pts)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = min(xs), max(xs)
    grid = [[" "] * width for _ in range(height)]
    marks = "*+ox@"
    for si, (name, ys) in enumerate(ys_by_series.items()):
        m = marks[si % len(marks)]
        for x, y in zip(xs, ys):
            col = int((x - xmin) / max(1e-12, xmax - xmin) * (width - 1))
            row = int((y - ymin) / (ymax - ymin) * (height - 1))
            grid[height - 1 - row][col] = m
    lines = [title] if title else []
    lines.append(f"{ymax:8.3f} +" + "-" * width)
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row))
    lines.append(f"{ymin:8.3f} +" + "-" * width)
    lines.append(" " * 10 + f"{xmin:<8g}" + " " * (width - 16) + f"{xmax:>8g}")
    legend = "   ".join(f"{marks[i % len(marks)]} {name}"
                        for i, name in enumerate(ys_by_series))
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
