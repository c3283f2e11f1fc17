"""Regeneration of the paper's figures as text.

* Figures 4/5 — communication-pattern heatmaps per benchmark (SM and HM).
* Figures 6-9 — execution time / invalidations / snoop transactions / L2
  misses, normalized to the OS scheduler, as grouped bar charts.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.experiments.runner import BenchmarkResult
from repro.util.render import bar_chart

#: Metric attribute on SimResult per figure number.
FIGURE_METRICS = {
    6: ("execution_seconds", "Execution time"),
    7: ("invalidations", "Invalidations"),
    8: ("snoop_transactions", "Snoop transactions"),
    9: ("l2_misses", "L2 cache misses"),
}


def communication_heatmaps(
    results: Mapping[str, BenchmarkResult], mechanism: str
) -> Dict[str, str]:
    """Figure 4 (mechanism="SM") / Figure 5 (mechanism="HM"): one ASCII
    heatmap per benchmark."""
    if mechanism not in ("SM", "HM", "oracle"):
        raise ValueError(f"mechanism must be SM, HM or oracle, got {mechanism!r}")
    return {
        name: r.detected[mechanism].heatmap(f"{name.upper()} ({mechanism})")
        for name, r in results.items()
    }


def fig4(results: Mapping[str, BenchmarkResult]) -> Dict[str, str]:
    """Figure 4: SM-detected communication patterns."""
    return communication_heatmaps(results, "SM")


def fig5(results: Mapping[str, BenchmarkResult]) -> Dict[str, str]:
    """Figure 5: HM-detected communication patterns."""
    return communication_heatmaps(results, "HM")


def normalized_metric(
    results: Mapping[str, BenchmarkResult], metric: str
) -> Dict[str, Dict[str, float]]:
    """{benchmark: {policy: mean(metric)/mean(OS metric)}} for figures 6-9."""
    out: Dict[str, Dict[str, float]] = {}
    for name, r in results.items():
        out[name] = {
            policy: r.normalized_mean(policy, metric)
            for policy in ("OS", "SM", "HM")
        }
    return out


def figure_data(results: Mapping[str, BenchmarkResult], number: int) -> Dict[str, Dict[str, float]]:
    """Normalized data for figure ``number`` in {6, 7, 8, 9}."""
    if number not in FIGURE_METRICS:
        raise ValueError(f"no such figure: {number} (have {sorted(FIGURE_METRICS)})")
    metric, _title = FIGURE_METRICS[number]
    return normalized_metric(results, metric)


def render_figure(results: Mapping[str, BenchmarkResult], number: int) -> str:
    """Full text rendering of one of Figures 6-9."""
    metric, title = FIGURE_METRICS[number]
    data = normalized_metric(results, metric)
    blocks = [f"Figure {number}: {title} (normalized to OS)"]
    for name in sorted(data):
        row = data[name]
        blocks.append(bar_chart(
            {p: row[p] for p in ("OS", "SM", "HM")},
            title=name.upper(),
            reference=1.0,
        ))
    return "\n\n".join(blocks)


def heatmap_svgs(
    results: Mapping[str, BenchmarkResult], mechanism: str
) -> Dict[str, str]:
    """SVG heatmaps per benchmark (publication-grade Figures 4/5)."""
    from repro.util.svgfig import heatmap_svg

    if mechanism not in ("SM", "HM", "oracle"):
        raise ValueError(f"mechanism must be SM, HM or oracle, got {mechanism!r}")
    return {
        name: heatmap_svg(
            r.detected[mechanism].matrix,
            title=f"{name.upper()} ({mechanism})",
        )
        for name, r in results.items()
    }


def figure_svg(results: Mapping[str, BenchmarkResult], number: int) -> str:
    """SVG grouped-bar rendering of one of Figures 6-9."""
    from repro.util.svgfig import grouped_bars_svg

    metric, title = FIGURE_METRICS[number]
    data = {
        name.upper(): normalized_metric(results, metric)[name]
        for name in sorted(results)
    }
    return grouped_bars_svg(
        data,
        title=f"Figure {number}: {title} (normalized to OS)",
        series_order=("OS", "SM", "HM"),
    )
