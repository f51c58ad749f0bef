"""Text reports of COSY analysis results.

The COSY user interface of the paper presents the ranked performance
properties to the application programmer; this module renders the same
information as a plain-text report: the analysis context, the bottleneck, the
performance problems above the threshold and the complete severity ranking.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.cosy.analyzer import AnalysisResult

__all__ = ["format_table", "render_report", "render_speedup_table"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], indent: str = ""
) -> str:
    """Render a simple fixed-width text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        indent + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        indent + "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialised:
        lines.append(
            indent + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_report(result: AnalysisResult, top: Optional[int] = None) -> str:
    """Render a complete analysis report.

    ``top`` limits the severity ranking to the N most severe instances
    (the full ranking is shown when omitted).
    """
    lines: List[str] = []
    lines.append("KOJAK Cost Analyzer (COSY) report")
    lines.append("=" * 50)
    lines.append(f"program        : {result.program}")
    lines.append(f"version        : {result.version}")
    lines.append(f"test run       : {result.run_pes} processors")
    lines.append(f"ranking basis  : {result.basis}")
    lines.append(f"strategy       : {result.strategy}")
    lines.append(f"threshold      : {result.threshold:.3f}")
    if result.skipped:
        lines.append(f"skipped        : {result.skipped} instance(s) without data")
    lines.append("")

    bottleneck = result.bottleneck()
    if bottleneck is None:
        lines.append("No performance property holds: nothing to tune.")
        return "\n".join(lines)

    lines.append(
        f"Bottleneck     : {bottleneck.property_name} on {bottleneck.subject} "
        f"(severity {bottleneck.severity:.4f})"
    )
    if result.needs_tuning():
        lines.append("The bottleneck exceeds the threshold: the program needs tuning.")
    else:
        lines.append(
            "The bottleneck is below the threshold: the program does not need "
            "further tuning."
        )
    lines.append("")

    problems = result.problems()
    lines.append(f"Performance problems (severity > {result.threshold:.3f}): "
                 f"{len(problems)}")
    ranking = result.ranked()
    if top is not None:
        ranking = ranking[:top]
    lines.append("")
    lines.append(
        format_table(
            ["#", "property", "subject", "severity", "confidence", "problem"],
            [
                (
                    position,
                    instance.property_name,
                    instance.subject,
                    f"{instance.severity:.4f}",
                    f"{instance.confidence:.2f}",
                    "yes" if instance.is_problem(result.threshold) else "no",
                )
                for position, instance in enumerate(ranking, start=1)
            ],
        )
    )
    return "\n".join(lines)


def render_speedup_table(rows: Iterable[Sequence[object]]) -> str:
    """Render the per-run cost table used by the E4 benchmark and the examples.

    ``rows`` are ``(pes, duration, speedup, total_cost_severity)`` tuples.
    """
    return format_table(
        ["PEs", "summed duration [s]", "speedup", "SublinearSpeedup severity"],
        rows,
    )
