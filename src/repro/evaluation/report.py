"""Markdown report generation.

Turns the output of :func:`repro.evaluation.runner.run_all_experiments`
into a self-contained Markdown document: one section per experiment with
a per-series summary table, plus the headline-claim comparison against
the paper's quoted numbers.  Useful for regenerating the reproduction
record after changing parameters.
"""

from __future__ import annotations

from repro.evaluation.headline import HeadlineClaims
from repro.evaluation.series import ExperimentResult
from repro.evaluation.tables import format_table

#: Short description of each experiment id, used as the section preamble.
_EXPERIMENT_DESCRIPTIONS = {
    "FIG4": "Arrangement annotations of Figure 4 (neighbour counts, formula checks).",
    "FIG6a": "Network diameter of every arrangement and regularity class (Figure 6a).",
    "FIG6b": "Bisection bandwidth, closed-form or estimated (Figure 6b).",
    "TAB1": "D2D link bandwidth model with the Section VI-B parameters.",
    "FIG7a": "Zero-load latency in cycles (Figure 7a).",
    "FIG7b": "Saturation throughput in Tb/s (Figure 7b).",
    "FIG7c": "Zero-load latency relative to the grid baseline (Figure 7c).",
    "FIG7d": "Saturation throughput relative to the grid baseline (Figure 7d).",
    "HEADLINE": "The four claims of the paper's abstract.",
}

#: The paper's abstract numbers, keyed like :meth:`HeadlineClaims.as_dict`.
_PAPER_CLAIMS = {
    "diameter_reduction_percent": HeadlineClaims.PAPER_DIAMETER_REDUCTION,
    "bisection_improvement_percent": HeadlineClaims.PAPER_BISECTION_IMPROVEMENT,
    "latency_reduction_percent": HeadlineClaims.PAPER_LATENCY_REDUCTION,
    "throughput_improvement_percent": HeadlineClaims.PAPER_THROUGHPUT_IMPROVEMENT,
}


def _series_summary_table(result: ExperimentResult) -> str:
    rows = []
    for series in result.series:
        ys = series.ys
        if not ys:
            continue
        rows.append([series.name, len(ys), min(ys), sum(ys) / len(ys), max(ys)])
    if not rows:
        return "_(no data)_"
    return format_table(["series", "points", "min", "mean", "max"], rows)


def _headline_section(result: ExperimentResult) -> str:
    claims = result.metadata.get("claims", {})
    rows = []
    for key, paper_value in _PAPER_CLAIMS.items():
        reproduced = claims.get(key)
        rows.append(
            [key, paper_value, reproduced if reproduced is not None else "n/a"]
        )
    return format_table(["claim", "paper", "reproduced"], rows)


def generate_markdown_report(
    results: dict[str, ExperimentResult],
    *,
    title: str = "HexaMesh reproduction report",
) -> str:
    """Render all experiment results as one Markdown document."""
    if not results:
        raise ValueError("cannot generate a report from an empty result set")
    lines: list[str] = [f"# {title}", ""]

    if "HEADLINE" in results:
        lines += [
            "## Headline claims (HexaMesh vs. grid)",
            "",
            "```",
            _headline_section(results["HEADLINE"]),
            "```",
            "",
        ]

    for experiment_id in sorted(results):
        if experiment_id == "HEADLINE":
            continue
        result = results[experiment_id]
        description = _EXPERIMENT_DESCRIPTIONS.get(experiment_id, result.title)
        lines += [
            f"## {experiment_id} — {result.title}",
            "",
            description,
            "",
            f"*x axis:* {result.x_label} — *y axis:* {result.y_label}",
            "",
            "```",
            _series_summary_table(result),
            "```",
            "",
        ]
        mode = result.metadata.get("mode")
        if mode:
            lines += [f"_Engine: {mode}_", ""]
    return "\n".join(lines)


def write_markdown_report(
    results: dict[str, ExperimentResult],
    path: str,
    *,
    title: str = "HexaMesh reproduction report",
) -> None:
    """Write :func:`generate_markdown_report` output to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(generate_markdown_report(results, title=title))
