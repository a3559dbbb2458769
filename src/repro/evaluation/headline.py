"""The headline claims of the paper's abstract.

The abstract summarises HexaMesh with four numbers relative to the grid:

* network diameter reduced by **42 %** (asymptotically, from the proxy
  formulas),
* bisection bandwidth improved by **130 %** (asymptotically),
* latency reduced by **19 %** on average (simulation),
* throughput improved by **34 %** on average (simulation).

This module recomputes all four from the library's own results so the
reproduction can be compared against the paper at a glance
(:mod:`repro.evaluation.report` renders them into the Markdown report).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrangements.base import ArrangementKind
from repro.evaluation.performance import Figure7Result
from repro.graphs.analytical import (
    asymptotic_bisection_improvement_percent,
    asymptotic_diameter_reduction_percent,
)


@dataclass(frozen=True)
class HeadlineClaims:
    """The four abstract numbers, as reproduced by this library."""

    diameter_reduction_percent: float
    bisection_improvement_percent: float
    latency_reduction_percent: float
    throughput_improvement_percent: float

    #: The values quoted in the paper's abstract, for reference.
    PAPER_DIAMETER_REDUCTION = 42.0
    PAPER_BISECTION_IMPROVEMENT = 130.0
    PAPER_LATENCY_REDUCTION = 19.0
    PAPER_THROUGHPUT_IMPROVEMENT = 34.0

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary stored in experiment metadata for the Markdown report."""
        return {
            "diameter_reduction_percent": self.diameter_reduction_percent,
            "bisection_improvement_percent": self.bisection_improvement_percent,
            "latency_reduction_percent": self.latency_reduction_percent,
            "throughput_improvement_percent": self.throughput_improvement_percent,
        }


def asymptotic_claims() -> tuple[float, float]:
    """The two asymptotic proxy claims (diameter −42 %, bisection +130 %)."""
    return (
        asymptotic_diameter_reduction_percent("hexamesh"),
        asymptotic_bisection_improvement_percent("hexamesh"),
    )


def average_improvements(
    figure7: Figure7Result,
    *,
    kind: ArrangementKind | str = ArrangementKind.HEXAMESH,
    min_chiplets: int = 2,
) -> tuple[float, float]:
    """Average latency reduction and throughput improvement vs. the grid.

    The paper reports the averages over its whole evaluated range (2–100
    chiplets); pass ``min_chiplets=10`` to reproduce the "for N >= 10,
    latency is reduced by almost 20 %" observation.

    Returns ``(latency_reduction_percent, throughput_improvement_percent)``.
    """
    kind = ArrangementKind.from_name(kind)
    counts = [c for c in figure7.chiplet_counts() if c >= min_chiplets]
    if not counts:
        raise ValueError("no chiplet counts at or above the requested minimum")
    latency_ratios = []
    throughput_ratios = []
    for count in counts:
        latency_ratios.append(figure7.normalized_latency_percent(kind, count) / 100.0)
        throughput_ratios.append(figure7.normalized_throughput_percent(kind, count) / 100.0)
    mean_latency_ratio = sum(latency_ratios) / len(latency_ratios)
    mean_throughput_ratio = sum(throughput_ratios) / len(throughput_ratios)
    return (
        (1.0 - mean_latency_ratio) * 100.0,
        (mean_throughput_ratio - 1.0) * 100.0,
    )


def compute_headline_claims(figure7: Figure7Result, *, min_chiplets: int = 2) -> HeadlineClaims:
    """Assemble all four headline numbers from the library's results."""
    diameter_reduction, bisection_improvement = asymptotic_claims()
    latency_reduction, throughput_improvement = average_improvements(
        figure7, min_chiplets=min_chiplets
    )
    return HeadlineClaims(
        diameter_reduction_percent=diameter_reduction,
        bisection_improvement_percent=bisection_improvement,
        latency_reduction_percent=latency_reduction,
        throughput_improvement_percent=throughput_improvement,
    )
