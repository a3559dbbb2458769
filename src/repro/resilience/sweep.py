"""Resilience sweeps: latency / throughput degradation versus failures.

The sweep simulates every (arrangement kind, failure count, sample,
injection rate) candidate on its degraded topology and aggregates
per-arrangement **degradation curves** — and, with several
``injection_rates``, degradation *surfaces* over (failure count x
offered load): mean latency, accepted throughput and delivery ratio,
normalised against the healthy (zero-failure) baseline of the same
arrangement *at the same rate*.  Comparing how gracefully a HexaMesh
degrades versus a grid or a brickwall across the whole load range is a
result the source paper does not report.

Multi-rate grids are where the runner's grouping pays: all rates of one
(kind, fault set) share a
:meth:`~repro.core.parallel.SweepCandidate.batch_key`, so the runner
evaluates them over one shared ``DegradedTopology`` / routing /
flat-state build (bit-identical to per-point runs, just faster — the
``resilience-multirate-hexamesh19`` bench scenario gates the speedup).

Candidates ride the ordinary :class:`~repro.core.parallel.SweepCandidate`
/ :class:`~repro.core.parallel.ParallelSweepRunner` machinery: fault
fields join the candidate identity (and hence the SHA-256 seeds and the
on-disk cache keys) only when present, fault sets are drawn
deterministically per grid point via
:func:`repro.resilience.sampler.sample_survivable_faults`, and every
cycle-loop engine produces bit-identical curves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.arrangements.factory import make_arrangement
from repro.core.parallel import (
    InFlightRegistry,
    ParallelSweepRunner,
    ProgressCallback,
    SweepCandidate,
    SweepRecord,
)
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE
from repro.resilience.sampler import derive_fault_seed, sample_survivable_faults
from repro.store import ResultStore
from repro.utils.validation import check_fraction, check_in_choices, check_positive_int

#: How a failure count is split into component failures:
#: ``"link"`` fails only links, ``"router"`` only routers, ``"mixed"``
#: alternates (links get the odd one out).
FAULT_TYPES: tuple[str, ...] = ("link", "router", "mixed")

#: The fault-type label of sweeps whose fault set was given explicitly
#: (``hexamesh faults --fail-links/--fail-routers``) rather than sampled:
#: no failure-count split applies, so it is not a member of
#: :data:`FAULT_TYPES` — but it is a first-class *summary* label.
EXPLICIT_FAULT_TYPE = "explicit"

#: Every fault-type label a :class:`ResilienceSummary` may carry:
#: the sampled :data:`FAULT_TYPES` plus :data:`EXPLICIT_FAULT_TYPE`.
SUMMARY_FAULT_TYPES: tuple[str, ...] = FAULT_TYPES + (EXPLICIT_FAULT_TYPE,)


def split_failure_count(num_failures: int, fault_type: str) -> tuple[int, int]:
    """Split a total failure count into ``(link_faults, router_faults)``."""
    check_positive_int("num_failures", num_failures, minimum=0)
    check_in_choices("fault_type", fault_type, FAULT_TYPES)
    if fault_type == "link":
        return num_failures, 0
    if fault_type == "router":
        return 0, num_failures
    return (num_failures + 1) // 2, num_failures // 2


def normalize_injection_rates(
    injection_rate: float, injection_rates: Sequence[float] | None
) -> tuple[float, ...]:
    """The validated, ascending, de-duplicated rate axis of a sweep.

    ``injection_rates=None`` keeps the single-rate behaviour (the axis is
    ``(injection_rate,)``); otherwise ``injection_rates`` *replaces* the
    scalar knob entirely.
    """
    if injection_rates is None:
        rates: tuple[float, ...] = (injection_rate,)
    else:
        rates = tuple(sorted(set(float(rate) for rate in injection_rates)))
        if not rates:
            raise ValueError("injection_rates must name at least one rate")
    for rate in rates:
        check_fraction("injection_rate", rate)
    return rates


def resilience_grid(
    kinds: Sequence[str],
    num_chiplets: int,
    failure_counts: Iterable[int],
    *,
    samples: int = 1,
    fault_type: str = "link",
    injection_rate: float = 0.1,
    injection_rates: Sequence[float] | None = None,
    traffic: str = "uniform",
    seed: int = 1,
    regularity: str | None = None,
) -> list[SweepCandidate]:
    """Build the resilience candidate grid, fault sets sampled per point.

    For every arrangement kind and every failure count, ``samples``
    independent survivable fault sets are drawn (deterministically — the
    draw seed mixes the kind, chiplet count, failure count and sample
    index into ``seed`` via SHA-256).  The zero-failure baseline is
    emitted exactly once per kind regardless of ``samples``, since every
    healthy draw is identical.

    ``injection_rates`` evaluates each sampled fault arrangement at
    *every* rate (``None`` keeps the single ``injection_rate``).  The
    fault draw depends only on (kind, failure count, sample), never on
    the rate, and the rate loop is innermost: all rates of one fault
    arrangement are adjacent in the returned grid and share a
    :meth:`~repro.core.parallel.SweepCandidate.batch_key`, which is what
    lets the runner evaluate them over one topology build.
    """
    check_positive_int("num_chiplets", num_chiplets)
    check_positive_int("samples", samples)
    rates = normalize_injection_rates(injection_rate, injection_rates)
    check_in_choices("fault_type", fault_type, FAULT_TYPES)
    counts = sorted(set(failure_counts))
    if not counts:
        raise ValueError("failure_counts must name at least one failure count")
    candidates: list[SweepCandidate] = []
    for kind in kinds:
        base_graph = make_arrangement(kind, num_chiplets, regularity).graph
        for num_failures in counts:
            effective_samples = 1 if num_failures == 0 else samples
            for sample in range(effective_samples):
                link_faults, router_faults = split_failure_count(num_failures, fault_type)
                faults = sample_survivable_faults(
                    base_graph,
                    num_link_faults=link_faults,
                    num_router_faults=router_faults,
                    seed=derive_fault_seed(
                        seed, "resilience", kind, num_chiplets, num_failures, sample
                    ),
                )
                for rate in rates:
                    candidates.append(
                        SweepCandidate(
                            kind=kind,
                            num_chiplets=num_chiplets,
                            injection_rate=rate,
                            traffic=traffic,
                            regularity=regularity,
                            failed_links=faults.failed_links,
                            failed_routers=faults.failed_routers,
                        )
                    )
    return candidates


@dataclass(frozen=True)
class ResilienceSummary:
    """One point of a degradation surface: a (kind, failures, rate) aggregate.

    ``fault_type`` is one of :data:`SUMMARY_FAULT_TYPES` — the sampled
    :data:`FAULT_TYPES` or :data:`EXPLICIT_FAULT_TYPE` for sweeps whose
    fault set was given explicitly.  The ``*_vs_baseline`` ratios are
    relative to the zero-failure summary of the same arrangement kind *at
    the same injection rate* (``NaN`` when the sweep did not include the
    zero-failure baseline or the baseline statistic is undefined).
    ``throughput_vs_baseline`` compares *aggregate* accepted throughput
    (per-endpoint rate scaled by the surviving endpoint count), so losing
    whole routers counts as lost capacity even though the per-endpoint
    ``accepted_flit_rate`` of the survivors may hold steady.
    """

    kind: str
    num_chiplets: int
    num_failures: int
    injection_rate: float
    fault_type: str
    samples: int
    mean_latency_cycles: float
    p99_latency_cycles: float
    accepted_flit_rate: float
    delivery_ratio: float
    latency_vs_baseline: float
    throughput_vs_baseline: float


@dataclass(frozen=True)
class SaturationPoint:
    """One point of a saturation-rate-vs-faults curve.

    ``saturation_rate`` is the largest swept offered load at which the
    arrangement still *accepts* at least ``threshold`` of what is offered
    (per endpoint); ``NaN`` when even the lowest swept rate saturates.
    """

    kind: str
    num_failures: int
    saturation_rate: float
    threshold: float


@dataclass(frozen=True)
class ResilienceSweepResult:
    """All simulated records of a resilience sweep plus the aggregated surfaces."""

    records: tuple[SweepRecord, ...]
    summaries: tuple[ResilienceSummary, ...]
    fault_type: str
    failure_counts: tuple[int, ...]
    injection_rates: tuple[float, ...] = ()

    def kinds(self) -> list[str]:
        """Arrangement kinds covered, in first-appearance order."""
        seen: list[str] = []
        for summary in self.summaries:
            if summary.kind not in seen:
                seen.append(summary.kind)
        return seen

    def rates(self) -> tuple[float, ...]:
        """Injection rates covered, ascending (derived from the summaries)."""
        if self.injection_rates:
            return self.injection_rates
        return tuple(sorted({s.injection_rate for s in self.summaries}))

    def curve(
        self, kind: str, injection_rate: float | None = None
    ) -> tuple[ResilienceSummary, ...]:
        """One arrangement's degradation curve, by ascending failures.

        Multi-rate sweeps carry one curve per rate, so ``injection_rate``
        selects which one; it may be omitted only when the sweep covered
        a single rate (the pre-surface call shape keeps working).
        """
        points = tuple(s for s in self.summaries if s.kind == kind)
        if not points:
            raise ValueError(f"no resilience summaries for kind {kind!r}")
        rates = tuple(sorted({s.injection_rate for s in points}))
        if injection_rate is None:
            if len(rates) > 1:
                raise ValueError(
                    f"kind {kind!r} was swept at {len(rates)} injection rates "
                    f"{rates}; pass curve(kind, injection_rate=...) to select one"
                )
            return points
        selected = tuple(s for s in points if s.injection_rate == injection_rate)
        if not selected:
            raise ValueError(
                f"kind {kind!r} has no summaries at injection rate "
                f"{injection_rate!r}; swept rates: {rates}"
            )
        return selected

    def surface(self, kind: str) -> tuple[ResilienceSummary, ...]:
        """One arrangement's full (failures x rate) degradation surface."""
        points = tuple(s for s in self.summaries if s.kind == kind)
        if not points:
            raise ValueError(f"no resilience summaries for kind {kind!r}")
        return points

    def saturation_curve(
        self, kind: str, *, threshold: float = 0.95
    ) -> tuple[SaturationPoint, ...]:
        """Saturation rate versus fault count — the surface's derived metric.

        For each failure count, the largest swept rate whose accepted
        per-endpoint throughput is still at least ``threshold`` of the
        offered load.  A fault arrangement that saturates earlier than
        the healthy baseline shows up directly as a dropping curve.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        by_failures: dict[int, list[ResilienceSummary]] = {}
        for summary in self.surface(kind):
            by_failures.setdefault(summary.num_failures, []).append(summary)
        curve: list[SaturationPoint] = []
        for num_failures in sorted(by_failures):
            sustained = [
                s.injection_rate
                for s in by_failures[num_failures]
                if s.injection_rate > 0
                and s.accepted_flit_rate >= threshold * s.injection_rate
            ]
            curve.append(
                SaturationPoint(
                    kind=kind,
                    num_failures=num_failures,
                    saturation_rate=max(sustained) if sustained else math.nan,
                    threshold=threshold,
                )
            )
        return tuple(curve)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _ratio(value: float, baseline: float) -> float:
    if baseline and not math.isnan(baseline) and not math.isnan(value):
        return value / baseline
    return math.nan


def summarize_records(
    records: Sequence[SweepRecord], *, fault_type: str
) -> tuple[ResilienceSummary, ...]:
    """Aggregate sweep records into (kind, failure count, rate) summaries.

    ``fault_type`` labels the summaries and must be one of
    :data:`SUMMARY_FAULT_TYPES` (a sampled fault type or
    :data:`EXPLICIT_FAULT_TYPE`).  Samples of one fault arrangement are
    averaged within each (kind, failures, rate) cell; the ``*_vs_baseline``
    ratios anchor on the zero-failure cell of the same kind *and rate*.
    """
    check_in_choices("fault_type", fault_type, SUMMARY_FAULT_TYPES)
    grouped: dict[tuple[str, int, float], list[SweepRecord]] = {}
    order: list[tuple[str, int, float]] = []
    for record in records:
        key = (
            record.candidate.kind,
            record.candidate.fault_set.num_faults,
            record.candidate.injection_rate,
        )
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(record)
    # Stable order: kinds in first-appearance order, failures ascending,
    # rates ascending within one failure count (surface row order).
    kinds_in_order: list[str] = []
    for kind, _, _ in order:
        if kind not in kinds_in_order:
            kinds_in_order.append(kind)
    ordered_keys = sorted(
        grouped, key=lambda key: (kinds_in_order.index(key[0]), key[1], key[2])
    )
    # The throughput ratio compares *aggregate* accepted throughput
    # (per-endpoint rate x surviving endpoints): router faults remove
    # endpoints, so a per-endpoint ratio would hide the lost capacity
    # and could report >1.0 retention while total throughput fell.
    baselines: dict[tuple[str, float], tuple[float, float]] = {}
    for kind, failures, rate in ordered_keys:
        if failures == 0:
            group = grouped[(kind, 0, rate)]
            baselines[(kind, rate)] = (
                _mean([r.result.packet_latency.mean for r in group]),
                _mean(
                    [r.result.accepted_flit_rate * r.result.num_endpoints for r in group]
                ),
            )
    summaries: list[ResilienceSummary] = []
    for kind, failures, rate in ordered_keys:
        group = grouped[(kind, failures, rate)]
        mean_latency = _mean([r.result.packet_latency.mean for r in group])
        accepted = _mean([r.result.accepted_flit_rate for r in group])
        aggregate_accepted = _mean(
            [r.result.accepted_flit_rate * r.result.num_endpoints for r in group]
        )
        baseline_latency, baseline_accepted = baselines.get(
            (kind, rate), (math.nan, math.nan)
        )
        summaries.append(
            ResilienceSummary(
                kind=kind,
                num_chiplets=group[0].candidate.num_chiplets,
                num_failures=failures,
                injection_rate=rate,
                fault_type=fault_type,
                samples=len(group),
                mean_latency_cycles=mean_latency,
                p99_latency_cycles=_mean(
                    [r.result.packet_latency.p99 for r in group]
                ),
                accepted_flit_rate=accepted,
                delivery_ratio=_mean(
                    [r.result.measured_delivery_ratio for r in group]
                ),
                latency_vs_baseline=_ratio(mean_latency, baseline_latency),
                throughput_vs_baseline=_ratio(aggregate_accepted, baseline_accepted),
            )
        )
    return tuple(summaries)


def run_resilience_sweep(
    kinds: Sequence[str],
    num_chiplets: int,
    failure_counts: Iterable[int] = (0, 1, 2, 4),
    *,
    samples: int = 2,
    fault_type: str = "link",
    config: SimulationConfig | None = None,
    injection_rate: float = 0.1,
    injection_rates: Sequence[float] | None = None,
    traffic: str = "uniform",
    jobs: int = 1,
    cache_dir: str | os.PathLike[str] | ResultStore | None = None,
    engine: str = DEFAULT_ENGINE,
    regularity: str | None = None,
    progress: ProgressCallback | None = None,
    in_flight: InFlightRegistry | None = None,
) -> ResilienceSweepResult:
    """Simulate the degradation curves / surfaces of several arrangements.

    Fault sampling is seeded from ``config.seed``, so re-running the
    sweep (any engine, any ``jobs``) reproduces identical curves; with a
    ``cache_dir`` (a store root or an open
    :class:`~repro.store.ResultStore` handle) only new (candidate,
    config) points are simulated.
    Include ``0`` in ``failure_counts`` to anchor the ``*_vs_baseline``
    ratios of the summaries.

    ``injection_rates`` evaluates every sampled fault arrangement at
    every rate, turning the per-kind curves into degradation *surfaces*
    (``None`` keeps the single ``injection_rate``).  All rates of one
    fault arrangement share its
    :class:`~repro.noc.faults.DegradedTopology`, routing tables and
    flat-state build in the runner.  Results are bit-identical across
    engines and ``jobs`` because every candidate keeps its own
    SHA-256-derived seed.
    """
    if config is None:
        config = SimulationConfig()
    counts = tuple(sorted(set(failure_counts)))
    rates = normalize_injection_rates(injection_rate, injection_rates)
    candidates = resilience_grid(
        kinds,
        num_chiplets,
        counts,
        samples=samples,
        fault_type=fault_type,
        injection_rates=rates,
        traffic=traffic,
        seed=config.seed,
        regularity=regularity,
    )
    runner = ParallelSweepRunner(
        config, jobs=jobs, cache_dir=cache_dir, engine=engine, in_flight=in_flight
    )
    records = tuple(runner.run(candidates, progress=progress))
    return ResilienceSweepResult(
        records=records,
        summaries=summarize_records(records, fault_type=fault_type),
        fault_type=fault_type,
        failure_counts=counts,
        injection_rates=rates,
    )
