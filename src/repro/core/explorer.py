"""Design-space exploration over arrangement families and chiplet counts.

The paper's motivation is that hand-optimising the arrangement becomes
infeasible beyond a few tens of chiplets.  The explorer automates the
choice: it evaluates every candidate design under the paper's methodology
and ranks them by a configurable objective (zero-load latency, saturation
throughput, diameter, bisection bandwidth) or reports the Pareto front of
the latency / throughput trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.arrangements.base import ArrangementKind
from repro.arrangements.factory import make_arrangement
from repro.core.design import ChipletDesign
from repro.core.parallel import (
    ParallelSweepRunner,
    ProgressCallback,
    SweepCandidate,
    is_inline,
    parallel_map,
)
from repro.linkmodel.parameters import EvaluationParameters
from repro.noc.engine import DEFAULT_ENGINE
from repro.noc.sweep import InjectionSweepResult
from repro.utils.validation import check_in_choices
from repro.workloads import (
    available_mappers,
    available_workloads,
    effective_num_tasks,
    evaluate_mapping,
    make_workload,
    map_workload,
)

#: Objectives available to :meth:`DesignSpaceExplorer.rank`.  Each maps a
#: record to a value where *smaller is better*; they read the metrics
#: cached on the record, so ranking never recomputes anything.
_OBJECTIVES: dict[str, Callable[["ExplorationRecord"], float]] = {
    "latency": lambda record: record.zero_load_latency_cycles,
    "throughput": lambda record: -record.saturation_throughput_tbps,
    "diameter": lambda record: float(record.diameter),
    "bisection": lambda record: -record.bisection_bandwidth,
}


@dataclass(frozen=True)
class ExplorationRecord:
    """One evaluated candidate design with its headline metrics."""

    design: ChipletDesign
    zero_load_latency_cycles: float
    saturation_throughput_tbps: float
    diameter: int
    bisection_bandwidth: float

    @property
    def label(self) -> str:
        """Label of the underlying design."""
        return self.design.label


@dataclass(frozen=True)
class WorkloadExplorationRecord:
    """One (arrangement, workload, mapper) candidate with its mapping cost.

    The cost metrics are the static ones of
    :func:`repro.workloads.mapping.evaluate_mapping` — no simulation is
    involved, so whole (kind x count x workload x mapper) grids rank in
    milliseconds; promote interesting points to the trace-driven sweep
    (:meth:`ParallelSweepRunner.workload_grid
    <repro.core.parallel.ParallelSweepRunner.workload_grid>`) afterwards.
    """

    kind: str
    num_chiplets: int
    workload: str
    mapper: str
    num_tasks: int
    weighted_hop_count: float
    max_link_load: float
    local_traffic_fraction: float

    @property
    def label(self) -> str:
        """Human-readable candidate label."""
        return f"{self.kind}-{self.num_chiplets} [{self.workload}/{self.mapper}]"


#: Objectives for :meth:`DesignSpaceExplorer.rank_workloads` (smaller is
#: better, matching the design-objective convention above).
_WORKLOAD_OBJECTIVES: dict[str, Callable[[WorkloadExplorationRecord], float]] = {
    "weighted-hops": lambda record: record.weighted_hop_count,
    "max-link-load": lambda record: record.max_link_load,
}

#: Objectives for :meth:`DesignSpaceExplorer.rank_resilience` (smaller is
#: better).  ``latency-degradation`` ranks by how little the mean latency
#: inflates relative to the healthy baseline; ``throughput-retention`` by
#: how much of the healthy accepted throughput survives.
_RESILIENCE_OBJECTIVES: dict[str, Callable[..., float]] = {
    "latency-degradation": lambda summary: summary.latency_vs_baseline,
    "throughput-retention": lambda summary: -summary.throughput_vs_baseline,
}


def _evaluate_workload_candidate(
    item: tuple[str, int, str, str, int],
) -> tuple[float, float, float]:
    """Static mapping cost of one workload candidate (worker-process safe)."""
    kind_name, count, workload_kind, mapper, num_tasks = item
    graph = make_arrangement(kind_name, count).graph
    workload = make_workload(workload_kind, num_tasks=num_tasks)
    mapping = map_workload(mapper, workload, graph)
    cost = evaluate_mapping(workload, mapping, graph)
    return cost.weighted_hop_count, cost.max_link_load, cost.local_traffic_fraction


def _evaluate_candidate(
    item: tuple[str, int, EvaluationParameters, bool],
) -> tuple[ChipletDesign | None, tuple[float, float, int, float]]:
    """Headline metrics of one candidate (runs inside a worker process).

    Only the plain metric values cross the process boundary; the design is
    returned alongside them only when ``ship_design`` is set, which the
    explorer does exclusively on the inline (``jobs=1``) path where no
    boundary exists — parallel runs rebuild a deferred facade instead, so
    records stay cheap to ship regardless of the arrangement size.
    """
    kind_name, count, parameters, ship_design = item
    design = ChipletDesign.create(kind_name, count, parameters=parameters)
    metrics = (
        design.zero_load_latency(),
        design.saturation_throughput_tbps(),
        design.diameter,
        design.bisection_bandwidth,
    )
    return (design if ship_design else None), metrics


class DesignSpaceExplorer:
    """Evaluate and rank designs across kinds and chiplet counts.

    Parameters
    ----------
    kinds:
        Arrangement families to consider (default: grid, brickwall,
        HexaMesh — the three the paper compares; any catalog kind,
        including the honeycomb, is accepted).
    parameters:
        Architectural parameters shared by all candidates.
    jobs:
        Default number of worker processes for :meth:`evaluate` (may be
        overridden per call).
    """

    def __init__(
        self,
        kinds: Sequence[ArrangementKind | str] = ("grid", "brickwall", "hexamesh"),
        *,
        parameters: EvaluationParameters | None = None,
        jobs: int = 1,
    ) -> None:
        self._kinds = [ArrangementKind.from_name(kind) for kind in kinds]
        if not self._kinds:
            raise ValueError("the explorer needs at least one arrangement kind")
        self._parameters = parameters if parameters is not None else EvaluationParameters()
        self._jobs = jobs
        self._records: list[ExplorationRecord] = []
        self._workload_records: list[WorkloadExplorationRecord] = []
        self._resilience_records: list = []

    @property
    def records(self) -> list[ExplorationRecord]:
        """All records evaluated so far."""
        return list(self._records)

    @property
    def workload_records(self) -> list[WorkloadExplorationRecord]:
        """All workload-mapping records evaluated so far."""
        return list(self._workload_records)

    @property
    def resilience_records(self) -> list:
        """All resilience summaries evaluated so far.

        Items are :class:`repro.resilience.sweep.ResilienceSummary`
        instances (annotated loosely to keep the resilience package a
        lazy import of :meth:`evaluate_resilience`).
        """
        return list(self._resilience_records)

    def evaluate(
        self,
        chiplet_counts: Iterable[int],
        *,
        jobs: int | None = None,
        progress: ProgressCallback | None = None,
    ) -> list[ExplorationRecord]:
        """Evaluate every (kind, chiplet count) candidate and cache the records.

        With ``jobs > 1`` candidates are fanned across worker processes via
        :func:`repro.core.parallel.parallel_map`; records come back in the
        same (count-major, kind-minor) order as the serial path.  Each
        candidate's arrangement is built exactly once: inline runs reuse
        the evaluated design directly, parallel runs attach a deferred
        design that regenerates the arrangement only if it is accessed.
        """
        jobs = self._jobs if jobs is None else jobs
        grid = [
            (kind.value, count)
            for count in chiplet_counts
            for kind in self._kinds
        ]
        # The design is shipped exactly when parallel_map runs inline (no
        # process boundary) — the predicate is owned by repro.core.parallel
        # so the two decisions cannot drift apart.
        inline = is_inline(jobs, len(grid))
        candidates = [
            (kind_name, count, self._parameters, inline)
            for kind_name, count in grid
        ]
        outcomes = parallel_map(
            _evaluate_candidate, candidates, jobs=jobs, progress=progress
        )
        new_records: list[ExplorationRecord] = []
        for (kind_name, count, _, _), (design, values) in zip(candidates, outcomes):
            latency, throughput, diameter_value, bisection = values
            if design is None:
                design = ChipletDesign.create(
                    kind_name, count, parameters=self._parameters, defer=True
                )
            new_records.append(
                ExplorationRecord(
                    design=design,
                    zero_load_latency_cycles=latency,
                    saturation_throughput_tbps=throughput,
                    diameter=diameter_value,
                    bisection_bandwidth=bisection,
                )
            )
        self._records.extend(new_records)
        return new_records

    def evaluate_workloads(
        self,
        chiplet_counts: Iterable[int],
        workloads: Sequence[str] = ("dnn-pipeline",),
        *,
        mappers: Sequence[str] = ("partition",),
        num_tasks: int | None = None,
        jobs: int | None = None,
        progress: ProgressCallback | None = None,
    ) -> list[WorkloadExplorationRecord]:
        """Score every (kind, count, workload, mapper) candidate statically.

        Each candidate's workload is sized through
        :func:`repro.workloads.effective_num_tasks` (the same helper the
        trace-driven sweep grid uses, so static ranking and simulation
        always describe identical workloads) and mapped onto the
        arrangement; the records carry the static cost metrics and are
        cached on the explorer for :meth:`rank_workloads`.  ``jobs > 1``
        fans candidates across worker processes via
        :func:`repro.core.parallel.parallel_map`.
        """
        jobs = self._jobs if jobs is None else jobs
        for workload in workloads:
            check_in_choices("workload", workload, available_workloads())
        for mapper in mappers:
            check_in_choices("mapper", mapper, available_mappers())
        candidates = [
            (
                kind.value,
                count,
                workload,
                mapper,
                effective_num_tasks(workload, num_tasks, count),
            )
            for count in chiplet_counts
            for kind in self._kinds
            for workload in workloads
            for mapper in mappers
        ]
        costs = parallel_map(
            _evaluate_workload_candidate, candidates, jobs=jobs, progress=progress
        )
        new_records = [
            WorkloadExplorationRecord(
                kind=kind_name,
                num_chiplets=count,
                workload=workload,
                mapper=mapper,
                num_tasks=tasks,
                weighted_hop_count=weighted_hops,
                max_link_load=max_link,
                local_traffic_fraction=local_fraction,
            )
            for (kind_name, count, workload, mapper, tasks),
                (weighted_hops, max_link, local_fraction)
            in zip(candidates, costs)
        ]
        self._workload_records.extend(new_records)
        return new_records

    def rank_workloads(
        self, objective: str = "weighted-hops"
    ) -> list[WorkloadExplorationRecord]:
        """All workload records sorted from best to worst for ``objective``."""
        check_in_choices("objective", objective, sorted(_WORKLOAD_OBJECTIVES))
        return sorted(self._workload_records, key=_WORKLOAD_OBJECTIVES[objective])

    def evaluate_resilience(
        self,
        num_chiplets: int,
        failure_counts: Iterable[int] = (0, 1, 2, 4),
        *,
        samples: int = 2,
        fault_type: str = "link",
        injection_rate: float = 0.1,
        traffic: str = "uniform",
        config=None,
        jobs: int | None = None,
        cache_dir: str | None = None,
        engine: str = DEFAULT_ENGINE,
        progress: ProgressCallback | None = None,
    ) -> list:
        """Simulate degradation curves of every kind under injected faults.

        Runs :func:`repro.resilience.sweep.run_resilience_sweep` over the
        explorer's arrangement kinds at ``num_chiplets`` chiplets: for
        every failure count, ``samples`` survivable fault sets are drawn
        deterministically (yield-style seeding via SHA-256), simulated
        cycle-accurately on the degraded topology, and aggregated into
        per-kind :class:`~repro.resilience.sweep.ResilienceSummary`
        records, which are cached on the explorer for
        :meth:`rank_resilience`.  Include ``0`` in ``failure_counts`` so
        the ``*_vs_baseline`` ratios are anchored.
        """
        # Imported lazily: repro.core is imported by repro.resilience.
        from repro.resilience.sweep import run_resilience_sweep

        jobs = self._jobs if jobs is None else jobs
        result = run_resilience_sweep(
            [kind.value for kind in self._kinds],
            num_chiplets,
            failure_counts,
            samples=samples,
            fault_type=fault_type,
            config=config,
            injection_rate=injection_rate,
            traffic=traffic,
            jobs=jobs,
            cache_dir=cache_dir,
            engine=engine,
            progress=progress,
        )
        self._resilience_records.extend(result.summaries)
        return list(result.summaries)

    def rank_resilience(self, objective: str = "latency-degradation") -> list:
        """Faulted resilience summaries sorted from most to least graceful.

        Only summaries with at least one failure participate (the healthy
        baselines rank trivially at ratio 1.0); summaries whose ratio is
        ``NaN`` (no baseline anchor in the sweep) sort last.
        """
        check_in_choices("objective", objective, sorted(_RESILIENCE_OBJECTIVES))
        key = _RESILIENCE_OBJECTIVES[objective]

        def sort_key(summary) -> tuple[bool, float]:
            value = key(summary)
            return (value != value, value)  # NaN-last, then ascending

        return sorted(
            (s for s in self._resilience_records if s.num_failures > 0),
            key=sort_key,
        )

    def spot_check(
        self,
        record: ExplorationRecord,
        *,
        injection_rate: float = 0.02,
        rates: Sequence[float] | None = None,
        config=None,
        engine: str = DEFAULT_ENGINE,
        cache_dir: str | None = None,
    ):
        """Cycle-accurately validate one explored record.

        The explorer's own metrics are analytical; this runs the
        cycle-accurate simulator on the record's design (either cycle-loop
        engine — ``"vectorized"`` or ``"legacy"``, bit-identical) so
        interesting candidates can be confirmed the same way the paper
        spot-checks its Figure 7 points with BookSim2.

        With ``rates`` the spot check becomes a whole latency/throughput
        curve, returned as an :class:`~repro.noc.sweep.InjectionSweepResult`:
        one ``kind="custom"`` candidate per rate, run with the base seed
        through :class:`ParallelSweepRunner` over one shared build.
        ``cache_dir`` backs the curve with a result store
        (:mod:`repro.store`) shared with every other execution path; the
        curve is the same with or without one.
        """
        design = record.design
        if rates is None:
            return design.simulate(injection_rate=injection_rate, config=config, engine=engine)
        graph = design.arrangement.graph
        edges = tuple(sorted(tuple(sorted(edge)) for edge in graph.edges()))
        candidates = [
            SweepCandidate(
                kind="custom",
                num_chiplets=graph.num_nodes,
                injection_rate=rate,
                graph_edges=edges,
            )
            for rate in rates
        ]
        runner = ParallelSweepRunner(
            design.simulation_config(config), cache_dir=cache_dir, engine=engine, derive_seeds=False
        )
        records = runner.run(candidates)
        return InjectionSweepResult(tuple(rates), tuple(record.result for record in records))

    def rank(self, objective: str = "latency") -> list[ExplorationRecord]:
        """All evaluated records sorted from best to worst for ``objective``."""
        check_in_choices("objective", objective, sorted(_OBJECTIVES))
        return sorted(self._records, key=_OBJECTIVES[objective])

    def best(self, objective: str = "latency") -> ExplorationRecord:
        """The best record for the given objective."""
        ranked = self.rank(objective)
        if not ranked:
            raise ValueError("no designs have been evaluated yet")
        return ranked[0]

    def best_for_count(self, num_chiplets: int, objective: str = "latency") -> ExplorationRecord:
        """The best record among candidates with exactly ``num_chiplets`` chiplets."""
        candidates = [
            record for record in self.rank(objective)
            if record.design.num_chiplets == num_chiplets
        ]
        if not candidates:
            raise ValueError(f"no evaluated designs with {num_chiplets} chiplets")
        return candidates[0]

    def pareto_front(self) -> list[ExplorationRecord]:
        """Latency / throughput Pareto-optimal records.

        A record is Pareto-optimal when no other record has both lower
        zero-load latency and higher saturation throughput.
        """
        front: list[ExplorationRecord] = []
        for candidate in self._records:
            dominated = False
            for other in self._records:
                if other is candidate:
                    continue
                better_latency = (
                    other.zero_load_latency_cycles <= candidate.zero_load_latency_cycles
                )
                better_throughput = (
                    other.saturation_throughput_tbps >= candidate.saturation_throughput_tbps
                )
                strictly_better = (
                    other.zero_load_latency_cycles < candidate.zero_load_latency_cycles
                    or other.saturation_throughput_tbps > candidate.saturation_throughput_tbps
                )
                if better_latency and better_throughput and strictly_better:
                    dominated = True
                    break
            if not dominated:
                front.append(candidate)
        return sorted(front, key=lambda record: record.zero_load_latency_cycles)
