"""Figure 7 (latency / throughput) and the link-bandwidth table.

For every arrangement family and chiplet count the experiment computes:

* the **zero-load latency** in cycles (Figure 7a),
* the **saturation throughput** in Tb/s (Figure 7b): relative saturation
  throughput (fraction of the endpoint injection capacity) multiplied by
  the full global bandwidth, which the D2D link model provides from the
  per-link bandwidth, the chiplet count and the endpoints per chiplet,
* both quantities normalised to the grid baseline at the same chiplet
  count (Figures 7c and 7d).

Two evaluation engines are supported:

* ``mode="analytical"`` — the closed-form models of :mod:`repro.perfmodel`
  (hop-count latency and channel-load saturation,
  :func:`evaluate_arrangement_performance`); fast enough to sweep every
  chiplet count from 2 to 100 exactly like the paper,
* ``mode="simulation"`` — the cycle-accurate simulator of
  :mod:`repro.noc`, used for the chiplet counts listed in
  ``simulation_points`` (all others fall back to the analytical engine),
  mirroring how one would use BookSim2 for spot checks.  Every simulated
  point runs through :class:`~repro.core.parallel.ParallelSweepRunner`
  in :func:`run_figure7`, so it shares the result store, the in-flight
  dedupe and the grouping of every other sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.arrangements.base import Arrangement, ArrangementKind, Regularity
from repro.arrangements.factory import make_arrangement
from repro.evaluation.series import DataSeries, ExperimentResult
from repro.linkmodel.bandwidth import D2DLinkModel
from repro.linkmodel.parameters import EvaluationParameters
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE, ENGINE_NAMES
from repro.noc.sweep import ZERO_LOAD_INJECTION_RATE
from repro.perfmodel.latency import zero_load_latency_cycles
from repro.perfmodel.throughput import (
    bisection_limited_saturation_fraction,
    saturation_throughput_fraction,
)
from repro.utils.validation import check_in_choices

if TYPE_CHECKING:
    from repro.store import ResultStore

#: Arrangement families evaluated in Figure 7.
FIGURE7_KINDS: tuple[ArrangementKind, ...] = (
    ArrangementKind.GRID,
    ArrangementKind.BRICKWALL,
    ArrangementKind.HEXAMESH,
)

#: Figure 7 evaluation modes.
FIGURE7_MODES = ("analytical", "hybrid", "simulation")


@dataclass(frozen=True)
class Figure7Point:
    """Performance of one arrangement at one chiplet count."""

    kind: ArrangementKind
    regularity: Regularity
    num_chiplets: int
    zero_load_latency_cycles: float
    saturation_fraction: float
    link_bandwidth_gbps: float
    full_global_bandwidth_tbps: float
    engine: str  # "analytical" or "simulation"

    @property
    def saturation_throughput_tbps(self) -> float:
        """Saturation throughput in Tb/s (Figure 7b's y-axis)."""
        return self.saturation_fraction * self.full_global_bandwidth_tbps


@dataclass
class Figure7Result:
    """All data of Figure 7 (all four panels)."""

    points: list[Figure7Point]
    parameters: EvaluationParameters
    metadata: dict[str, object] = field(default_factory=dict)

    def point(self, kind: ArrangementKind | str, num_chiplets: int) -> Figure7Point:
        """The point of one arrangement family at one chiplet count."""
        kind = ArrangementKind.from_name(kind)
        for point in self.points:
            if point.kind is kind and point.num_chiplets == num_chiplets:
                return point
        raise KeyError(f"no Figure 7 point for {kind.value} N={num_chiplets}")

    def chiplet_counts(self) -> list[int]:
        """All chiplet counts present, sorted."""
        return sorted({p.num_chiplets for p in self.points})

    # -- normalisation (Figures 7c and 7d) ------------------------------------

    def normalized_latency_percent(
        self, kind: ArrangementKind | str, num_chiplets: int
    ) -> float:
        """Zero-load latency relative to the grid baseline, in percent."""
        kind = ArrangementKind.from_name(kind)
        baseline = self.point(ArrangementKind.GRID, num_chiplets)
        target = self.point(kind, num_chiplets)
        return 100.0 * target.zero_load_latency_cycles / baseline.zero_load_latency_cycles

    def normalized_throughput_percent(
        self, kind: ArrangementKind | str, num_chiplets: int
    ) -> float:
        """Saturation throughput relative to the grid baseline, in percent."""
        kind = ArrangementKind.from_name(kind)
        baseline = self.point(ArrangementKind.GRID, num_chiplets)
        target = self.point(kind, num_chiplets)
        return (
            100.0
            * target.saturation_throughput_tbps
            / baseline.saturation_throughput_tbps
        )

    # -- experiment exports -----------------------------------------------------

    def latency_experiment(self) -> ExperimentResult:
        """Figure 7a: zero-load latency in cycles."""
        return self._experiment(
            "FIG7a",
            "Zero-load latency",
            "zero-load latency [cycles]",
            lambda p: p.zero_load_latency_cycles,
        )

    def throughput_experiment(self) -> ExperimentResult:
        """Figure 7b: saturation throughput in Tb/s."""
        return self._experiment(
            "FIG7b",
            "Saturation throughput",
            "saturation throughput [Tb/s]",
            lambda p: p.saturation_throughput_tbps,
        )

    def normalized_latency_experiment(self) -> ExperimentResult:
        """Figure 7c: zero-load latency relative to the grid [%]."""
        return self._normalized_experiment(
            "FIG7c",
            "Zero-load latency relative to the grid",
            "zero-load latency [%]",
            self.normalized_latency_percent,
        )

    def normalized_throughput_experiment(self) -> ExperimentResult:
        """Figure 7d: saturation throughput relative to the grid [%]."""
        return self._normalized_experiment(
            "FIG7d",
            "Saturation throughput relative to the grid",
            "saturation throughput [%]",
            self.normalized_throughput_percent,
        )

    def _experiment(self, experiment_id, title, y_label, value) -> ExperimentResult:
        series_map: dict[str, DataSeries] = {}
        for point in self.points:
            name = f"{point.kind.value} ({point.regularity.value})"
            series = series_map.setdefault(name, DataSeries(name=name))
            series.add(
                point.num_chiplets,
                value(point),
                regularity=point.regularity.value,
                engine=point.engine,
            )
        # "AVG" series per kind, as plotted in the paper.
        for kind in FIGURE7_KINDS:
            kind_points = sorted(
                (p for p in self.points if p.kind is kind), key=lambda p: p.num_chiplets
            )
            if not kind_points:
                continue
            avg = DataSeries(name=f"{kind.value} (AVG)")
            avg.add(
                kind_points[0].num_chiplets,
                sum(value(p) for p in kind_points) / len(kind_points),
                window="all",
            )
            series_map[avg.name] = avg
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            x_label="number of chiplets",
            y_label=y_label,
            series=list(series_map.values()),
            metadata=dict(self.metadata),
        )

    def _normalized_experiment(self, experiment_id, title, y_label, normalizer) -> ExperimentResult:
        series_map: dict[str, DataSeries] = {}
        counts = self.chiplet_counts()
        for kind in (ArrangementKind.BRICKWALL, ArrangementKind.HEXAMESH):
            name = f"{kind.value} vs grid"
            series = DataSeries(name=name)
            for count in counts:
                try:
                    series.add(count, normalizer(kind, count))
                except KeyError:
                    continue
            series_map[name] = series
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            x_label="number of chiplets",
            y_label=y_label,
            series=list(series_map.values()),
            metadata=dict(self.metadata),
        )


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _simulation_config_from(
    parameters: EvaluationParameters, base: SimulationConfig | None
) -> SimulationConfig:
    """Derive a simulator configuration from the evaluation parameters."""
    if base is None:
        base = SimulationConfig()
    return SimulationConfig(
        endpoints_per_chiplet=parameters.endpoints_per_chiplet,
        num_virtual_channels=parameters.num_virtual_channels,
        buffer_depth_flits=parameters.buffer_depth_flits,
        router_latency_cycles=parameters.router_latency_cycles,
        link_latency_cycles=parameters.link_latency_cycles,
        local_latency_cycles=base.local_latency_cycles,
        packet_size_flits=base.packet_size_flits,
        warmup_cycles=base.warmup_cycles,
        measurement_cycles=base.measurement_cycles,
        drain_cycles=base.drain_cycles,
        seed=base.seed,
    )


def evaluate_arrangement_performance(
    arrangement: Arrangement,
    parameters: EvaluationParameters | None = None,
    *,
    throughput_model: str = "bisection",
    simulation_config: SimulationConfig | None = None,
) -> Figure7Point:
    """Analytical latency / throughput of one arrangement.

    Parameters
    ----------
    arrangement:
        The arrangement to evaluate.
    parameters:
        Architectural parameters (defaults to the paper's).
    throughput_model:
        Saturation model: ``"bisection"`` (bisection-limited bound, the
        default — it matches the behaviour the paper's Figure 7d
        discussion describes) or ``"channel_load"`` (per-node even-split
        channel loads, more conservative).
    simulation_config:
        Optional simulator configuration; the models read its
        ``local_latency_cycles`` and ``packet_size_flits``.

    Cycle-accurate points come from :func:`run_figure7` in
    ``"simulation"`` or ``"hybrid"`` mode.
    """
    check_in_choices("throughput_model", throughput_model, ("bisection", "channel_load"))
    if parameters is None:
        parameters = EvaluationParameters()
    config = _simulation_config_from(parameters, simulation_config)
    latency = zero_load_latency_cycles(arrangement.graph, config)
    if throughput_model == "bisection":
        saturation = bisection_limited_saturation_fraction(arrangement.graph, config)
    else:
        saturation = saturation_throughput_fraction(arrangement.graph, config)
    return _assemble_figure7_point(
        arrangement, parameters, latency=latency, saturation=saturation, engine="analytical"
    )


def _assemble_figure7_point(
    arrangement: Arrangement,
    parameters: EvaluationParameters,
    *,
    latency: float,
    saturation: float,
    engine: str,
) -> Figure7Point:
    """Attach the link-model bandwidths and build one Figure 7 point.

    The analytical path (:func:`evaluate_arrangement_performance`) and
    the simulated points of :func:`run_figure7` both assemble their points
    here, so the bandwidth formulas cannot silently diverge.
    """
    link_model = D2DLinkModel(parameters)
    estimate = link_model.estimate_for_arrangement(arrangement)
    full_global_tbps = (
        arrangement.num_chiplets
        * parameters.endpoints_per_chiplet
        * estimate.bandwidth_bps
        / 1e12
    )
    return Figure7Point(
        kind=arrangement.kind,
        regularity=arrangement.regularity,
        num_chiplets=arrangement.num_chiplets,
        zero_load_latency_cycles=latency,
        saturation_fraction=saturation,
        link_bandwidth_gbps=estimate.bandwidth_gbps,
        full_global_bandwidth_tbps=full_global_tbps,
        engine=engine,
    )


def run_figure7(
    chiplet_counts: Iterable[int] | None = None,
    *,
    parameters: EvaluationParameters | None = None,
    mode: str = "analytical",
    throughput_model: str = "bisection",
    simulation_points: Sequence[int] | None = None,
    simulation_config: SimulationConfig | None = None,
    kinds: Sequence[ArrangementKind | str] = FIGURE7_KINDS,
    jobs: int = 1,
    cache_dir: str | os.PathLike[str] | ResultStore | None = None,
    noc_engine: str = DEFAULT_ENGINE,
    batch: bool = False,
    progress=None,
    in_flight=None,
) -> Figure7Result:
    """Regenerate the data of Figure 7 (all four panels).

    Parameters
    ----------
    chiplet_counts:
        Chiplet counts to evaluate; defaults to 2..100 as in the paper.
    parameters:
        Link-model / architecture parameters (defaults to the paper's).
    mode:
        ``"analytical"``, ``"simulation"`` or ``"hybrid"``.  In hybrid
        mode, the chiplet counts listed in ``simulation_points`` are run
        through the cycle-accurate simulator and everything else through
        the analytical models.
    throughput_model:
        Analytical saturation model (``"bisection"`` or ``"channel_load"``);
        see :func:`evaluate_arrangement_performance`.
    simulation_points:
        Chiplet counts to simulate cycle-accurately (hybrid/simulation
        modes).  ``None`` in simulation mode means *every* count.
    simulation_config:
        Optional override of the simulator phase lengths / seed.
    kinds:
        Arrangement families to evaluate.
    jobs:
        Worker processes for the cycle-accurate points (two simulations
        per point: zero-load and overload).  Every simulation runs with
        the base configuration seed, so ``jobs > 1`` reproduces the
        ``jobs=1`` results exactly.  Analytical points always run inline
        (they are orders of magnitude cheaper than the dispatch overhead).
    cache_dir:
        Optional result store for the cycle-accurate points: a store
        root, or an open :class:`~repro.store.ResultStore` handle.
    noc_engine:
        Cycle-loop engine used for the cycle-accurate points (all engines
        are bit-identical, so the figure data never depends on it).
    batch:
        Deprecated and ignored.  The zero-load and overload simulations
        of one arrangement always share a single topology / routing /
        flat-state build (the sweep runner groups them by itself); the
        keyword is accepted only so existing callers keep working.
    progress:
        Optional ``(done, total, record)`` callback forwarded to the
        cycle-accurate sweep (analytical points never report).
    in_flight:
        Optional shared
        :class:`~repro.core.parallel.InFlightRegistry` deduplicating the
        cycle-accurate points against concurrent sweeps in this process.
    """
    check_in_choices("mode", mode, FIGURE7_MODES)
    check_in_choices("noc_engine", noc_engine, ENGINE_NAMES)
    if chiplet_counts is None:
        chiplet_counts = range(2, 101)
    counts = sorted(set(int(c) for c in chiplet_counts))
    if parameters is None:
        parameters = EvaluationParameters()
    if mode == "analytical":
        simulated = set()
    elif mode == "simulation":
        simulated = set(counts) if simulation_points is None else set(simulation_points)
    else:
        simulated = set(simulation_points or ())

    grid_order: list[tuple[ArrangementKind, int]] = [
        (ArrangementKind.from_name(kind_name), count)
        for count in counts
        for kind_name in kinds
    ]

    sim_designs = [(kind, count) for kind, count in grid_order if count in simulated and count > 1]
    simulated_points: dict[tuple[ArrangementKind, int], Figure7Point] = {}
    if sim_designs:
        from repro.core.parallel import ParallelSweepRunner, SweepCandidate

        config = _simulation_config_from(parameters, simulation_config)
        candidates = [
            SweepCandidate(kind=kind.value, num_chiplets=count, injection_rate=rate)
            for kind, count in sim_designs
            for rate in (ZERO_LOAD_INJECTION_RATE, 1.0)
        ]
        runner = ParallelSweepRunner(
            config, jobs=jobs, cache_dir=cache_dir, engine=noc_engine,
            derive_seeds=False, in_flight=in_flight,
        )
        records = runner.run(candidates, progress=progress)
        for pair_index, (kind, count) in enumerate(sim_designs):
            zero_load = records[2 * pair_index].result
            overload = records[2 * pair_index + 1].result
            simulated_points[(kind, count)] = _assemble_figure7_point(
                make_arrangement(kind, count),
                parameters,
                latency=zero_load.packet_latency.mean,
                saturation=overload.accepted_flit_rate,
                engine="simulation",
            )

    points = [
        simulated_points.get((kind, count))
        or evaluate_arrangement_performance(
            make_arrangement(kind, count),
            parameters,
            throughput_model=throughput_model,
            simulation_config=simulation_config,
        )
        for kind, count in grid_order
    ]
    return Figure7Result(
        points=points,
        parameters=parameters,
        metadata={
            "mode": mode,
            "throughput_model": throughput_model,
            "simulated_counts": sorted({count for _, count in sim_designs}),
            "counts": counts,
            "jobs": jobs,
        },
    )


def run_link_bandwidth_table(
    chiplet_counts: Iterable[int] | None = None,
    *,
    parameters: EvaluationParameters | None = None,
    kinds: Sequence[ArrangementKind | str] = FIGURE7_KINDS,
) -> ExperimentResult:
    """The link-model table (Table I applied with Section VI-B's parameters).

    For each arrangement family and chiplet count: chiplet area, per-link
    bump area, wire counts, per-link bandwidth and full global bandwidth.
    """
    if chiplet_counts is None:
        chiplet_counts = (4, 9, 16, 25, 37, 49, 61, 64, 81, 91, 100)
    if parameters is None:
        parameters = EvaluationParameters()
    link_model = D2DLinkModel(parameters)
    result = ExperimentResult(
        experiment_id="TAB1",
        title="D2D link bandwidth model (Table I with Section VI-B parameters)",
        x_label="number of chiplets",
        y_label="per-link bandwidth [Gb/s]",
    )
    for kind_name in kinds:
        kind = ArrangementKind.from_name(kind_name)
        series = DataSeries(name=kind.value)
        for count in chiplet_counts:
            arrangement = make_arrangement(kind, count)
            estimate = link_model.estimate_for_arrangement(arrangement)
            series.add(
                count,
                estimate.bandwidth_gbps,
                chiplet_area_mm2=round(estimate.shape.area_mm2, 4),
                link_sector_area_mm2=round(estimate.shape.link_sector_area_mm2, 4),
                num_wires=estimate.num_wires,
                num_data_wires=estimate.num_data_wires,
                full_global_bandwidth_tbps=round(
                    count * parameters.endpoints_per_chiplet * estimate.bandwidth_bps / 1e12,
                    3,
                ),
            )
        result.series.append(series)
    return result
