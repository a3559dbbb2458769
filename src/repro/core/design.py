"""The :class:`ChipletDesign` facade.

A design point is an arrangement family plus a chiplet count evaluated
under a fixed set of architectural parameters.  The class lazily computes
and caches the quantities of the paper's methodology:

* the arrangement and its graph (Section IV),
* the performance proxies: diameter and bisection bandwidth (Section III-C),
* the chiplet shape and D2D link bandwidth (Sections IV-B and V),
* the zero-load latency and saturation throughput, either analytically or
  with the cycle-accurate simulator (Section VI).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.arrangements.base import Arrangement, ArrangementKind, Regularity
from repro.arrangements.factory import make_arrangement
from repro.evaluation.proxies import evaluate_arrangement_proxies
from repro.graphs.metrics import GraphMetrics, compute_metrics
from repro.linkmodel.bandwidth import D2DLinkModel, LinkBandwidthEstimate
from repro.linkmodel.parameters import EvaluationParameters
from repro.linkmodel.shape import ChipletShape
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE
from repro.noc.simulator import NocSimulator, SimulationResult
from repro.perfmodel.latency import zero_load_latency_cycles
from repro.perfmodel.throughput import (
    bisection_limited_saturation_fraction,
    saturation_throughput_fraction,
)
from repro.utils.validation import check_in_choices, check_positive_int


class ChipletDesign:
    """One evaluated chiplet design (arrangement family × chiplet count).

    Create instances with :meth:`create` or :meth:`from_arrangement`.
    """

    def __init__(
        self,
        arrangement: Arrangement | None = None,
        parameters: EvaluationParameters | None = None,
        *,
        arrangement_factory: Callable[[], Arrangement] | None = None,
    ) -> None:
        if (arrangement is None) == (arrangement_factory is None):
            raise ValueError(
                "provide exactly one of arrangement or arrangement_factory"
            )
        self._arrangement = arrangement
        self._arrangement_factory = arrangement_factory
        self._parameters = parameters if parameters is not None else EvaluationParameters()
        self._link_model = D2DLinkModel(self._parameters)
        # Lazily computed caches.
        self._metrics: GraphMetrics | None = None
        self._link_estimate: LinkBandwidthEstimate | None = None
        self._bisection: float | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(
        cls,
        kind: ArrangementKind | str,
        num_chiplets: int,
        regularity: Regularity | str | None = None,
        *,
        parameters: EvaluationParameters | None = None,
        defer: bool = False,
    ) -> "ChipletDesign":
        """Generate the arrangement and wrap it in a design object.

        With ``defer=True`` the (potentially expensive) arrangement
        generation is postponed until the arrangement is first needed —
        generation errors then surface on first access instead of here.
        """
        check_positive_int("num_chiplets", num_chiplets)
        factory = partial(make_arrangement, kind, num_chiplets, regularity)
        if defer:
            return cls(parameters=parameters, arrangement_factory=factory)
        return cls(factory(), parameters)

    @classmethod
    def from_arrangement(
        cls,
        arrangement: Arrangement,
        *,
        parameters: EvaluationParameters | None = None,
    ) -> "ChipletDesign":
        """Wrap an existing (possibly custom) arrangement."""
        return cls(arrangement, parameters)

    # -- basic structure -------------------------------------------------------

    @property
    def arrangement(self) -> Arrangement:
        """The underlying arrangement (materialised on first access when deferred)."""
        if self._arrangement is None:
            self._arrangement = self._arrangement_factory()
        return self._arrangement

    @property
    def parameters(self) -> EvaluationParameters:
        """The architectural parameters the design is evaluated under."""
        return self._parameters

    @property
    def kind(self) -> ArrangementKind:
        """Arrangement family."""
        return self.arrangement.kind

    @property
    def num_chiplets(self) -> int:
        """Number of compute chiplets."""
        return self.arrangement.num_chiplets

    @property
    def regularity(self) -> Regularity:
        """Regularity class of the arrangement."""
        return self.arrangement.regularity

    @property
    def label(self) -> str:
        """Short human-readable label (e.g. ``"HM-37 (regular)"``)."""
        return self.arrangement.label

    # -- proxies (Section III-C) -----------------------------------------------

    def metrics(self) -> GraphMetrics:
        """Graph metrics of the arrangement (cached)."""
        if self._metrics is None:
            self._metrics = compute_metrics(self.arrangement.graph)
        return self._metrics

    @property
    def diameter(self) -> int:
        """Network diameter (the paper's latency proxy)."""
        return self.metrics().diameter

    @property
    def bisection_bandwidth(self) -> float:
        """Bisection bandwidth in links (the paper's throughput proxy).

        Regular arrangements use the closed-form formula; others are
        estimated with the partitioning portfolio (the METIS substitute).
        """
        if self._bisection is None:
            self._bisection = evaluate_arrangement_proxies(
                self.arrangement
            ).bisection_bandwidth
        return self._bisection

    @property
    def average_neighbors(self) -> float:
        """Average number of neighbours per chiplet."""
        return self.metrics().average_degree

    # -- link model (Sections IV-B and V) -----------------------------------------

    @property
    def chiplet_area_mm2(self) -> float:
        """Per-chiplet area ``A_C = A_all / N``."""
        return self._parameters.chiplet_area_mm2(self.num_chiplets)

    def chiplet_shape(self) -> ChipletShape:
        """Solved chiplet shape (dimensions, sector area, bump distance)."""
        return self.link_estimate().shape

    def link_estimate(self) -> LinkBandwidthEstimate:
        """Full output of the D2D link model (cached)."""
        if self._link_estimate is None:
            self._link_estimate = self._link_model.estimate_for_arrangement(
                self.arrangement
            )
        return self._link_estimate

    @property
    def link_bandwidth_gbps(self) -> float:
        """Per-link bandwidth in Gb/s."""
        return self.link_estimate().bandwidth_gbps

    @property
    def full_global_bandwidth_tbps(self) -> float:
        """Chiplets × endpoints per chiplet × per-link bandwidth, in Tb/s."""
        return (
            self.num_chiplets
            * self._parameters.endpoints_per_chiplet
            * self.link_estimate().bandwidth_bps
            / 1e12
        )

    # -- performance (Section VI) ----------------------------------------------------

    def simulation_config(self, base: SimulationConfig | None = None) -> SimulationConfig:
        """Simulator configuration matching the design's parameters."""
        if base is None:
            base = SimulationConfig()
        return SimulationConfig(
            endpoints_per_chiplet=self._parameters.endpoints_per_chiplet,
            num_virtual_channels=self._parameters.num_virtual_channels,
            buffer_depth_flits=self._parameters.buffer_depth_flits,
            router_latency_cycles=self._parameters.router_latency_cycles,
            link_latency_cycles=self._parameters.link_latency_cycles,
            local_latency_cycles=base.local_latency_cycles,
            packet_size_flits=base.packet_size_flits,
            warmup_cycles=base.warmup_cycles,
            measurement_cycles=base.measurement_cycles,
            drain_cycles=base.drain_cycles,
            seed=base.seed,
        )

    def zero_load_latency(self) -> float:
        """Analytical zero-load latency in cycles."""
        return zero_load_latency_cycles(self.arrangement.graph, self.simulation_config())

    def saturation_fraction(self, *, model: str = "bisection") -> float:
        """Analytical saturation throughput as a fraction of injection capacity.

        ``model`` selects the analytical engine: ``"bisection"``
        (bisection-limited bound, the default) or ``"channel_load"``
        (per-node even-split channel loads).
        """
        check_in_choices("model", model, ("bisection", "channel_load"))
        if model == "bisection":
            return bisection_limited_saturation_fraction(
                self.arrangement.graph,
                self.simulation_config(),
                bisection_links=self.bisection_bandwidth,
            )
        return saturation_throughput_fraction(
            self.arrangement.graph, self.simulation_config()
        )

    def saturation_throughput_tbps(self, *, model: str = "bisection") -> float:
        """Analytical saturation throughput in Tb/s."""
        return self.saturation_fraction(model=model) * self.full_global_bandwidth_tbps

    def simulate(
        self,
        *,
        injection_rate: float = 0.02,
        traffic: str = "uniform",
        config: SimulationConfig | None = None,
        engine: str = DEFAULT_ENGINE,
        telemetry=None,
    ) -> SimulationResult:
        """Run the cycle-accurate simulator on this design.

        Parameters
        ----------
        injection_rate:
            Offered load in flits per cycle per endpoint.
        traffic:
            Traffic pattern name (``"uniform"``, ``"hotspot"``, ...).
        config:
            Optional phase-length / seed override; the architectural
            parameters always come from the design itself.
        engine:
            Cycle-loop engine (``"vectorized"`` or ``"legacy"``;
            bit-identical under a fixed seed).
        telemetry:
            Optional :class:`~repro.telemetry.TelemetrySession` observing
            the run (``None`` keeps the hot path observation-free).
        """
        simulator = NocSimulator(
            self.arrangement.graph,
            self.simulation_config(config),
            injection_rate=injection_rate,
            traffic=traffic,
        )
        return simulator.run(engine=engine, telemetry=telemetry)

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Flat summary dictionary of every cached / cheap quantity."""
        metrics = self.metrics()
        shape = self.chiplet_shape()
        return {
            "label": self.label,
            "kind": self.kind.value,
            "regularity": self.regularity.value,
            "num_chiplets": self.num_chiplets,
            "num_links": metrics.num_edges,
            "diameter": metrics.diameter,
            "average_distance": metrics.average_distance,
            "min_neighbors": metrics.degree.minimum,
            "max_neighbors": metrics.degree.maximum,
            "avg_neighbors": metrics.degree.average,
            "bisection_bandwidth_links": self.bisection_bandwidth,
            "chiplet_area_mm2": self.chiplet_area_mm2,
            "chiplet_width_mm": shape.width_mm,
            "chiplet_height_mm": shape.height_mm,
            "bump_distance_mm": shape.bump_distance_mm,
            "link_bandwidth_gbps": self.link_bandwidth_gbps,
            "full_global_bandwidth_tbps": self.full_global_bandwidth_tbps,
            "zero_load_latency_cycles": self.zero_load_latency(),
            "saturation_throughput_tbps": self.saturation_throughput_tbps(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChipletDesign({self.label})"
