"""The simulation driver: warm-up, measurement and drain phases.

The simulator advances the network one cycle at a time through one of two
cycle-loop engines — the default *vectorized* numpy array kernel of
:mod:`repro.noc.array_kernel`, which skips idle work and exits early once
the network has drained, and the *legacy* dense object-model loop of
:mod:`repro.noc.engine`, the reference.  Both are bit-identical under a
fixed seed.  :meth:`NocSimulator.run` and :meth:`NocSimulator.run_batch`
drive the kernel through one function, :func:`_run_on_kernel`.
Statistics follow standard network-on-chip methodology (and BookSim2's
conventions):

* packets created during the *warm-up* phase populate the network but are
  not measured,
* packets created during the *measurement* phase are tagged and their
  latency (creation to tail ejection, i.e. including source queueing) is
  reported,
* the *drain* phase gives measured packets time to reach their
  destination; accepted throughput, however, is counted strictly within
  the measurement window so that saturated networks report their sustained
  rate rather than their drained backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig
from repro.noc.engine import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    EngineStats,
    PhaseSnapshots,
    run_legacy_loop,
)
from repro.noc.faults import DegradedTopology, FaultSet
from repro.noc.network import Network
from repro.noc.routing import RoutingTables
from repro.noc.stats import LatencyStatistics, ThroughputStatistics
from repro.noc.traffic import TrafficPattern, make_traffic_pattern
from repro.utils.validation import check_fraction, check_in_choices


@dataclass(frozen=True)
class SimulationResult:
    """Everything a single simulation run reports."""

    injection_rate: float
    packet_latency: LatencyStatistics
    network_latency: LatencyStatistics
    throughput: ThroughputStatistics
    average_hops: float
    cycles_simulated: int
    num_routers: int
    num_endpoints: int
    measured_packets_created: int
    measured_packets_ejected: int

    @property
    def zero_load_latency(self) -> float:
        """Alias for the mean packet latency (meaningful at low load only)."""
        return self.packet_latency.mean

    @property
    def accepted_flit_rate(self) -> float:
        """Accepted throughput in flits per cycle per endpoint."""
        return self.throughput.accepted_flit_rate

    @property
    def measured_delivery_ratio(self) -> float:
        """Fraction of measured packets that reached their destination."""
        if self.measured_packets_created == 0:
            return 1.0
        return self.measured_packets_ejected / self.measured_packets_created


@dataclass(frozen=True)
class BatchPoint:
    """One point of a batched multi-point run.

    Attributes
    ----------
    injection_rate:
        Offered load of the point in flits per cycle per endpoint.
    seed:
        Simulator seed for the point; ``None`` uses the batch
        configuration's seed unchanged (the convention of the figure
        sweeps, whose serial reference path runs every point with the
        base seed).
    """

    injection_rate: float
    seed: int | None = None

    def __post_init__(self) -> None:
        check_fraction("injection_rate", self.injection_rate)


def collect_results(
    network: Network,
    config: SimulationConfig,
    injection_rate: float,
    snapshots: PhaseSnapshots,
) -> SimulationResult:
    """Summarise a finished run of ``network`` into a :class:`SimulationResult`.

    Shared by the per-point path (:meth:`NocSimulator.run`) and the
    batched path (:meth:`NocSimulator.run_batch`), so the two can never
    diverge in how they derive statistics from the network state.
    """
    measured_packets = [
        packet
        for endpoint in network.endpoints
        for packet in endpoint.ejected_packets
        if packet.measured
    ]
    packet_latencies = [float(p.latency) for p in measured_packets]
    network_latencies = [float(p.network_latency) for p in measured_packets]

    measured_created = _count_measured_created(network)

    hop_counts: list[int] = []
    for endpoint in network.endpoints:
        for packet in endpoint.ejected_packets:
            if packet.measured:
                hop_counts.append(network.routing.distance(
                    network.endpoint_to_router[packet.source],
                    network.endpoint_to_router[packet.destination],
                ))
    average_hops = sum(hop_counts) / len(hop_counts) if hop_counts else 0.0

    measurement_cycles = config.measurement_cycles
    num_endpoints = network.num_endpoints
    ejected_during_measurement = snapshots.ejected_during_measurement
    accepted_rate = ejected_during_measurement / (measurement_cycles * num_endpoints)
    throughput = ThroughputStatistics(
        offered_flit_rate=injection_rate,
        accepted_flit_rate=accepted_rate,
        injected_flits=snapshots.injected_during_measurement,
        ejected_flits=ejected_during_measurement,
        measurement_cycles=measurement_cycles,
        num_endpoints=num_endpoints,
    )

    return SimulationResult(
        injection_rate=injection_rate,
        packet_latency=LatencyStatistics.from_samples(packet_latencies),
        network_latency=LatencyStatistics.from_samples(network_latencies),
        throughput=throughput,
        average_hops=average_hops,
        cycles_simulated=snapshots.total_cycles,
        num_routers=network.num_routers,
        num_endpoints=num_endpoints,
        measured_packets_created=measured_created,
        measured_packets_ejected=len(measured_packets),
    )


def _count_measured_created(network: Network) -> int:
    """Number of packets created during the measurement phase.

    Created packets are only tracked per endpoint as a total count, so
    the measured subset is recovered from the packets that carry the
    ``measured`` flag: delivered ones sit in ``ejected_packets``,
    undelivered ones are reported by the in-flight accessors of the
    endpoints (source queues) and the network (router buffers and
    channels).
    """
    measured = 0
    for endpoint in network.endpoints:
        for packet in endpoint.ejected_packets:
            if packet.measured:
                measured += 1
        measured += endpoint.in_flight_measured_packets()
    return measured + network.in_flight_measured_packets()


def _point_config(config: SimulationConfig, point: BatchPoint) -> SimulationConfig:
    """``config`` with the point's seed (unchanged when the point has none)."""
    if point.seed is None or point.seed == config.seed:
        return config
    return replace(config, seed=point.seed)


def _run_on_kernel(
    network: Network,
    config: SimulationConfig,
    points: Sequence[BatchPoint],
    *,
    telemetry: Callable[[int, BatchPoint], object] | None = None,
    on_point: Callable[[int, Network, SimulationResult], None] | None = None,
) -> tuple[list[SimulationResult], EngineStats]:
    """Run ``points`` in order on ``network`` through one
    :class:`~repro.noc.array_kernel.ArrayKernel`.

    The body of both vectorized entry points: :meth:`NocSimulator.run`
    passes its one point, :meth:`NocSimulator.run_batch` the whole batch.
    Each point resets the network and the kernel state, so results do not
    depend on what ran before.  Returns the results in point order and
    the kernel instrumentation of the last point.
    """
    # Imported on first use: the kernel module is large, and processes that
    # never simulate (analytical runs, warm service jobs) should not load it.
    from repro.noc.array_kernel import ArrayKernel

    results: list[SimulationResult] = []
    with ArrayKernel(network, config) as kernel:
        for index, point in enumerate(points):
            cfg = _point_config(config, point)
            session = telemetry(index, point) if telemetry is not None else None
            snapshots, stats = kernel.run_point(
                seed=cfg.seed, injection_rate=point.injection_rate, telemetry=session
            )
            result = collect_results(network, cfg, point.injection_rate, snapshots)
            results.append(result)
            if on_point is not None:
                on_point(index, network, result)
    return results, stats


class NocSimulator:
    """Cycle-accurate simulation of one topology at one injection rate.

    Parameters
    ----------
    graph:
        Inter-chiplet topology (router ids ``0 .. n-1``).
    config:
        Simulation configuration; defaults to the paper's setup.
    injection_rate:
        Offered load in flits per cycle per endpoint (fraction of capacity).
    traffic:
        Either a :class:`~repro.noc.traffic.TrafficPattern` instance or the
        name of one (``"uniform"``, ``"hotspot"``, ...).
    faults:
        Optional :class:`~repro.noc.faults.FaultSet`.  When given (and
        non-empty), the simulator runs on the **degraded** topology —
        failed routers and links removed, survivors relabeled to
        contiguous ids — so the routing tables rebuild automatically and
        every engine simulates the faulted network bit-identically.  A
        :class:`TrafficPattern` *instance* must then be sized for the
        degraded endpoint count (pattern names are resolved against it
        automatically); a fault set that disconnects the topology or
        isolates a router raises
        :class:`~repro.noc.faults.FaultedTopologyError`.
    """

    def __init__(
        self,
        graph: ChipGraph,
        config: SimulationConfig | None = None,
        *,
        injection_rate: float = 0.1,
        traffic: TrafficPattern | str = "uniform",
        faults: FaultSet | None = None,
    ) -> None:
        self._config = config if config is not None else SimulationConfig()
        check_fraction("injection_rate", injection_rate)
        self._fault_set = faults if faults is not None else FaultSet()
        self._degraded: DegradedTopology | None = None
        if not self._fault_set.is_empty:
            self._degraded = self._fault_set.apply(graph)
            graph = self._degraded.graph
        num_endpoints = graph.num_nodes * self._config.endpoints_per_chiplet
        if isinstance(traffic, str):
            traffic_pattern = make_traffic_pattern(traffic, num_endpoints)
        else:
            traffic_pattern = traffic
        self._network = Network(
            graph,
            self._config,
            traffic=traffic_pattern,
            injection_rate=injection_rate,
        )
        self._injection_rate = injection_rate
        #: Instrumentation of the vectorized run (``None`` before the run
        #: and after a legacy run).
        self.last_engine_stats: EngineStats | None = None
        #: Name of the engine that actually executed :meth:`run` (``None``
        #: before the run).  Differs from the requested engine exactly
        #: when a staged-pipeline config resolved to ``"legacy"`` —
        #: provenance consumers must record *this*, never the request.
        self.last_engine: str | None = None

    @property
    def network(self) -> Network:
        """The underlying network (exposed for tests and instrumentation)."""
        return self._network

    @property
    def config(self) -> SimulationConfig:
        """The simulation configuration in use."""
        return self._config

    @property
    def fault_set(self) -> FaultSet:
        """The injected fault set (empty for a healthy network)."""
        return self._fault_set

    @property
    def degraded_topology(self) -> DegradedTopology | None:
        """The degraded topology simulated (``None`` without faults)."""
        return self._degraded

    # -- running -------------------------------------------------------------------

    @staticmethod
    def resolve_engine(engine: str, config: SimulationConfig) -> str:
        """The engine that will *actually* run for this request.

        The single source of truth for staged-pipeline configs: the numpy
        ``vectorized`` kernel implements single-stage semantics only, and
        the ``legacy`` loop is the one engine that steps the staged
        router, so under ``router_pipeline="staged"`` every request
        resolves to ``"legacy"``.  Everything that records provenance —
        manifests, store entries, bench reports — must record the
        *resolved* name, which :attr:`last_engine` exposes after a run.
        """
        check_in_choices("engine", engine, ENGINE_NAMES)
        if config.is_staged_pipeline:
            return "legacy"
        return engine

    def run(self, *, engine: str = DEFAULT_ENGINE, telemetry=None) -> SimulationResult:
        """Execute warm-up, measurement and drain, then summarise the statistics.

        A simulator runs once: a second call raises :class:`RuntimeError`
        (build a new simulator for another run).

        Parameters
        ----------
        engine:
            ``"vectorized"`` (default) uses the numpy array kernel of
            :mod:`repro.noc.array_kernel`; ``"legacy"`` uses the dense
            object-model loop of :mod:`repro.noc.engine`.  Both produce
            bit-identical results under a fixed seed — the legacy engine
            remains the reference for the equivalence test suite.
        telemetry:
            Optional :class:`~repro.telemetry.TelemetrySession`.  Its
            collector / tracer / profiler observe the run through every
            engine; the recorded series and flit-lifecycle events are
            themselves bit-identical across engines under a fixed seed.
            ``None`` (the default) keeps the cycle loops observation-free.

        Notes
        -----
        With ``router_pipeline="staged"`` every request runs the legacy
        loop (see :meth:`resolve_engine`): the numpy kernel implements the
        single-stage pipeline semantics only.
        """
        engine = self.resolve_engine(engine, self._config)
        if self.last_engine is not None:
            raise RuntimeError(
                "NocSimulator.run is single-use; build a new simulator to run again"
            )
        self.last_engine = engine
        if engine == "legacy":
            snapshots = run_legacy_loop(
                self._network, self._config, telemetry=telemetry
            )
            return collect_results(
                self._network, self._config, self._injection_rate, snapshots
            )
        (result,), self.last_engine_stats = _run_on_kernel(
            self._network,
            self._config,
            [BatchPoint(self._injection_rate)],
            telemetry=lambda index, point: telemetry,
        )
        return result

    # -- batched running ----------------------------------------------------------

    @classmethod
    def run_batch(
        cls,
        graph: ChipGraph,
        points: Sequence[BatchPoint],
        *,
        config: SimulationConfig | None = None,
        traffic: TrafficPattern | str = "uniform",
        faults: FaultSet | None = None,
        engine: str = DEFAULT_ENGINE,
        on_point: Callable[[int, Network, SimulationResult], None] | None = None,
        telemetry: Callable[[int, BatchPoint], object] | None = None,
    ) -> list[SimulationResult]:
        """Simulate many injection-rate points over one shared topology build.

        The batch shares everything the points have in common — the
        (degraded, if ``faults`` is given) topology, the routing tables,
        and with ``engine="vectorized"`` one reusable network plus one
        :class:`~repro.noc.array_kernel.ArrayKernel` — while every point
        runs with its own seed, injection process and statistics.  Results
        are returned in point order and are **bit-identical** to per-point
        ``NocSimulator(...).run(engine=...)`` calls with the same
        parameters: batching amortises work, it never changes outcomes.

        Parameters
        ----------
        graph:
            Healthy inter-chiplet topology shared by every point.
        points:
            The :class:`BatchPoint` list; a point's ``seed=None`` runs
            with ``config.seed`` unchanged.
        config:
            Base simulation configuration (phase lengths, VC counts, ...);
            per-point seeds override only its ``seed``.
        traffic:
            Pattern name or instance shared by all points (instances are
            reset per point, exactly as a fresh network would).
        faults:
            Optional fault set; applied **once**, so all points of one
            fault arrangement share its degraded topology.
        engine:
            ``"vectorized"`` (default) runs every point on one array
            kernel; ``"legacy"`` runs the per-point dense loop, which
            still shares the topology and routing-table build.
        on_point:
            Optional hook called as ``on_point(index, network, result)``
            after each point, while the network still holds that point's
            final state — the seam tests and harnesses use to inspect
            per-point network state (latency histograms, conservation)
            without giving up batching.
        telemetry:
            Optional factory called as ``telemetry(index, point)`` before
            each point; a returned
            :class:`~repro.telemetry.TelemetrySession` observes that
            point's run (return ``None`` to skip a point).  Sessions are
            per point — reuse one only after consuming its contents.
        """
        if config is None:
            config = SimulationConfig()
        # The numpy kernel implements single-stage semantics only;
        # staged-pipeline batches resolve to the per-point legacy loop
        # below, which still shares the (degraded) topology and
        # routing-table build across all points.  Callers recording
        # provenance resolve the same way (resolve_engine is the single
        # source of truth).
        engine = cls.resolve_engine(engine, config)
        ordered = list(points)
        if not ordered:
            return []
        fault_set = faults if faults is not None else FaultSet()
        if not fault_set.is_empty:
            graph = fault_set.apply(graph).graph
        num_endpoints = graph.num_nodes * config.endpoints_per_chiplet
        if isinstance(traffic, str):
            traffic_pattern = make_traffic_pattern(traffic, num_endpoints)
        else:
            traffic_pattern = traffic
        routing = RoutingTables(graph)

        if engine == "legacy":
            results: list[SimulationResult] = []
            for index, point in enumerate(ordered):
                cfg = _point_config(config, point)
                network = Network(
                    graph,
                    cfg,
                    traffic=traffic_pattern,
                    injection_rate=point.injection_rate,
                    routing=routing,
                )
                session = telemetry(index, point) if telemetry is not None else None
                snapshots = run_legacy_loop(network, cfg, telemetry=session)
                result = collect_results(
                    network, cfg, point.injection_rate, snapshots
                )
                results.append(result)
                if on_point is not None:
                    on_point(index, network, result)
            return results

        first = ordered[0]
        network = Network(
            graph,
            _point_config(config, first),
            traffic=traffic_pattern,
            injection_rate=first.injection_rate,
            routing=routing,
        )
        results, _ = _run_on_kernel(
            network, config, ordered, telemetry=telemetry, on_point=on_point
        )
        return results
