"""Trace-driven traffic: driving the cycle-accurate NoC with a mapped workload.

The bridge between the workload subsystem and the simulator rides the
existing :class:`~repro.noc.traffic.TrafficPattern` seam:

1. :func:`build_endpoint_demands` lowers a (workload, mapping) pair to an
   endpoint-level demand matrix — tasks land on concrete endpoints of
   their chiplet, co-endpoint edges become chiplet-local and drop out,
2. :class:`TraceTraffic` replays those demands as a deterministic,
   smoothly interleaved destination schedule per source endpoint and
   advertises per-source injection-rate scales (heaviest talker runs at
   the configured rate, silent endpoints at zero), and
3. :func:`simulate_workload` runs the cycle-accurate simulator (any of
   the cycle-loop engines) and reports application-level metrics: the static mapping cost,
   a makespan proxy and per-communication-edge latencies.

Determinism: the destination schedules never consult the RNG, so a trace
run is bit-identical across the vectorized and legacy engines and across
``jobs=1`` / ``jobs=N`` sweeps under a fixed seed — the same guarantee the
synthetic patterns provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE
from repro.noc.faults import FaultSet
from repro.noc.simulator import NocSimulator, SimulationResult
from repro.noc.traffic import TrafficPattern
from repro.utils.validation import check_positive_int
from repro.workloads.mapping import (
    MappingCost,
    WorkloadMapping,
    available_mappers,
    evaluate_mapping,
    map_workload,
)
from repro.workloads.taskgraph import TaskGraph


def task_endpoints(
    workload: TaskGraph,
    mapping: WorkloadMapping,
    *,
    endpoints_per_chiplet: int,
) -> dict[int, int]:
    """Assign every task to a concrete endpoint of its chiplet.

    Tasks sharing a chiplet are spread round-robin (in ascending task-id
    order) over the chiplet's ``endpoints_per_chiplet`` endpoints, which
    keeps the assignment deterministic and the per-endpoint load even.
    """
    check_positive_int("endpoints_per_chiplet", endpoints_per_chiplet)
    assignment: dict[int, int] = {}
    per_chiplet_rank: dict[int, int] = {}
    for task_id in sorted(workload.task_ids()):
        chiplet = mapping.chiplet_of(task_id)
        rank = per_chiplet_rank.get(chiplet, 0)
        per_chiplet_rank[chiplet] = rank + 1
        assignment[task_id] = (
            chiplet * endpoints_per_chiplet + rank % endpoints_per_chiplet
        )
    return assignment


def build_endpoint_demands(
    workload: TaskGraph,
    mapping: WorkloadMapping,
    *,
    endpoints_per_chiplet: int,
) -> dict[tuple[int, int], int]:
    """Endpoint-level demand matrix of a mapped workload.

    Returns ``{(source_endpoint, destination_endpoint): flits}`` summed
    over all communication edges landing on that endpoint pair.  Edges
    whose tasks share an endpoint are chiplet-local and are excluded (they
    never enter the network).
    """
    endpoints = task_endpoints(
        workload, mapping, endpoints_per_chiplet=endpoints_per_chiplet
    )
    demands: dict[tuple[int, int], int] = {}
    for edge in workload.edges():
        source = endpoints[edge.source]
        destination = endpoints[edge.destination]
        if source == destination:
            continue
        key = (source, destination)
        demands[key] = demands.get(key, 0) + edge.traffic_flits
    return demands


class TraceTraffic(TrafficPattern):
    """Replay an endpoint demand matrix as deterministic destination schedules.

    Parameters
    ----------
    num_endpoints:
        Total endpoints of the network the pattern will drive.
    demands:
        ``{(source, destination): weight}`` with positive integer weights;
        at least one entry is required (a workload that produces no
        inter-chiplet traffic cannot drive the network).
    max_schedule_slots:
        Upper bound on the per-source schedule length.  Heavier demand
        mixes are rounded to this resolution (every destination keeps at
        least one slot), which bounds memory for very wide fan-outs.

    Each source endpoint cycles through a smooth weighted-round-robin
    interleaving of its destinations, so a destination receiving twice the
    weight appears twice as often, spread evenly rather than in bursts.
    ``destination`` never consults the RNG; injection *timing* remains
    governed by each endpoint's Bernoulli process, scaled per source by
    :meth:`injection_rate_scale` so that offered load is proportional to
    the workload's per-source traffic.
    """

    def __init__(
        self,
        num_endpoints: int,
        demands: Mapping[tuple[int, int], int],
        *,
        max_schedule_slots: int = 64,
    ) -> None:
        super().__init__(num_endpoints)
        check_positive_int("max_schedule_slots", max_schedule_slots, minimum=1)
        if not demands:
            raise ValueError(
                "trace traffic needs at least one endpoint-to-endpoint demand; "
                "the mapped workload produced no inter-chiplet traffic"
            )
        per_source: dict[int, dict[int, int]] = {}
        for (source, destination), weight in demands.items():
            self._check_source(source)
            self._check_source(destination)
            if source == destination:
                raise ValueError(f"demand from endpoint {source} to itself")
            if not isinstance(weight, int) or weight <= 0:
                raise ValueError(
                    f"demand weight for {source}->{destination} must be a "
                    f"positive integer, got {weight!r}"
                )
            per_source.setdefault(source, {})[destination] = weight

        self._demands = {key: demands[key] for key in sorted(demands)}
        self._schedules: dict[int, tuple[int, ...]] = {}
        self._cursors: dict[int, int] = {}
        out_weight = {
            source: sum(targets.values()) for source, targets in per_source.items()
        }
        heaviest = max(out_weight.values())
        self._scales = {
            source: weight / heaviest for source, weight in out_weight.items()
        }
        for source in sorted(per_source):
            slots = _normalize_slots(per_source[source], max_schedule_slots)
            self._schedules[source] = _smooth_interleave(slots)
            self._cursors[source] = 0

    # -- TrafficPattern interface ---------------------------------------------

    def destination(self, source: int, rng) -> int:
        """Next destination of the source's schedule (RNG is ignored)."""
        self._check_source(source)
        schedule = self._schedules.get(source)
        if schedule is None:
            raise RuntimeError(
                f"endpoint {source} has no outgoing demand but was asked for "
                "a destination; its injection-rate scale should be zero"
            )
        cursor = self._cursors[source]
        self._cursors[source] = cursor + 1
        return schedule[cursor % len(schedule)]

    def injection_rate_scale(self, source: int) -> float:
        """Per-source offered-load scale in ``[0, 1]`` (0 for silent sources)."""
        self._check_source(source)
        return self._scales.get(source, 0.0)

    # -- introspection ----------------------------------------------------------

    @property
    def demands(self) -> dict[tuple[int, int], int]:
        """The endpoint demand matrix the pattern replays."""
        return dict(self._demands)

    def schedule_of(self, source: int) -> tuple[int, ...]:
        """The cyclic destination schedule of one source (empty if silent)."""
        self._check_source(source)
        return self._schedules.get(source, ())

    def active_sources(self) -> list[int]:
        """Endpoints with outgoing demand, in ascending order."""
        return sorted(self._schedules)

    def reset(self) -> None:
        """Rewind every schedule cursor (for reusing the pattern instance)."""
        for source in self._cursors:
            self._cursors[source] = 0


def _normalize_slots(weights: dict[int, int], max_slots: int) -> dict[int, int]:
    """Scale integer weights down to at most ``max_slots`` schedule slots.

    Largest-remainder rounding; every destination keeps at least one slot,
    so light flows are never starved entirely (the schedule may slightly
    exceed ``max_slots`` when there are more destinations than slots).
    """
    total = sum(weights.values())
    if total <= max_slots:
        return dict(weights)
    quotas = {
        destination: weight * max_slots / total
        for destination, weight in weights.items()
    }
    slots = {destination: max(1, math.floor(quota))
             for destination, quota in quotas.items()}
    leftover = max_slots - sum(slots.values())
    if leftover > 0:
        by_remainder = sorted(
            quotas,
            key=lambda destination: (
                -(quotas[destination] - math.floor(quotas[destination])),
                destination,
            ),
        )
        for destination in by_remainder[:leftover]:
            slots[destination] += 1
    return slots


def _smooth_interleave(slots: dict[int, int]) -> tuple[int, ...]:
    """Smooth weighted round-robin over the slot counts.

    The classic SWRR scheduler: each step, every destination gains its
    weight of credit, the most-credited destination (lowest id on ties) is
    emitted and pays back the total.  Produces an evenly spread cyclic
    sequence of length ``sum(slots)``.
    """
    total = sum(slots.values())
    credit = {destination: 0 for destination in sorted(slots)}
    schedule: list[int] = []
    for _ in range(total):
        for destination, weight in slots.items():
            credit[destination] += weight
        best = max(sorted(credit), key=lambda destination: credit[destination])
        schedule.append(best)
        credit[best] -= total
    return tuple(schedule)


def trace_traffic_for(
    workload: TaskGraph,
    mapping: WorkloadMapping,
    *,
    endpoints_per_chiplet: int,
    max_schedule_slots: int = 64,
) -> TraceTraffic:
    """Build the :class:`TraceTraffic` pattern of a mapped workload."""
    demands = build_endpoint_demands(
        workload, mapping, endpoints_per_chiplet=endpoints_per_chiplet
    )
    num_endpoints = mapping.num_chiplets * endpoints_per_chiplet
    return TraceTraffic(
        num_endpoints, demands, max_schedule_slots=max_schedule_slots
    )


# ---------------------------------------------------------------------------
# Application-level simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLatency:
    """Measured NoC latency of one workload communication edge."""

    source_task: int
    destination_task: int
    traffic_flits: int
    source_endpoint: int
    destination_endpoint: int
    measured_packets: int
    mean_latency_cycles: float  # NaN when no packet of this edge was measured

    @property
    def is_local(self) -> bool:
        """Whether the edge never entered the network (same endpoint)."""
        return self.source_endpoint == self.destination_endpoint


@dataclass(frozen=True)
class WorkloadSimulationResult:
    """Application-level outcome of one trace-driven simulation.

    Attributes
    ----------
    workload_name / mapper / num_tasks:
        Identity of the simulated scenario.
    simulation:
        The raw :class:`~repro.noc.simulator.SimulationResult`.
    cost:
        Static mapping cost metrics (weighted hops, link loads).
    makespan_proxy_cycles:
        Critical-path compute weight plus the cycles needed to move the
        workload's total traffic at the measured aggregate accepted
        bandwidth — a proxy, not a schedule: it assumes compute and
        communication fully overlap-free and the measured bandwidth holds.
    edge_latencies:
        Per-communication-edge measured latencies, in edge insertion order.
    """

    workload_name: str
    mapper: str
    num_tasks: int
    simulation: SimulationResult
    cost: MappingCost
    makespan_proxy_cycles: float
    edge_latencies: tuple[EdgeLatency, ...]

    @property
    def mean_edge_latency_cycles(self) -> float:
        """Traffic-weighted mean latency over edges with measured packets."""
        weighted = [
            (edge.traffic_flits, edge.mean_latency_cycles)
            for edge in self.edge_latencies
            if edge.measured_packets > 0
        ]
        if not weighted:
            return float("nan")
        total = sum(weight for weight, _ in weighted)
        return sum(weight * latency for weight, latency in weighted) / total


def _edge_latency_report(
    workload: TaskGraph,
    endpoints: dict[int, int],
    simulator: NocSimulator,
) -> tuple[EdgeLatency, ...]:
    """Aggregate measured packet latencies back onto workload edges."""
    by_pair: dict[tuple[int, int], list[float]] = {}
    for endpoint in simulator.network.endpoints:
        for packet in endpoint.ejected_packets:
            if packet.measured:
                by_pair.setdefault((packet.source, packet.destination), []).append(
                    float(packet.latency)
                )
    report = []
    for edge in workload.edges():
        pair = (endpoints[edge.source], endpoints[edge.destination])
        samples = by_pair.get(pair, []) if pair[0] != pair[1] else []
        report.append(
            EdgeLatency(
                source_task=edge.source,
                destination_task=edge.destination,
                traffic_flits=edge.traffic_flits,
                source_endpoint=pair[0],
                destination_endpoint=pair[1],
                measured_packets=len(samples),
                mean_latency_cycles=(
                    sum(samples) / len(samples) if samples else float("nan")
                ),
            )
        )
    return tuple(report)


def makespan_proxy_cycles(
    workload: TaskGraph, simulation: SimulationResult
) -> float:
    """Critical-path compute plus traffic volume over measured bandwidth."""
    aggregate_rate = simulation.accepted_flit_rate * simulation.num_endpoints
    if aggregate_rate <= 0.0:
        return float("inf")
    communication = workload.total_traffic_flits / aggregate_rate
    return workload.critical_path_weight() + communication


def simulate_workload(
    graph: ChipGraph,
    workload: TaskGraph,
    mapping: WorkloadMapping,
    *,
    config: SimulationConfig | None = None,
    injection_rate: float = 0.1,
    engine: str = DEFAULT_ENGINE,
    max_schedule_slots: int = 64,
    faults: FaultSet | None = None,
    remap_seed: int = 0,
    telemetry=None,
) -> WorkloadSimulationResult:
    """Run a mapped workload through the cycle-accurate NoC simulator.

    ``injection_rate`` is the offered load of the *heaviest* source
    endpoint; every other source is scaled down proportionally to its
    share of the workload traffic.  Both cycle-loop engines
    (``"vectorized"``, ``"legacy"``) are supported and bit-identical under
    a fixed seed.

    With a non-empty ``faults`` set the workload runs on the *degraded*
    topology: the graph loses its failed links and routers (survivors are
    relabeled), and — because a failed chiplet's tasks must land
    somewhere — the workload is **re-mapped** onto the degraded graph
    with the same *registered* mapper that produced ``mapping`` (seeded
    by ``remap_seed``).  A hand-built mapping (``mapper="custom"`` or any
    unregistered name) cannot be re-mapped automatically — degrade the
    graph with :meth:`FaultSet.apply <repro.noc.faults.FaultSet.apply>`
    and pass a mapping built for the degraded topology instead.  Fault
    sets that disconnect the topology raise
    :class:`~repro.noc.faults.FaultedTopologyError`.

    ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetrySession` forwarded to
    :meth:`NocSimulator.run`, observing the underlying NoC run.
    """
    if config is None:
        config = SimulationConfig()
    if faults is not None and not faults.is_empty:
        if mapping.mapper not in available_mappers():
            raise ValueError(
                f"cannot re-map mapper {mapping.mapper!r} onto the degraded "
                "topology: only registered mappers "
                f"({', '.join(available_mappers())}) can be re-run; apply the "
                "FaultSet to the graph yourself and pass a mapping built for "
                "the degraded topology"
            )
        graph = faults.apply(graph).graph
        mapping = map_workload(mapping.mapper, workload, graph, seed=remap_seed)
    traffic = trace_traffic_for(
        workload,
        mapping,
        endpoints_per_chiplet=config.endpoints_per_chiplet,
        max_schedule_slots=max_schedule_slots,
    )
    simulator = NocSimulator(
        graph, config, injection_rate=injection_rate, traffic=traffic
    )
    result = simulator.run(engine=engine, telemetry=telemetry)
    endpoints = task_endpoints(
        workload, mapping, endpoints_per_chiplet=config.endpoints_per_chiplet
    )
    return WorkloadSimulationResult(
        workload_name=workload.name,
        mapper=mapping.mapper,
        num_tasks=workload.num_tasks,
        simulation=result,
        cost=evaluate_mapping(workload, mapping, graph),
        makespan_proxy_cycles=makespan_proxy_cycles(workload, result),
        edge_latencies=_edge_latency_report(workload, endpoints, simulator),
    )
