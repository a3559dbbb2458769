"""Cycle-accurate inter-chiplet network simulator (BookSim2 substitute).

The paper evaluates arrangements with BookSim2 [7] in ``anynet`` mode: the
arrangement graph is the topology, every chiplet holds one local router and
two traffic endpoints, inter-chiplet links have a latency of 27 cycles
(outgoing PHY + D2D wire + incoming PHY) and routers have a latency of
3 cycles with 8 virtual channels of 8 flits each.

This package implements a flit-level, credit-based, virtual-channel
simulator with the same modelled structure:

* :mod:`repro.noc.config` — simulation parameters,
* :mod:`repro.noc.flit` — packets and flits,
* :mod:`repro.noc.traffic` — synthetic traffic patterns and injection
  processes,
* :mod:`repro.noc.routing` — minimal table-based routing with an
  up*/down* escape virtual channel for deadlock freedom,
* :mod:`repro.noc.faults` — fault injection: failed links / routers
  applied as a degraded topology before routing-table construction,
* :mod:`repro.noc.channel` — latency-modelling flit and credit channels,
* :mod:`repro.noc.router` — input-queued virtual-channel routers,
* :mod:`repro.noc.endpoint` — traffic sources and sinks,
* :mod:`repro.noc.network` — assembling a network from an arrangement
  graph,
* :mod:`repro.noc.engine` — the legacy dense cycle loop, the
  object-model reference engine,
* :mod:`repro.noc.array_kernel` — the default numpy array kernel, one
  flat state over the whole network, behind both the per-point and the
  batched simulator paths,
* :mod:`repro.noc.simulator` — the simulation driver with warm-up,
  measurement and drain phases,
* :mod:`repro.noc.sweep` — injection-rate sweeps: the latency /
  throughput curve of one design.
"""

from repro.noc.config import SimulationConfig
from repro.noc.engine import EngineStats, PhaseSnapshots, run_legacy_loop
from repro.noc.faults import (
    DegradedTopology,
    FaultedTopologyError,
    FaultSet,
    apply_faults,
)
from repro.noc.flit import Flit, Packet
from repro.noc.network import Network
from repro.noc.routing import RoutingTables
from repro.noc.simulator import BatchPoint, NocSimulator, SimulationResult
from repro.noc.stats import LatencyStatistics, ThroughputStatistics
from repro.noc.sweep import (
    InjectionSweepResult,
    run_injection_sweep,
)
from repro.noc.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    PermutationTraffic,
    TornadoTraffic,
    TrafficPattern,
    UniformRandomTraffic,
    available_traffic_patterns,
    make_traffic_pattern,
)

__all__ = [
    "BatchPoint",
    "BitComplementTraffic",
    "DegradedTopology",
    "EngineStats",
    "FaultSet",
    "FaultedTopologyError",
    "Flit",
    "HotspotTraffic",
    "InjectionSweepResult",
    "LatencyStatistics",
    "NeighborTraffic",
    "Network",
    "NocSimulator",
    "Packet",
    "PermutationTraffic",
    "PhaseSnapshots",
    "RoutingTables",
    "SimulationConfig",
    "SimulationResult",
    "ThroughputStatistics",
    "TornadoTraffic",
    "TrafficPattern",
    "UniformRandomTraffic",
    "apply_faults",
    "available_traffic_patterns",
    "make_traffic_pattern",
    "run_injection_sweep",
    "run_legacy_loop",
]
