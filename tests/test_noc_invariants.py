"""Flit-conservation invariants across arrangements, traffic and engines.

For every arrangement kind and every registered traffic pattern, and for
every simulation mode (legacy, vectorized, batched — the grid
is the ``sim_mode`` fixture of ``tests/conftest.py``), the network must
account for every flit it ever created: ``created == ejected + in-flight + source-queued`` at the end of
a run, and the measured-packet bookkeeping of the simulator must agree
with the per-component accessors.
"""

from __future__ import annotations

import pytest

from repro.arrangements.factory import make_arrangement
from repro.noc.config import SimulationConfig
from repro.noc.traffic import available_traffic_patterns
from repro.workloads import make_workload, map_workload, trace_traffic_for

from sim_modes import simulate_noc
from fault_scenarios import representative_faults

#: One representative chiplet count per arrangement family (small enough
#: to keep the full kind x traffic x engine grid fast).
KIND_SIZES = [("grid", 9), ("brickwall", 9), ("honeycomb", 7), ("hexamesh", 7)]

FAST_CONFIG = SimulationConfig(
    warmup_cycles=40, measurement_cycles=80, drain_cycles=200
)


def _run(kind: str, count: int, traffic: str, mode: str):
    graph = make_arrangement(kind, count).graph
    return simulate_noc(graph, FAST_CONFIG, injection_rate=0.2, traffic=traffic, mode=mode)


@pytest.mark.parametrize("traffic", available_traffic_patterns())
@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_flit_conservation(kind, count, traffic, sim_mode):
    network, result = _run(kind, count, traffic, sim_mode)

    # No flit lost or duplicated anywhere in the fabric.
    network.verify_flit_conservation()

    created = network.total_created_flits()
    accounted = (
        network.total_ejected_flits()
        + network.flits_in_flight()
        + network.total_source_queued_flits()
    )
    assert created == accounted

    # The run produced traffic at all (guards against a silently dead net).
    assert created > 0
    assert result.measured_packets_created > 0


#: The staged (RC/VA/SA) pipeline threads different timing through the
#: same conservation machinery, so it gets its own pass over the full
#: kind x engine grid.
STAGED_CONFIG = SimulationConfig(
    warmup_cycles=40, measurement_cycles=80, drain_cycles=200,
    router_pipeline="staged",
)


@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_flit_conservation_staged_pipeline(kind, count, sim_mode):
    graph = make_arrangement(kind, count).graph
    network, result = simulate_noc(
        graph, STAGED_CONFIG, injection_rate=0.2, traffic="uniform", mode=sim_mode
    )
    network.verify_flit_conservation()
    created = network.total_created_flits()
    assert created == (
        network.total_ejected_flits()
        + network.flits_in_flight()
        + network.total_source_queued_flits()
    )
    assert result.measured_packets_created > 0


@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_measured_packet_accounting(kind, count, sim_mode):
    """created(measured) == ejected(measured) + in-flight(measured)."""
    network, result = _run(kind, count, "uniform", sim_mode)

    ejected_measured = sum(
        1
        for endpoint in network.endpoints
        for packet in endpoint.ejected_packets
        if packet.measured
    )
    at_sources = sum(
        endpoint.in_flight_measured_packets() for endpoint in network.endpoints
    )
    in_network = network.in_flight_measured_packets()

    assert result.measured_packets_ejected == ejected_measured
    assert result.measured_packets_created == ejected_measured + at_sources + in_network
    assert 0 <= result.measured_delivery_ratio <= 1.0


@pytest.mark.parametrize("workload_kind", ["dnn-pipeline", "client-server", "stencil"])
@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_trace_traffic_flit_conservation(kind, count, workload_kind, sim_mode):
    """Mapped-workload traces obey the same conservation law as synthetic traffic."""
    graph = make_arrangement(kind, count).graph
    workload = make_workload(workload_kind, num_tasks=count)
    mapping = map_workload("partition", workload, graph)
    traffic = trace_traffic_for(
        workload, mapping,
        endpoints_per_chiplet=FAST_CONFIG.endpoints_per_chiplet,
    )
    network, result = simulate_noc(
        graph, FAST_CONFIG, injection_rate=0.2, traffic=traffic, mode=sim_mode
    )

    network.verify_flit_conservation()
    created = network.total_created_flits()
    accounted = (
        network.total_ejected_flits()
        + network.flits_in_flight()
        + network.total_source_queued_flits()
    )
    assert created == accounted
    assert created > 0
    assert result.measured_packets_created > 0

    # Every packet travels along a demand of the trace, and silent
    # endpoints (rate scale 0) never create packets.
    demands = set(traffic.demands)
    for endpoint in network.endpoints:
        if traffic.injection_rate_scale(endpoint.endpoint_id) == 0.0:
            assert endpoint.created_packets == 0
        for packet in endpoint.ejected_packets:
            assert (packet.source, packet.destination) in demands


def _representative_faults(graph, scenario: str):
    return representative_faults(graph, scenario, seed=21)


@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_flit_conservation_under_faults(kind, count, fault_scenario, sim_mode):
    """Degraded topologies obey the same conservation law as healthy ones."""
    graph = make_arrangement(kind, count).graph
    faults = _representative_faults(graph, fault_scenario)
    network, result = simulate_noc(
        graph, FAST_CONFIG, injection_rate=0.2, traffic="uniform",
        faults=faults, mode=sim_mode,
    )

    network.verify_flit_conservation()
    created = network.total_created_flits()
    accounted = (
        network.total_ejected_flits()
        + network.flits_in_flight()
        + network.total_source_queued_flits()
    )
    assert created == accounted
    assert created > 0
    assert result.measured_packets_created > 0

    # Measured-packet bookkeeping stays consistent on the degraded fabric.
    ejected_measured = sum(
        1
        for endpoint in network.endpoints
        for packet in endpoint.ejected_packets
        if packet.measured
    )
    at_sources = sum(
        endpoint.in_flight_measured_packets() for endpoint in network.endpoints
    )
    assert result.measured_packets_created == (
        ejected_measured + at_sources + network.in_flight_measured_packets()
    )


@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_faulted_trace_traffic_flit_conservation(kind, count, sim_mode):
    """Workloads re-mapped onto a degraded topology conserve flits too."""
    graph = make_arrangement(kind, count).graph
    faults = _representative_faults(graph, "single-router")
    degraded = faults.apply(graph).graph
    workload = make_workload("dnn-pipeline", num_tasks=count)
    mapping = map_workload("partition", workload, degraded)
    traffic = trace_traffic_for(
        workload, mapping,
        endpoints_per_chiplet=FAST_CONFIG.endpoints_per_chiplet,
    )
    network, result = simulate_noc(
        degraded, FAST_CONFIG, injection_rate=0.2, traffic=traffic, mode=sim_mode
    )

    network.verify_flit_conservation()
    created = network.total_created_flits()
    accounted = (
        network.total_ejected_flits()
        + network.flits_in_flight()
        + network.total_source_queued_flits()
    )
    assert created == accounted
    assert created > 0
    assert result.measured_packets_created > 0


@pytest.mark.parametrize("kind,count", KIND_SIZES)
def test_component_accessors_are_nonnegative_and_consistent(kind, count):
    network, _ = _run(kind, count, "uniform", "vectorized")
    router_total = sum(r.in_flight_measured_packets() for r in network.routers)
    assert router_total >= 0
    # The network total includes the router buffers plus the channels, so it
    # can never be smaller than the router-only count.
    assert network.in_flight_measured_packets() >= router_total
