"""Unit tests for the analytical performance models."""

import pytest

from repro.arrangements.factory import make_arrangement
from repro.evaluation.performance import FIGURE7_KINDS
from repro.graphs.metrics import bfs_distances
from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig
from repro.perfmodel.latency import packet_path_latency_cycles, zero_load_latency_cycles
from repro.perfmodel.throughput import (
    bisection_limited_saturation_fraction,
    channel_loads_per_unit_injection,
    saturation_throughput_fraction,
)


class TestPathLatency:
    def test_zero_hop_path(self):
        config = SimulationConfig()
        # injection + ejection local channels (1 each) plus one router (3).
        assert packet_path_latency_cycles(0, config) == pytest.approx(5.0)

    def test_single_hop_path(self):
        config = SimulationConfig()
        # 2 local + 2 routers * 3 + 1 link * 27 = 35.
        assert packet_path_latency_cycles(1, config) == pytest.approx(35.0)

    def test_per_hop_increment(self):
        config = SimulationConfig()
        delta = packet_path_latency_cycles(5, config) - packet_path_latency_cycles(4, config)
        assert delta == pytest.approx(config.per_hop_latency_cycles)

    def test_packet_size_adds_serialization(self):
        config = SimulationConfig(packet_size_flits=5)
        base = SimulationConfig(packet_size_flits=1)
        assert packet_path_latency_cycles(2, config) == pytest.approx(
            packet_path_latency_cycles(2, base) + 4
        )

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            packet_path_latency_cycles(-1, SimulationConfig())


class TestZeroLoadLatency:
    def test_two_chiplets(self):
        graph = ChipGraph(edges=[(0, 1)])
        # Pairs: 2 same-chiplet pairs at 5 cycles, 4 cross pairs at 35 cycles.
        expected = (2 * 5 + 4 * 35) / 6
        assert zero_load_latency_cycles(graph) == pytest.approx(expected)

    def test_single_chiplet_multiple_endpoints(self):
        graph = ChipGraph(nodes=[0])
        assert zero_load_latency_cycles(graph) == pytest.approx(5.0)

    def test_single_chiplet_single_endpoint_rejected(self):
        graph = ChipGraph(nodes=[0])
        config = SimulationConfig(endpoints_per_chiplet=1)
        with pytest.raises(ValueError):
            zero_load_latency_cycles(graph, config)

    def test_hexamesh_beats_grid_at_equal_count(self):
        grid = make_arrangement("grid", 64).graph
        hexamesh = make_arrangement("hexamesh", 64).graph
        assert zero_load_latency_cycles(hexamesh) < zero_load_latency_cycles(grid)

    def test_latency_grows_with_chiplet_count(self):
        small = make_arrangement("grid", 16).graph
        large = make_arrangement("grid", 100).graph
        assert zero_load_latency_cycles(large) > zero_load_latency_cycles(small)

    def test_disconnected_graph_rejected(self):
        graph = ChipGraph(nodes=[0, 1, 2], edges=[(0, 1)])
        with pytest.raises(ValueError):
            zero_load_latency_cycles(graph)


def _oracle_zero_load_latency(graph, config):
    """Verbatim per-pair sum: every ordered router pair adds its own term."""
    num_routers = graph.num_nodes
    endpoints_per_chiplet = config.endpoints_per_chiplet
    total_latency = 0.0
    total_pairs = 0
    same_router_pairs = num_routers * endpoints_per_chiplet * (endpoints_per_chiplet - 1)
    if same_router_pairs:
        total_latency += same_router_pairs * packet_path_latency_cycles(0, config)
        total_pairs += same_router_pairs
    pair_weight = endpoints_per_chiplet * endpoints_per_chiplet
    for source in graph.nodes():
        for destination, hops in bfs_distances(graph, source).items():
            if destination == source:
                continue
            total_latency += pair_weight * packet_path_latency_cycles(hops, config)
            total_pairs += pair_weight
    return total_latency / total_pairs


class TestZeroLoadLatencyMatchesOracle:
    """The per-hop-term sum is bit-identical to the pair-by-pair sum."""

    @pytest.mark.parametrize(
        "config",
        [SimulationConfig(), SimulationConfig(link_latency_cycles=27.3, endpoints_per_chiplet=3)],
        ids=["default", "fractional-link-3-endpoints"],
    )
    @pytest.mark.parametrize("kind", [kind.value for kind in FIGURE7_KINDS])
    def test_figure7_designs_up_to_52(self, kind, config):
        for count in range(2, 53):
            graph = make_arrangement(kind, count).graph
            expected = _oracle_zero_load_latency(graph, config)
            assert zero_load_latency_cycles(graph, config) == expected, count


class TestChannelLoads:
    def test_two_chiplet_loads(self):
        graph = ChipGraph(edges=[(0, 1)])
        loads = channel_loads_per_unit_injection(graph, endpoints_per_chiplet=2)
        # Each chiplet sends 2 * (2/3) flits per cycle across the single link
        # at unit injection rate: 2 endpoints x 2 remote destinations / 3.
        assert loads[(0, 1)] == pytest.approx(4.0 / 3.0)
        assert loads[(1, 0)] == pytest.approx(4.0 / 3.0)

    def test_loads_symmetric_on_symmetric_topology(self):
        graph = make_arrangement("grid", 16).graph
        loads = channel_loads_per_unit_injection(graph)
        for (u, v), load in loads.items():
            assert loads[(v, u)] == pytest.approx(load)

    def test_total_load_equals_total_hops(self):
        """Sum of channel loads equals injected flow times mean hop count."""

        graph = make_arrangement("hexamesh", 19).graph
        endpoints = 2 * graph.num_nodes
        loads = channel_loads_per_unit_injection(graph, endpoints_per_chiplet=2)
        total_load = sum(loads.values())
        # Flow between distinct routers per unit injection: each endpoint
        # sends (E - 2)/(E - 1) of its traffic to other routers...
        pair_flow = 2 * 2 / (endpoints - 1)
        expected = 0.0
        from repro.graphs.metrics import bfs_distances

        for source in graph.nodes():
            distances = bfs_distances(graph, source)
            expected += sum(
                pair_flow * hops for dest, hops in distances.items() if dest != source
            )
        assert total_load == pytest.approx(expected)

    def test_requires_contiguous_ids(self):
        graph = ChipGraph(nodes=[1, 2], edges=[(1, 2)])
        with pytest.raises(ValueError):
            channel_loads_per_unit_injection(graph)


class TestSaturationModels:
    def test_single_chiplet_saturates_at_capacity(self):
        graph = ChipGraph(nodes=[0])
        assert saturation_throughput_fraction(graph) == pytest.approx(1.0)
        assert bisection_limited_saturation_fraction(graph) == pytest.approx(1.0)

    def test_channel_load_fraction_for_two_chiplets(self):
        graph = ChipGraph(edges=[(0, 1)])
        assert saturation_throughput_fraction(graph) == pytest.approx(0.75)

    def test_bisection_fraction_grid(self):
        graph = make_arrangement("grid", 100, "regular").graph
        assert bisection_limited_saturation_fraction(graph) == pytest.approx(0.2)

    def test_bisection_fraction_uses_supplied_value(self):
        graph = make_arrangement("grid", 100, "regular").graph
        assert bisection_limited_saturation_fraction(
            graph, bisection_links=20
        ) == pytest.approx(0.4)

    def test_bisection_bound_is_never_below_channel_load_estimate(self):
        for kind, count in (("grid", 36), ("brickwall", 36), ("hexamesh", 37)):
            graph = make_arrangement(kind, count).graph
            assert (
                bisection_limited_saturation_fraction(graph)
                >= saturation_throughput_fraction(graph) - 1e-9
            )

    def test_hexamesh_beats_grid_on_both_models(self):
        grid = make_arrangement("grid", 61).graph
        hexamesh = make_arrangement("hexamesh", 61).graph
        assert saturation_throughput_fraction(hexamesh) > saturation_throughput_fraction(grid)
        assert bisection_limited_saturation_fraction(
            hexamesh
        ) > bisection_limited_saturation_fraction(grid)

    def test_fraction_capped_at_one(self):
        graph = ChipGraph(edges=[(0, 1)])
        config = SimulationConfig(endpoints_per_chiplet=1)
        assert bisection_limited_saturation_fraction(graph, config) == pytest.approx(1.0)

    def test_simulator_agrees_with_channel_load_model(self):
        """The cycle-accurate simulator saturates close to the channel-load bound."""
        from repro.noc.simulator import NocSimulator

        graph = make_arrangement("hexamesh", 19).graph
        config = SimulationConfig(
            warmup_cycles=300, measurement_cycles=700, drain_cycles=0
        )
        analytical = saturation_throughput_fraction(graph, config)
        simulated = NocSimulator(graph, config, injection_rate=1.0).run().accepted_flit_rate
        assert simulated == pytest.approx(analytical, rel=0.2)
