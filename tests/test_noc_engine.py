"""Determinism and equivalence of the cycle-loop engines.

The vectorized engine — and the batched multi-point path — must be pure
optimisations: under a fixed seed they produce
bit-identical :class:`SimulationResult`s to the legacy dense loop, across
arrangements, injection rates and traffic patterns, while actually
skipping idle work (which the engine's instrumentation counters expose).
The mode grid lives in ``tests/conftest.py`` (``equivalent_sim_mode``), so a
new engine joins every equivalence class here with one fixture edit.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arrangements.factory import make_arrangement
from repro.noc.config import SimulationConfig
from repro.noc.engine import ENGINE_NAMES, PhaseSnapshots, run_legacy_loop
from repro.noc.network import Network
from repro.noc.simulator import NocSimulator
from repro.noc.vec_engine import VectorizedEngine

from sim_modes import simulate_noc
from fault_scenarios import representative_faults

FAST_CONFIG = SimulationConfig(
    warmup_cycles=60, measurement_cycles=120, drain_cycles=300
)

EQUIVALENCE_GRID = [
    (kind, count, rate, traffic)
    for kind, count in [("grid", 9), ("brickwall", 9), ("honeycomb", 7), ("hexamesh", 7)]
    for rate in (0.05, 0.5)
    for traffic in ("uniform", "tornado")
]


def _representative_faults(graph, scenario: str):
    return representative_faults(graph, scenario, seed=13)


def _run(kind, count, rate, traffic, mode, config=FAST_CONFIG, faults=None):
    graph = make_arrangement(kind, count).graph
    return simulate_noc(
        graph, config, injection_rate=rate, traffic=traffic, faults=faults, mode=mode
    )


def _result(kind, count, rate, traffic, engine, config=FAST_CONFIG, faults=None):
    """Engine-specific helper for the fast-path suites (needs the simulator)."""
    graph = make_arrangement(kind, count).graph
    simulator = NocSimulator(
        graph, config, injection_rate=rate, traffic=traffic, faults=faults
    )
    return simulator, simulator.run(engine=engine)


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind,count,rate,traffic", EQUIVALENCE_GRID)
    def test_bit_identical_results(self, kind, count, rate, traffic, equivalent_sim_mode):
        _, legacy = _run(kind, count, rate, traffic, "legacy")
        _, fast = _run(kind, count, rate, traffic, equivalent_sim_mode)
        # Frozen dataclasses compare field by field, nested statistics
        # included — this is the bit-identical contract of the engines.
        assert legacy == fast

    def test_identical_across_repeated_runs(self, equivalent_sim_mode):
        _, first = _run("hexamesh", 7, 0.1, "uniform", equivalent_sim_mode)
        _, second = _run("hexamesh", 7, 0.1, "uniform", equivalent_sim_mode)
        assert first == second

    def test_engine_name_registry_is_stable(self):
        assert ENGINE_NAMES == ("vectorized", "legacy")

    def test_invalid_engine_name_rejected(self):
        graph = make_arrangement("grid", 4).graph
        simulator = NocSimulator(graph, FAST_CONFIG, injection_rate=0.1)
        with pytest.raises(ValueError):
            simulator.run(engine="warp-speed")

    def test_legacy_loop_returns_full_horizon_snapshots(self):
        graph = make_arrangement("grid", 9).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.1)
        snapshots = run_legacy_loop(network, FAST_CONFIG)
        assert isinstance(snapshots, PhaseSnapshots)
        assert snapshots.cycles_executed == snapshots.total_cycles

    def test_different_seeds_differ(self):
        graph = make_arrangement("grid", 9).graph
        base = NocSimulator(graph, FAST_CONFIG, injection_rate=0.2).run()
        other_config = SimulationConfig(
            warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=99
        )
        other = NocSimulator(graph, other_config, injection_rate=0.2).run()
        assert base != other

    def test_zero_drain_equivalence(self, equivalent_sim_mode):
        config = SimulationConfig(
            warmup_cycles=60, measurement_cycles=120, drain_cycles=0
        )
        _, legacy = _run("grid", 9, 0.3, "uniform", "legacy", config)
        _, fast = _run("grid", 9, 0.3, "uniform", equivalent_sim_mode, config)
        assert legacy == fast

    def test_zero_injection_equivalence(self, equivalent_sim_mode):
        _, legacy = _run("grid", 9, 0.0, "uniform", "legacy")
        _, fast = _run("grid", 9, 0.0, "uniform", equivalent_sim_mode)
        # Latency statistics are all-NaN with no measured packets (and
        # NaN != NaN), so compare the discrete fields directly.
        assert legacy.throughput == fast.throughput
        assert legacy.cycles_simulated == fast.cycles_simulated
        assert legacy.measured_packets_created == fast.measured_packets_created == 0
        assert legacy.measured_packets_ejected == fast.measured_packets_ejected == 0
        assert legacy.packet_latency.is_empty and fast.packet_latency.is_empty

    def test_final_network_state_matches_legacy(self, equivalent_sim_mode):
        """Beyond the result summary: the networks end bit-identical too."""
        legacy_net, _ = _run("hexamesh", 7, 0.3, "uniform", "legacy")
        fast_net, _ = _run("hexamesh", 7, 0.3, "uniform", equivalent_sim_mode)
        assert [r.buffered_flits for r in legacy_net.routers] == [
            r.buffered_flits for r in fast_net.routers
        ]
        assert [r.forwarded_flits for r in legacy_net.routers] == [
            r.forwarded_flits for r in fast_net.routers
        ]
        assert [e.injected_flits for e in legacy_net.endpoints] == [
            e.injected_flits for e in fast_net.endpoints
        ]
        assert [e.ejected_flits for e in legacy_net.endpoints] == [
            e.ejected_flits for e in fast_net.endpoints
        ]
        legacy_pending = [c.pending() for c, _ in legacy_net.channel_targets()]
        fast_pending = [c.pending() for c, _ in fast_net.channel_targets()]
        assert [len(p) for p in legacy_pending] == [len(p) for p in fast_pending]
        fast_net.verify_flit_conservation()


class TestStagedEngineEquivalence:
    """Staged-pipeline configs run the legacy loop whatever mode is asked.

    Only the legacy loop steps the staged router, so every engine request
    under ``router_pipeline="staged"`` resolves to it: each mode must then
    reproduce the staged legacy run, results and final network alike.
    """

    STAGED_CONFIG = replace(FAST_CONFIG, router_pipeline="staged")

    @pytest.mark.parametrize(
        "kind,count", [("grid", 9), ("brickwall", 9), ("honeycomb", 7), ("hexamesh", 7)]
    )
    def test_bit_identical_results_staged(self, kind, count, equivalent_sim_mode):
        legacy_net, legacy = _run(
            kind, count, 0.3, "uniform", "legacy", self.STAGED_CONFIG
        )
        fast_net, fast = _run(
            kind, count, 0.3, "uniform", equivalent_sim_mode, self.STAGED_CONFIG
        )
        assert legacy == fast
        assert [r.forwarded_flits for r in legacy_net.routers] == [
            r.forwarded_flits for r in fast_net.routers
        ]
        fast_net.verify_flit_conservation()


class TestFaultedEngineEquivalence:
    """The bit-identical contract must also hold on degraded topologies."""

    @pytest.mark.parametrize(
        "kind,count",
        [("grid", 9), ("brickwall", 9), ("honeycomb", 7), ("hexamesh", 7)],
    )
    def test_bit_identical_results_under_faults(
        self, kind, count, fault_scenario, equivalent_sim_mode
    ):
        graph = make_arrangement(kind, count).graph
        faults = _representative_faults(graph, fault_scenario)
        _, legacy = _run(kind, count, 0.3, "uniform", "legacy", faults=faults)
        _, fast = _run(kind, count, 0.3, "uniform", equivalent_sim_mode, faults=faults)
        assert legacy == fast
        assert legacy.measured_packets_ejected > 0

    @pytest.mark.parametrize("traffic", ["uniform", "tornado"])
    def test_faulted_traffic_variants_match_legacy(self, traffic, equivalent_sim_mode):
        graph = make_arrangement("hexamesh", 7).graph
        faults = _representative_faults(graph, "single-link")
        _, legacy = _run("hexamesh", 7, 0.5, traffic, "legacy", faults=faults)
        _, fast = _run("hexamesh", 7, 0.5, traffic, equivalent_sim_mode, faults=faults)
        assert legacy == fast

    def test_faulted_final_network_state_matches_legacy(self, equivalent_sim_mode):
        graph = make_arrangement("grid", 9).graph
        faults = _representative_faults(graph, "single-router")
        legacy_net, _ = _run("grid", 9, 0.3, "uniform", "legacy", faults=faults)
        fast_net, _ = _run("grid", 9, 0.3, "uniform", equivalent_sim_mode, faults=faults)
        assert [r.buffered_flits for r in legacy_net.routers] == [
            r.buffered_flits for r in fast_net.routers
        ]
        assert [e.ejected_flits for e in legacy_net.endpoints] == [
            e.ejected_flits for e in fast_net.endpoints
        ]
        fast_net.verify_flit_conservation()

    def test_faulted_topology_shrinks_the_network(self):
        graph = make_arrangement("hexamesh", 7).graph
        faults = _representative_faults(graph, "single-router")
        simulator = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.2, traffic="uniform", faults=faults
        )
        result = simulator.run()
        assert result.num_routers == 6
        assert simulator.network.num_routers == 6

    def test_no_channel_crosses_a_failed_link(self):
        """Packets cannot traverse a failed link: it has no channel at all."""
        graph = make_arrangement("grid", 9).graph
        faults = _representative_faults(graph, "single-link")
        simulator = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.3, traffic="uniform", faults=faults
        )
        simulator.run(engine="vectorized")
        degraded = simulator.degraded_topology
        failed = set(faults.failed_links)
        router_links = {
            degraded.original_edge(first, second)
            for first, second in degraded.graph.edges()
        }
        assert not router_links & failed
        assert all(graph.has_edge(*link) for link in router_links)


class TestVectorizedFastPath:
    def test_early_exit_when_drained(self):
        simulator, result = _result("grid", 9, 0.05, "uniform", "vectorized")
        stats = simulator.last_engine_stats
        assert stats is not None
        assert stats.early_exit_cycle is not None
        assert stats.cycles_executed < result.cycles_simulated
        # The reported horizon stays the configured one regardless.
        total = (
            FAST_CONFIG.warmup_cycles
            + FAST_CONFIG.measurement_cycles
            + FAST_CONFIG.drain_cycles
        )
        assert result.cycles_simulated == total

    def test_router_steps_are_skipped_when_idle(self):
        simulator, _ = _result("grid", 9, 0.05, "uniform", "vectorized")
        stats = simulator.last_engine_stats
        dense_router_steps = stats.cycles_executed * 9
        assert stats.router_steps < dense_router_steps

    def test_endpoint_steps_match_generation_phases(self):
        simulator, _ = _result("grid", 9, 0.05, "uniform", "vectorized")
        stats = simulator.last_engine_stats
        num_endpoints = simulator.network.num_endpoints
        generation_cycles = FAST_CONFIG.warmup_cycles + FAST_CONFIG.measurement_cycles
        # Generation draws run densely through warm-up + measurement (the
        # RNG contract) and never during the drain.
        assert stats.endpoint_steps == generation_cycles * num_endpoints

    def test_direct_engine_snapshots_match_legacy(self):
        graph = make_arrangement("hexamesh", 7).graph
        legacy_net = Network(graph, FAST_CONFIG, injection_rate=0.3)
        legacy = run_legacy_loop(legacy_net, FAST_CONFIG)
        vec_net = Network(graph, FAST_CONFIG, injection_rate=0.3)
        vectorized = VectorizedEngine(vec_net, FAST_CONFIG).run()
        assert legacy.ejected_during_measurement == vectorized.ejected_during_measurement
        assert legacy.injected_during_measurement == vectorized.injected_during_measurement
        assert legacy.total_cycles == vectorized.total_cycles

    def test_network_is_steppable_after_vectorized_run(self):
        """import_state must hand back a fully consistent object model."""
        graph = make_arrangement("grid", 9).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.3)
        VectorizedEngine(network, FAST_CONFIG).run()
        network.verify_flit_conservation()
        # Step the object model a few cycles past the run: a corrupt
        # write-back (bad credits, broken VC states) would trip one of the
        # router/endpoint RuntimeError guards here.
        total = (
            FAST_CONFIG.warmup_cycles
            + FAST_CONFIG.measurement_cycles
            + FAST_CONFIG.drain_cycles
        )
        for cycle in range(total, total + 50):
            network.deliver_channels(cycle)
            network.step_routers(cycle)
        network.verify_flit_conservation()

    def test_channel_target_metadata_covers_all_channels(self):
        graph = make_arrangement("grid", 4).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.1)
        targets = network.channel_targets()
        # Two flit + two credit channels per link, three per endpoint.
        assert len(targets) == 4 * graph.num_edges + 3 * network.num_endpoints
        kinds = {target[0] for _, target in targets}
        assert kinds == {
            "router_flit", "router_credit", "endpoint_flit", "endpoint_credit"
        }
