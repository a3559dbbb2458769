"""Unit tests of the batched multi-point machinery and its reset seams.

The cross-engine equivalence of the batched path is covered by the
``equivalent_sim_mode`` grids (``test_noc_engine.py``, ``test_noc_invariants.py``),
the golden traces and the hypothesis properties; this module pins the
component contracts underneath: network/endpoint/router/channel reset,
``NocSimulator.run_batch`` semantics and the :class:`BatchEngine`
lifecycle.
"""

from __future__ import annotations

import pytest

from repro.arrangements.factory import make_arrangement
from repro.noc.channel import Channel
from repro.noc.config import SimulationConfig
from repro.noc.network import Network
from repro.noc.simulator import BatchPoint, NocSimulator
from repro.noc.vec_engine import BatchEngine
from repro.resilience import sample_survivable_faults

FAST_CONFIG = SimulationConfig(
    warmup_cycles=60, measurement_cycles=120, drain_cycles=300
)


class TestBatchPoint:
    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            BatchPoint(1.5)
        with pytest.raises(ValueError):
            BatchPoint(-0.1)

    def test_seed_defaults_to_none(self):
        point = BatchPoint(0.1)
        assert point.seed is None


class TestNetworkReset:
    def _run(self, network, config):
        from repro.noc.engine import run_legacy_loop

        return run_legacy_loop(network, config)

    def test_reset_network_matches_fresh_network(self):
        """A reset network is bit-identical to a freshly built one."""
        graph = make_arrangement("hexamesh", 7).graph
        reused = Network(graph, FAST_CONFIG, injection_rate=0.3)
        self._run(reused, FAST_CONFIG)  # dirty it thoroughly
        reused.reset(seed=11, injection_rate=0.2)
        self._run(reused, FAST_CONFIG)

        fresh_config = SimulationConfig(
            warmup_cycles=60, measurement_cycles=120, drain_cycles=300, seed=11
        )
        fresh = Network(graph, fresh_config, injection_rate=0.2)
        self._run(fresh, fresh_config)

        assert [e.ejected_flits for e in reused.endpoints] == [
            e.ejected_flits for e in fresh.endpoints
        ]
        assert [e.created_packets for e in reused.endpoints] == [
            e.created_packets for e in fresh.endpoints
        ]
        assert [r.buffered_flits for r in reused.routers] == [
            r.buffered_flits for r in fresh.routers
        ]
        assert [r.forwarded_flits for r in reused.routers] == [
            r.forwarded_flits for r in fresh.routers
        ]
        reused_latencies = sorted(
            p.latency for e in reused.endpoints for p in e.ejected_packets if p.measured
        )
        fresh_latencies = sorted(
            p.latency for e in fresh.endpoints for p in e.ejected_packets if p.measured
        )
        assert reused_latencies == fresh_latencies
        reused.verify_flit_conservation()

    def test_reset_updates_seed_in_config(self):
        graph = make_arrangement("grid", 4).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.1)
        network.reset(seed=42)
        assert network.config.seed == 42

    def test_reset_clears_channels_and_counters(self):
        graph = make_arrangement("grid", 4).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.5)
        self._run(network, FAST_CONFIG)
        network.reset()
        assert all(not c.in_flight for c, _ in network.channel_targets())
        assert network.total_created_flits() == 0
        assert network.total_ejected_flits() == 0
        assert all(e.source_queue_length == 0 for e in network.endpoints)

    def test_prebuilt_routing_is_shared_and_validated(self):
        from repro.noc.routing import RoutingTables

        graph = make_arrangement("grid", 9).graph
        routing = RoutingTables(graph)
        network = Network(graph, FAST_CONFIG, injection_rate=0.1, routing=routing)
        assert network.routing is routing
        other = make_arrangement("grid", 4).graph
        with pytest.raises(ValueError, match="routing tables cover"):
            Network(other, FAST_CONFIG, injection_rate=0.1, routing=routing)


class TestChannelSeams:
    def test_clear_drops_in_flight(self):
        channel = Channel(3)
        channel.send("x", 0)
        channel.clear()
        assert channel.in_flight == 0

    def test_load_restores_fifo_order(self):
        channel = Channel(3)
        channel.load([(5, "a"), (6, "b")])
        assert channel.pending() == ((5, "a"), (6, "b"))
        assert channel.receive(5) == ["a"]
        assert channel.receive(6) == ["b"]


class TestRunBatch:
    def test_empty_points_return_empty(self):
        graph = make_arrangement("grid", 4).graph
        assert NocSimulator.run_batch(graph, [], config=FAST_CONFIG) == []

    def test_single_point_matches_simulator(self):
        graph = make_arrangement("grid", 9).graph
        expected = NocSimulator(graph, FAST_CONFIG, injection_rate=0.2).run(
            engine="legacy"
        )
        (result,) = NocSimulator.run_batch(
            graph, [BatchPoint(0.2)], config=FAST_CONFIG
        )
        assert result == expected

    def test_legacy_engine_shares_routing_and_matches(self):
        graph = make_arrangement("grid", 9).graph
        rates = (0.1, 0.4)
        expected = [
            NocSimulator(graph, FAST_CONFIG, injection_rate=rate).run(engine="legacy")
            for rate in rates
        ]
        batched = NocSimulator.run_batch(
            graph, [BatchPoint(rate) for rate in rates],
            config=FAST_CONFIG, engine="legacy",
        )
        assert batched == expected

    def test_invalid_engine_rejected(self):
        graph = make_arrangement("grid", 4).graph
        with pytest.raises(ValueError):
            NocSimulator.run_batch(
                graph, [BatchPoint(0.1)], config=FAST_CONFIG, engine="warp-speed"
            )

    def test_faults_applied_once_and_shared(self):
        graph = make_arrangement("hexamesh", 7).graph
        faults = sample_survivable_faults(graph, num_router_faults=1, seed=5)
        seen = []

        def capture(index, network, result):
            seen.append(network)

        results = NocSimulator.run_batch(
            graph,
            [BatchPoint(0.1), BatchPoint(0.3)],
            config=FAST_CONFIG,
            faults=faults,
            on_point=capture,
        )
        # All points ran on the same degraded network instance.
        assert seen[0] is seen[1]
        assert all(result.num_routers == 6 for result in results)
        expected = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.3, faults=faults
        ).run(engine="legacy")
        assert results[1] == expected

    def test_on_point_receives_points_in_order(self):
        graph = make_arrangement("grid", 4).graph
        order = []

        def capture(index, network, result):
            order.append((index, result.injection_rate))

        NocSimulator.run_batch(
            graph,
            [BatchPoint(0.05), BatchPoint(0.2), BatchPoint(0.1)],
            config=FAST_CONFIG,
            on_point=capture,
        )
        assert order == [(0, 0.05), (1, 0.2), (2, 0.1)]

    def test_network_is_usable_after_batch(self):
        """After run_batch the network is fully handed back (channels, state)."""
        graph = make_arrangement("grid", 9).graph
        captured = {}

        def capture(index, network, result):
            captured["network"] = network

        NocSimulator.run_batch(
            graph, [BatchPoint(0.3)], config=FAST_CONFIG, on_point=capture
        )
        network = captured["network"]
        # Endpoint injection channels were restored to the real Channel
        # objects (the batch emitters are detached on close).
        assert all(
            isinstance(endpoint.out_channel, Channel)
            for endpoint in network.endpoints
        )
        network.verify_flit_conservation()
        # The object model is steppable past the run.
        total = (
            FAST_CONFIG.warmup_cycles
            + FAST_CONFIG.measurement_cycles
            + FAST_CONFIG.drain_cycles
        )
        for cycle in range(total, total + 30):
            network.deliver_channels(cycle)
            network.step_routers(cycle)
        network.verify_flit_conservation()


class TestBatchEngineLifecycle:
    def test_closed_engine_rejects_further_points(self):
        graph = make_arrangement("grid", 4).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.1)
        engine = BatchEngine(network, FAST_CONFIG)
        engine.run_point(seed=1, injection_rate=0.1)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run_point(seed=1, injection_rate=0.1)

    def test_close_is_idempotent_and_restores_channels(self):
        graph = make_arrangement("grid", 4).graph
        network = Network(graph, FAST_CONFIG, injection_rate=0.1)
        originals = [endpoint.out_channel for endpoint in network.endpoints]
        engine = BatchEngine(network, FAST_CONFIG)
        assert [e.out_channel for e in network.endpoints] != originals
        engine.close()
        engine.close()
        assert [e.out_channel for e in network.endpoints] == originals
