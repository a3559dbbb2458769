"""Functional tests of the cycle-accurate simulator."""

import pytest

from repro.arrangements.factory import make_arrangement
from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator
from repro.noc.stats import LatencyStatistics, ThroughputStatistics
from repro.noc.sweep import ZERO_LOAD_INJECTION_RATE, run_injection_sweep
from repro.perfmodel.latency import zero_load_latency_cycles


def _config(**overrides):
    defaults = dict(warmup_cycles=200, measurement_cycles=500, drain_cycles=1200)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestStatisticsContainers:
    def test_latency_statistics_from_samples(self):
        stats = LatencyStatistics.from_samples([10, 20, 30, 40, 50])
        assert stats.count == 5
        assert stats.mean == pytest.approx(30.0)
        assert stats.median == pytest.approx(30.0)
        assert stats.minimum == 10
        assert stats.maximum == 50

    def test_empty_latency_statistics(self):
        stats = LatencyStatistics.from_samples([])
        assert stats.is_empty
        assert stats.count == 0

    def test_throughput_statistics_ratios(self):
        stats = ThroughputStatistics(
            offered_flit_rate=0.2,
            accepted_flit_rate=0.19,
            injected_flits=100,
            ejected_flits=95,
            measurement_cycles=500,
            num_endpoints=10,
        )
        assert stats.acceptance_ratio == pytest.approx(0.95)
        assert stats.is_stable

    def test_zero_offered_rate_is_stable(self):
        stats = ThroughputStatistics(0.0, 0.0, 0, 0, 100, 4)
        assert stats.acceptance_ratio == 1.0


class TestZeroLoadLatency:
    @pytest.mark.parametrize("kind,count", [("grid", 9), ("hexamesh", 7)])
    def test_simulated_latency_matches_analytical_model(self, kind, count):
        graph = make_arrangement(kind, count).graph
        config = _config(measurement_cycles=1500)
        result = NocSimulator(graph, config, injection_rate=0.03).run()
        expected = zero_load_latency_cycles(graph, config)
        assert result.packet_latency.mean == pytest.approx(expected, rel=0.06)

    def test_two_chiplet_design(self):
        graph = ChipGraph(edges=[(0, 1)])
        config = _config(measurement_cycles=3000)
        result = NocSimulator(graph, config, injection_rate=0.05).run()
        # Endpoint pairs: same chiplet (5 cycles) and adjacent chiplet (35);
        # with only four endpoints the sample mix is noisy, hence the loose
        # tolerance.
        expected = zero_load_latency_cycles(graph, config)
        assert result.packet_latency.mean == pytest.approx(expected, rel=0.15)

    def test_hexamesh_has_lower_latency_than_grid(self):
        config = _config()
        grid = NocSimulator(
            make_arrangement("grid", 16).graph, config, injection_rate=0.02
        ).run()
        hexamesh = NocSimulator(
            make_arrangement("hexamesh", 19).graph, config, injection_rate=0.02
        ).run()
        # 19 HexaMesh chiplets vs 16 grid chiplets: still lower latency.
        assert hexamesh.packet_latency.mean < grid.packet_latency.mean

    def test_network_latency_excludes_source_queueing(self):
        graph = make_arrangement("grid", 4).graph
        result = NocSimulator(graph, _config(), injection_rate=0.05).run()
        assert result.network_latency.mean <= result.packet_latency.mean


class TestLatencyLoadBehaviour:
    def test_latency_increases_with_load(self):
        graph = make_arrangement("grid", 9).graph
        config = _config()
        low = NocSimulator(graph, config, injection_rate=0.05).run()
        high = NocSimulator(graph, config, injection_rate=0.3).run()
        assert high.packet_latency.mean > low.packet_latency.mean

    def test_accepted_tracks_offered_below_saturation(self):
        graph = make_arrangement("hexamesh", 7).graph
        result = NocSimulator(graph, _config(), injection_rate=0.1).run()
        assert result.throughput.acceptance_ratio == pytest.approx(1.0, abs=0.08)

    def test_accepted_saturates_above_capacity(self):
        graph = make_arrangement("grid", 9).graph
        result = NocSimulator(graph, _config(drain_cycles=0), injection_rate=1.0).run()
        assert result.accepted_flit_rate < 0.9


class TestSimulatorConfigurationEffects:
    def test_single_virtual_channel_still_works(self):
        graph = make_arrangement("grid", 9).graph
        config = _config(num_virtual_channels=1)
        result = NocSimulator(graph, config, injection_rate=0.02).run()
        assert result.measured_delivery_ratio == pytest.approx(1.0, abs=0.01)

    def test_multi_flit_packets(self):
        graph = make_arrangement("grid", 4).graph
        config = _config(packet_size_flits=4)
        result = NocSimulator(graph, config, injection_rate=0.05).run()
        assert result.measured_delivery_ratio == pytest.approx(1.0, abs=0.02)
        # Serialisation adds (size - 1) cycles to the zero-load latency.
        expected = zero_load_latency_cycles(graph, config)
        assert result.packet_latency.mean == pytest.approx(expected, rel=0.1)

    def test_link_latency_dominates_zero_load_latency(self):
        graph = make_arrangement("grid", 9).graph
        short = NocSimulator(
            graph, _config(link_latency_cycles=1), injection_rate=0.02
        ).run()
        long = NocSimulator(
            graph, _config(link_latency_cycles=27), injection_rate=0.02
        ).run()
        assert long.packet_latency.mean > short.packet_latency.mean + 20

    def test_different_traffic_patterns_run(self):
        graph = make_arrangement("grid", 9).graph
        for pattern in ("uniform", "neighbor", "tornado", "bitcomplement"):
            result = NocSimulator(
                graph, _config(), injection_rate=0.05, traffic=pattern
            ).run()
            assert result.measured_packets_ejected > 0

    def test_deterministic_given_seed(self):
        graph = make_arrangement("hexamesh", 7).graph
        config = _config(seed=7)
        first = NocSimulator(graph, config, injection_rate=0.1).run()
        second = NocSimulator(graph, config, injection_rate=0.1).run()
        assert first.packet_latency.mean == second.packet_latency.mean
        assert first.throughput.ejected_flits == second.throughput.ejected_flits

    def test_invalid_injection_rate_rejected(self):
        graph = make_arrangement("grid", 4).graph
        with pytest.raises(ValueError):
            NocSimulator(graph, _config(), injection_rate=1.5)


class TestStagedPipeline:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="router_pipeline"):
            _config(router_pipeline="superscalar")

    def test_staged_flag_and_default(self):
        assert not _config().is_staged_pipeline
        assert _config(router_pipeline="staged").is_staged_pipeline

    def test_staged_pipeline_has_emergent_per_hop_depth(self):
        # The explicit pipeline's depth *emerges* from its stages: RC in
        # the arrival cycle, VA one cycle later, SA another cycle later —
        # a head departs two cycles after arrival regardless of
        # ``router_latency_cycles``.  Pin that from both sides: it beats
        # the default single-stage model (3-cycle eligibility delay) and
        # loses to an aggressive 1-cycle single-stage router.
        graph = make_arrangement("grid", 9).graph
        staged = NocSimulator(
            graph, _config(router_pipeline="staged"), injection_rate=0.02
        ).run()
        assert staged.measured_delivery_ratio == pytest.approx(1.0, abs=0.02)
        single_default = NocSimulator(graph, _config(), injection_rate=0.02).run()
        assert staged.packet_latency.mean < single_default.packet_latency.mean - 1.0
        single_fast = NocSimulator(
            graph, _config(router_latency_cycles=1), injection_rate=0.02
        ).run()
        assert staged.packet_latency.mean > single_fast.packet_latency.mean + 1.0

    def test_staged_pipeline_is_deterministic(self):
        graph = make_arrangement("hexamesh", 7).graph
        config = _config(seed=7, router_pipeline="staged")
        first = NocSimulator(graph, config, injection_rate=0.1).run()
        second = NocSimulator(graph, config, injection_rate=0.1).run()
        assert first == second


class TestSweepHelpers:
    def test_zero_load_helper(self):
        graph = make_arrangement("grid", 4).graph
        sweep = run_injection_sweep(graph, _config(), rates=(ZERO_LOAD_INJECTION_RATE,))
        assert sweep.mean_latencies[0] > 0

    def test_injection_sweep_monotone_offered_rates(self):
        graph = make_arrangement("grid", 4).graph
        sweep = run_injection_sweep(graph, _config(), rates=(0.05, 0.2, 0.6))
        assert len(sweep.results) == 3
        assert sweep.saturation_throughput >= sweep.accepted_rates[0]
        assert len(sweep.stable_points()) >= 1

    def test_saturation_overload_method(self):
        # A sweep at full injection rate reads the curve's plateau in one run.
        graph = make_arrangement("hexamesh", 7).graph
        overload = run_injection_sweep(graph, _config(drain_cycles=0), rates=(1.0,))
        assert 0.1 < overload.saturation_throughput <= 1.0
        assert overload.results[0].injection_rate == pytest.approx(1.0)

    def test_saturation_sweep_method(self):
        graph = make_arrangement("grid", 4).graph
        sweep = run_injection_sweep(graph, _config(drain_cycles=0), rates=(0.1, 0.4, 0.9))
        overload = run_injection_sweep(graph, _config(drain_cycles=0), rates=(1.0,))
        assert sweep.saturation_throughput == max(sweep.accepted_rates)
        # The overload estimate reads the curve's plateau, which no
        # low-load point exceeds.
        assert overload.saturation_throughput >= sweep.accepted_rates[0]
