"""Edge-case equivalence tests for the array kernel.

The numpy array kernel behind ``NocSimulator.run(engine="vectorized")``
and ``NocSimulator.run_batch`` switches between scalar and array paths
by work-set size (`_SCALAR_MAX`, `_ENUM_MAX`, `_VA_TAIL_MAX`), so the
regimes most likely to expose a path divergence are the extremes:
nothing to do at all (empty generation schedules), the smallest legal
topology (two routers), saturated shallow buffers (every VC occupied,
escape-patience churn), and degraded topologies.  Every case asserts
bit-identical results against the legacy reference across the full mode
grid, complementing the fixed-scenario golden fixtures of
``test_golden_traces.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrangements.factory import make_arrangement
from repro.noc.config import SimulationConfig
from repro.resilience import sample_survivable_faults

from sim_modes import FAST_SIM_MODES, simulate_noc


def _nan_to_none(value):
    """NaN-safe comparison shape: empty latency summaries report NaN
    statistics, and NaN never compares equal — not even to itself."""
    if isinstance(value, dict):
        return {key: _nan_to_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_none(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _run(graph, config, rate, mode, *, faults=None):
    """One simulation point; returns the full comparable observation."""
    network, result = simulate_noc(
        graph, config, injection_rate=rate, faults=faults, mode=mode
    )
    network.verify_flit_conservation()
    latencies = sorted(
        packet.latency
        for endpoint in network.endpoints
        for packet in endpoint.ejected_packets
        if packet.measured
    )
    created = sum(endpoint.created_packets for endpoint in network.endpoints)
    return _nan_to_none(asdict(result)), latencies, created


class TestEmptyGenerationSchedule:
    """Zero injection rate: the kernel's cycle loop has no work at all."""

    def test_zero_rate_is_bit_identical_and_silent(self, equivalent_sim_mode):
        config = SimulationConfig(
            warmup_cycles=50, measurement_cycles=100, drain_cycles=200, seed=11
        )
        graph = make_arrangement("hexamesh", 7).graph
        legacy = _run(graph, config, 0.0, "legacy")
        fast = _run(graph, config, 0.0, equivalent_sim_mode)
        assert fast == legacy
        result, latencies, created = fast
        assert created == 0
        assert latencies == []
        assert result["measured_packets_ejected"] == 0
        # No traffic means nothing to drain: every engine must take the
        # same early exit right at the measurement boundary.
        assert result["cycles_simulated"] == legacy[0]["cycles_simulated"]

    def test_zero_rate_packet_size_two(self, equivalent_sim_mode):
        """Multi-flit configs disable the fused injection path; still silent."""
        config = SimulationConfig(
            warmup_cycles=40, measurement_cycles=80, drain_cycles=160,
            packet_size_flits=2, seed=5,
        )
        graph = make_arrangement("grid", 4).graph
        assert _run(graph, config, 0.0, equivalent_sim_mode) == _run(
            graph, config, 0.0, "legacy"
        )


class TestTwoRouterTopology:
    """The minimum topology: one link, ejection-heavy traffic."""

    @pytest.mark.parametrize("rate", [0.05, 0.5, 1.0])
    def test_two_router_grid_matches_legacy(self, equivalent_sim_mode, rate):
        config = SimulationConfig(
            warmup_cycles=50, measurement_cycles=120, drain_cycles=300, seed=3
        )
        graph = make_arrangement("grid", 2).graph
        legacy = _run(graph, config, rate, "legacy")
        assert _run(graph, config, rate, equivalent_sim_mode) == legacy
        assert legacy[0]["measured_packets_ejected"] > 0

    def test_two_router_single_vc(self, equivalent_sim_mode):
        """One VC folds the adaptive and escape classes into one channel."""
        config = SimulationConfig(
            num_virtual_channels=1,
            warmup_cycles=40, measurement_cycles=100, drain_cycles=250, seed=9,
        )
        graph = make_arrangement("grid", 2).graph
        assert _run(graph, config, 0.3, equivalent_sim_mode) == _run(
            graph, config, 0.3, "legacy"
        )


class TestAllVcsOccupiedBackpressure:
    """Saturation with shallow buffers: every VC occupied, credits scarce."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_saturated_shallow_buffers_match_legacy(self, equivalent_sim_mode, depth):
        config = SimulationConfig(
            buffer_depth_flits=depth,
            warmup_cycles=40, measurement_cycles=100, drain_cycles=400, seed=13,
        )
        graph = make_arrangement("hexamesh", 7).graph
        legacy = _run(graph, config, 1.0, "legacy")
        assert _run(graph, config, 1.0, equivalent_sim_mode) == legacy
        assert legacy[0]["measured_packets_ejected"] > 0

    def test_impatient_escape_under_backpressure(self, equivalent_sim_mode):
        """A one-cycle escape patience forces constant escape-path traffic."""
        config = SimulationConfig(
            buffer_depth_flits=2, escape_patience_cycles=1,
            warmup_cycles=40, measurement_cycles=80, drain_cycles=300, seed=21,
        )
        graph = make_arrangement("brickwall", 9).graph
        assert _run(graph, config, 1.0, equivalent_sim_mode) == _run(
            graph, config, 1.0, "legacy"
        )


class TestFaultedTopologies:
    """Degraded topologies route around the damage identically."""

    @pytest.mark.parametrize("link_faults,router_faults", [(2, 0), (1, 1)])
    def test_degraded_hexamesh_matches_legacy(
        self, equivalent_sim_mode, link_faults, router_faults
    ):
        config = SimulationConfig(
            warmup_cycles=50, measurement_cycles=120, drain_cycles=300, seed=17
        )
        graph = make_arrangement("hexamesh", 19).graph
        faults = sample_survivable_faults(
            graph,
            num_link_faults=link_faults,
            num_router_faults=router_faults,
            seed=41,
        )
        legacy = _run(graph, config, 0.2, "legacy", faults=faults)
        assert _run(graph, config, 0.2, equivalent_sim_mode, faults=faults) == legacy
        assert legacy[0]["measured_packets_ejected"] > 0

    def test_faulted_backpressure_combination(self, equivalent_sim_mode):
        """Faults and saturation together: the hardest arbitration regime."""
        config = SimulationConfig(
            buffer_depth_flits=2,
            warmup_cycles=40, measurement_cycles=80, drain_cycles=300, seed=29,
        )
        graph = make_arrangement("hexamesh", 7).graph
        faults = sample_survivable_faults(graph, num_link_faults=1, seed=53)
        assert _run(graph, config, 1.0, equivalent_sim_mode, faults=faults) == _run(
            graph, config, 1.0, "legacy", faults=faults
        )


class TestKernelEdgeProperties:
    """Randomized sweep over the edge regimes (hypothesis)."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["grid", "brickwall", "hexamesh"]),
        count=st.integers(min_value=2, max_value=7),
        rate=st.sampled_from([0.0, 0.1, 1.0]),
        depth=st.sampled_from([1, 2, 8]),
        vcs=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=1, max_value=2**31 - 1),
        mode=st.sampled_from(FAST_SIM_MODES),
    )
    def test_edge_regimes_match_legacy(
        self, kind, count, rate, depth, vcs, seed, mode
    ):
        config = SimulationConfig(
            num_virtual_channels=vcs,
            buffer_depth_flits=depth,
            warmup_cycles=30, measurement_cycles=60, drain_cycles=150,
            seed=seed,
        )
        graph = make_arrangement(kind, count).graph
        assert _run(graph, config, rate, mode) == _run(
            graph, config, rate, "legacy"
        )
