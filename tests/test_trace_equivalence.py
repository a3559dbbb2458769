"""Cross-engine telemetry equality: traces and metric series.

The canonical flit-lifecycle event stream and the per-cycle metric
series are *bit-identical artifacts* across every simulation mode under
a fixed seed — a far sharper correctness check than comparing final
latency histograms, because a single mis-ordered grant or a one-cycle
drift anywhere in a run shows up as a differing event tuple.  Every mode
in ``EQUIVALENT_SIM_MODES`` (including both batched paths) is compared against
the legacy dense loop, across load regimes that exercise the scalar and
vectorized kernel paths, multi-flit packets and early-exit padding.
"""

from __future__ import annotations

import pytest

from repro.noc.config import SimulationConfig
from repro.telemetry import (
    TRACE_KINDS,
    FlitTracer,
    MetricsCollector,
    SERIES_NAMES,
    TelemetrySession,
)

from sim_modes import simulate_noc


def _observed(graph, config, mode, **kwargs):
    """Run one observed point; return ``(session, result)``."""
    session = TelemetrySession(metrics=MetricsCollector(), tracer=FlitTracer())
    _, result = simulate_noc(graph, config, mode=mode, telemetry=session, **kwargs)
    return session, result


def _assert_equal_observation(reference, observed):
    ref_session, ref_result = reference
    session, result = observed
    assert session.tracer.canonical_events() == ref_session.tracer.canonical_events()
    assert session.metrics.series() == ref_session.metrics.series()
    assert result == ref_result


class TestTraceEquivalence:
    def test_moderate_load(self, small_hexamesh, fast_sim_config, equivalent_sim_mode):
        reference = _observed(small_hexamesh.graph, fast_sim_config, "legacy")
        observed = _observed(small_hexamesh.graph, fast_sim_config, equivalent_sim_mode)
        _assert_equal_observation(reference, observed)

    def test_overload(self, small_hexamesh, fast_sim_config, equivalent_sim_mode):
        # Saturation drives the kernel onto its vectorized VA/SA paths
        # (batch sizes above the scalar cutoffs) and fills the ejection
        # backlog, so the deferred eject events matter here.
        reference = _observed(
            small_hexamesh.graph, fast_sim_config, "legacy", injection_rate=0.6
        )
        observed = _observed(
            small_hexamesh.graph, fast_sim_config, equivalent_sim_mode, injection_rate=0.6
        )
        _assert_equal_observation(reference, observed)

    def test_multi_flit_packets(self, small_hexamesh, equivalent_sim_mode):
        # Multi-flit packets leave the kernel's fused fast-inject path,
        # so the endpoint probe seam records the inject events instead.
        config = SimulationConfig(
            warmup_cycles=100,
            measurement_cycles=300,
            drain_cycles=800,
            packet_size_flits=4,
        )
        reference = _observed(
            small_hexamesh.graph, config, "legacy", injection_rate=0.1
        )
        observed = _observed(
            small_hexamesh.graph, config, equivalent_sim_mode, injection_rate=0.1
        )
        _assert_equal_observation(reference, observed)

    def test_near_idle_early_exit_padding(
        self, medium_hexamesh, fast_sim_config, equivalent_sim_mode
    ):
        # At near-idle load the engines exit the drain phase early; the
        # collectors must pad their series to the configured horizon
        # identically for the per-cycle comparison to hold.
        reference = _observed(
            medium_hexamesh.graph, fast_sim_config, "legacy", injection_rate=0.01
        )
        observed = _observed(
            medium_hexamesh.graph, fast_sim_config, equivalent_sim_mode, injection_rate=0.01
        )
        _assert_equal_observation(reference, observed)
        session, _ = observed
        total = (
            fast_sim_config.warmup_cycles
            + fast_sim_config.measurement_cycles
            + fast_sim_config.drain_cycles
        )
        assert session.metrics.total_cycles == total
        assert session.metrics.cycles_recorded == total

    def test_staged_pipeline(self, small_hexamesh, fast_sim_config, equivalent_sim_mode):
        # The explicit RC/VA/SA pipeline changes every grant timestamp,
        # so its event streams must still agree bit-for-bit across modes
        # (each compared against the staged legacy reference).
        from dataclasses import replace

        config = replace(fast_sim_config, router_pipeline="staged")
        reference = _observed(small_hexamesh.graph, config, "legacy")
        observed = _observed(small_hexamesh.graph, config, equivalent_sim_mode)
        _assert_equal_observation(reference, observed)

    def test_observation_does_not_change_results(
        self, small_hexamesh, fast_sim_config, sim_mode
    ):
        _, plain = simulate_noc(small_hexamesh.graph, fast_sim_config, mode=sim_mode)
        _, observed = _observed(small_hexamesh.graph, fast_sim_config, sim_mode)
        assert observed == plain


class TestTraceLifecycleInvariants:
    @pytest.fixture()
    def session(self, small_hexamesh, fast_sim_config, sim_mode):
        session, _ = _observed(small_hexamesh.graph, fast_sim_config, sim_mode)
        return session

    def test_every_flit_lifecycle_is_well_formed(self, session):
        inject = TRACE_KINDS.index("inject")
        eject = TRACE_KINDS.index("eject")
        by_flit: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for cycle, packet, flit, kind, _node, _port, _vc in session.tracer.events:
            by_flit.setdefault((packet, flit), []).append((cycle, kind))
        assert by_flit, "the run recorded no events"
        for (packet, flit), steps in by_flit.items():
            kinds = [kind for _, kind in sorted(steps)]
            assert kinds[0] == inject, (packet, flit)
            assert kinds.count(inject) == 1
            assert kinds.count(eject) <= 1
            if eject in kinds:
                assert kinds[-1] == eject, (packet, flit)

    def test_metrics_flow_conservation(self, session):
        metrics = session.metrics
        # Every series covers the same horizon.
        lengths = {name: len(series) for name, series in metrics.series().items()}
        assert len(set(lengths.values())) == 1, lengths
        assert set(metrics.series()) == set(SERIES_NAMES)
        # In-flight is the running sum of injections minus ejections and
        # can never go negative; a fully drained run ends at zero.
        assert min(metrics.in_flight) >= 0
        assert metrics.in_flight[-1] == 0
        assert metrics.buffer_occupancy[-1] == 0
