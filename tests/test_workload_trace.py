"""Trace-driven traffic: determinism, engine equivalence and sweep integration."""

from __future__ import annotations

import math
import random

import pytest

from repro.arrangements.factory import make_arrangement
from repro.core.explorer import DesignSpaceExplorer
from repro.core.parallel import ParallelSweepRunner, SweepCandidate, resolve_workload_candidate
from repro.noc.config import SimulationConfig
from repro.noc.traffic import BernoulliInjection, UniformRandomTraffic
from repro.workloads import (
    TraceTraffic,
    build_endpoint_demands,
    make_workload,
    map_workload,
    simulate_workload,
    task_endpoints,
    trace_traffic_for,
)

FAST_CONFIG = SimulationConfig(
    warmup_cycles=100, measurement_cycles=200, drain_cycles=400
)


def _mapped(kind="dnn-pipeline", arrangement="hexamesh", count=7, mapper="partition"):
    graph = make_arrangement(arrangement, count).graph
    workload = make_workload(kind, num_tasks=count)
    mapping = map_workload(mapper, workload, graph)
    return graph, workload, mapping


class TestTraceTraffic:
    def test_rejects_degenerate_demands(self):
        with pytest.raises(ValueError):
            TraceTraffic(4, {})
        with pytest.raises(ValueError):
            TraceTraffic(4, {(0, 0): 1})
        with pytest.raises(ValueError):
            TraceTraffic(4, {(0, 9): 1})
        with pytest.raises(ValueError):
            TraceTraffic(4, {(0, 1): 0})
        with pytest.raises(ValueError):
            TraceTraffic(4, {(0, 1): 1.5})

    def test_schedule_proportions_and_interleaving(self):
        traffic = TraceTraffic(4, {(0, 1): 3, (0, 2): 1})
        schedule = traffic.schedule_of(0)
        assert len(schedule) == 4
        assert schedule.count(1) == 3
        assert schedule.count(2) == 1
        # Smooth interleave: the light destination is not pushed to the end.
        assert schedule[0] == 1

    def test_destinations_ignore_rng(self):
        first = TraceTraffic(6, {(0, 1): 2, (0, 5): 1, (3, 2): 4})
        second = TraceTraffic(6, {(0, 1): 2, (0, 5): 1, (3, 2): 4})
        rng_a, rng_b = random.Random(1), random.Random(999)
        sequence_a = [first.destination(0, rng_a) for _ in range(12)]
        sequence_b = [second.destination(0, rng_b) for _ in range(12)]
        assert sequence_a == sequence_b

    def test_silent_sources_are_scaled_to_zero(self):
        traffic = TraceTraffic(4, {(0, 1): 2})
        assert traffic.injection_rate_scale(0) == 1.0
        assert traffic.injection_rate_scale(2) == 0.0
        assert traffic.active_sources() == [0]
        with pytest.raises(RuntimeError):
            traffic.destination(2, random.Random(0))

    def test_rate_scales_follow_traffic_shares(self):
        traffic = TraceTraffic(4, {(0, 1): 4, (1, 0): 2, (2, 3): 1})
        assert traffic.injection_rate_scale(0) == pytest.approx(1.0)
        assert traffic.injection_rate_scale(1) == pytest.approx(0.5)
        assert traffic.injection_rate_scale(2) == pytest.approx(0.25)

    def test_schedule_slot_cap(self):
        demands = {(0, destination): 50 for destination in range(1, 9)}
        traffic = TraceTraffic(9, demands, max_schedule_slots=16)
        schedule = traffic.schedule_of(0)
        assert len(schedule) <= 16
        assert set(schedule) == set(range(1, 9))  # nobody starved

    def test_reset_rewinds_cursors(self):
        traffic = TraceTraffic(4, {(0, 1): 1, (0, 2): 1})
        rng = random.Random(0)
        first = [traffic.destination(0, rng) for _ in range(3)]
        traffic.reset()
        second = [traffic.destination(0, rng) for _ in range(3)]
        assert first == second


class TestEndpointLowering:
    def test_tasks_spread_over_chiplet_endpoints(self):
        graph, workload, mapping = _mapped(count=7)
        endpoints = task_endpoints(workload, mapping, endpoints_per_chiplet=2)
        for task_id, endpoint in endpoints.items():
            chiplet = mapping.chiplet_of(task_id)
            assert endpoint // 2 == chiplet
        # Two tasks on one chiplet land on distinct endpoints.
        by_chiplet: dict[int, set[int]] = {}
        for task_id, endpoint in endpoints.items():
            by_chiplet.setdefault(mapping.chiplet_of(task_id), set()).add(endpoint)
        for chiplet, used in by_chiplet.items():
            expected = min(2, len(mapping.tasks_on(chiplet)))
            assert len(used) == expected

    def test_demands_drop_co_endpoint_edges(self):
        graph = make_arrangement("grid", 4).graph
        workload = make_workload("dnn-pipeline", num_tasks=4, traffic_flits=5)
        from repro.workloads.mapping import WorkloadMapping

        # All four tasks on chiplet 0 with two endpoints: tasks 0,2 share
        # endpoint 0 and tasks 1,3 share endpoint 1.
        mapping = WorkloadMapping({0: 0, 1: 0, 2: 0, 3: 0}, num_chiplets=4)
        demands = build_endpoint_demands(workload, mapping, endpoints_per_chiplet=2)
        assert demands == {(0, 1): 10, (1, 0): 5}


class TestInjectionScaling:
    def test_scaled_injection_process(self):
        injection = BernoulliInjection(0.4, 2)
        half = injection.scaled(0.5)
        assert half.flit_rate == pytest.approx(0.2)
        assert injection.scaled(1.0) is injection
        silent = injection.scaled(0.0)
        assert not silent.should_inject(random.Random(0))
        with pytest.raises(ValueError):
            injection.scaled(1.5)

    def test_synthetic_patterns_keep_unit_scale(self):
        pattern = UniformRandomTraffic(8)
        assert all(pattern.injection_rate_scale(source) == 1.0 for source in range(8))


class TestWorkloadSimulation:
    @pytest.mark.parametrize("kind", ("dnn-pipeline", "client-server", "stencil"))
    def test_engines_are_bit_identical(self, kind):
        graph, workload, mapping = _mapped(kind=kind)
        fast = simulate_workload(
            graph, workload, mapping, config=FAST_CONFIG, injection_rate=0.2,
            engine="vectorized",
        )
        legacy = simulate_workload(
            graph, workload, mapping, config=FAST_CONFIG, injection_rate=0.2,
            engine="legacy",
        )
        assert fast.simulation == legacy.simulation
        assert fast.edge_latencies == legacy.edge_latencies
        assert fast.makespan_proxy_cycles == legacy.makespan_proxy_cycles

    def test_application_metrics_are_populated(self):
        graph, workload, mapping = _mapped(count=9, arrangement="grid")
        result = simulate_workload(
            graph, workload, mapping, config=FAST_CONFIG, injection_rate=0.2
        )
        assert result.workload_name == "dnn-pipeline"
        assert result.mapper == "partition"
        assert result.num_tasks == 9
        assert result.simulation.measured_packets_created > 0
        assert result.cost.total_traffic_flits == workload.total_traffic_flits
        assert math.isfinite(result.makespan_proxy_cycles)
        assert result.makespan_proxy_cycles > workload.critical_path_weight()
        assert len(result.edge_latencies) == workload.num_edges
        measured = [e for e in result.edge_latencies if e.measured_packets > 0]
        assert measured, "no edge recorded measured packets"
        for edge in measured:
            assert edge.mean_latency_cycles > 0
        assert result.mean_edge_latency_cycles > 0

    def test_runs_are_deterministic(self):
        graph, workload, mapping = _mapped(kind="all-reduce")
        first = simulate_workload(graph, workload, mapping, config=FAST_CONFIG)
        second = simulate_workload(graph, workload, mapping, config=FAST_CONFIG)
        assert first.simulation == second.simulation
        assert first.edge_latencies == second.edge_latencies

    def test_reused_pattern_instance_stays_deterministic(self):
        """Network construction rewinds trace cursors, so sharing one
        TraceTraffic instance across simulator instances cannot leak
        schedule progress from one run into the next."""
        from repro.noc.simulator import NocSimulator

        graph, workload, mapping = _mapped(count=7)
        traffic = trace_traffic_for(workload, mapping, endpoints_per_chiplet=2)
        first = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.2, traffic=traffic
        ).run(engine="legacy")
        second = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.2, traffic=traffic
        ).run(engine="vectorized")
        third = NocSimulator(
            graph, FAST_CONFIG, injection_rate=0.2, traffic=traffic
        ).run(engine="vectorized")
        assert first == second == third


class TestSweepIntegration:
    GRID = ParallelSweepRunner.workload_grid(
        ["hexamesh", "grid"], [7, 9], ["dnn-pipeline", "all-reduce"],
        ["partition", "round-robin"],
    )

    def test_workload_grid_shape_and_labels(self):
        assert len(self.GRID) == 2 * 2 * 2 * 2
        labels = {candidate.label for candidate in self.GRID}
        assert "hexamesh-7 @0.1 [dnn-pipeline/partition]" in labels
        for candidate in self.GRID:
            params = dict(candidate.workload_params)
            assert params["num_tasks"] >= 2

    def test_workload_grid_rejects_too_small_num_tasks(self):
        """Explicit --tasks below a generator's minimum fails fast."""
        with pytest.raises(ValueError, match="at least 3 tasks"):
            ParallelSweepRunner.workload_grid(
                ["grid"], [4], ["fork-join"], ["round-robin"], num_tasks=2
            )
        # The default (None) still clamps tiny topologies up to the minimum.
        grid = ParallelSweepRunner.workload_grid(
            ["grid"], [2], ["fork-join"], ["round-robin"]
        )
        assert dict(grid[0].workload_params)["num_tasks"] == 3

    def test_workload_fields_require_workload(self):
        with pytest.raises(ValueError):
            SweepCandidate(kind="grid", num_chiplets=4, injection_rate=0.1,
                           mapper="greedy")
        with pytest.raises(ValueError):
            SweepCandidate(kind="grid", num_chiplets=4, injection_rate=0.1,
                           workload_params=(("num_tasks", 4),))

    def test_synthetic_key_dicts_are_unchanged(self):
        """Workload fields must not perturb existing cache keys / seeds."""
        candidate = SweepCandidate(kind="grid", num_chiplets=4, injection_rate=0.1)
        assert set(candidate.key_dict()) == {
            "kind", "num_chiplets", "injection_rate", "traffic", "regularity",
            "graph_edges",
        }
        workload_candidate = SweepCandidate(
            kind="grid", num_chiplets=4, injection_rate=0.1,
            workload="dnn-pipeline",
        )
        assert workload_candidate.key_dict()["mapper"] == "partition"

    def test_jobs_and_engines_agree(self):
        config = SimulationConfig(warmup_cycles=50, measurement_cycles=100,
                                  drain_cycles=200)
        serial = ParallelSweepRunner(config, jobs=1).run(self.GRID)
        parallel = ParallelSweepRunner(config, jobs=2).run(self.GRID)
        assert serial == parallel
        legacy = ParallelSweepRunner(config, jobs=2, engine="legacy").run(self.GRID)
        assert [r.result for r in serial] == [r.result for r in legacy]
        vectorized = ParallelSweepRunner(config, jobs=2, engine="vectorized").run(self.GRID)
        assert [r.result for r in serial] == [r.result for r in vectorized]

    def test_cache_round_trip(self, tmp_path):
        config = SimulationConfig(warmup_cycles=50, measurement_cycles=100,
                                  drain_cycles=200)
        grid = self.GRID[:4]
        first = ParallelSweepRunner(config, cache_dir=tmp_path).run(grid)
        second = ParallelSweepRunner(config, cache_dir=tmp_path).run(grid)
        assert [r.result for r in first] == [r.result for r in second]
        assert all(record.from_cache for record in second)

    def test_resolve_workload_candidate_round_trip(self):
        candidate = self.GRID[0]
        config = SimulationConfig()
        graph, workload, mapping, traffic = resolve_workload_candidate(
            candidate, config
        )
        assert graph.num_nodes == candidate.num_chiplets
        assert workload.name == candidate.workload
        assert mapping.mapper == candidate.effective_mapper
        assert traffic.num_endpoints == (
            candidate.num_chiplets * config.endpoints_per_chiplet
        )
        plain = SweepCandidate(kind="grid", num_chiplets=4, injection_rate=0.1)
        with pytest.raises(ValueError):
            resolve_workload_candidate(plain, config)


class TestExplorerIntegration:
    def test_evaluate_workloads_records_and_ranking(self):
        explorer = DesignSpaceExplorer(kinds=("grid", "hexamesh"))
        records = explorer.evaluate_workloads(
            [7, 9], ["dnn-pipeline"], mappers=("partition", "round-robin")
        )
        assert len(records) == 2 * 2 * 1 * 2
        assert explorer.workload_records == records
        ranked = explorer.rank_workloads("weighted-hops")
        hops = [record.weighted_hop_count for record in ranked]
        assert hops == sorted(hops)
        by_load = explorer.rank_workloads("max-link-load")
        loads = [record.max_link_load for record in by_load]
        assert loads == sorted(loads)

    def test_evaluate_workloads_parallel_matches_serial(self):
        serial = DesignSpaceExplorer(kinds=("grid",)).evaluate_workloads(
            [7, 9, 12], ["stencil", "fork-join"], mappers=("greedy",)
        )
        parallel = DesignSpaceExplorer(kinds=("grid",)).evaluate_workloads(
            [7, 9, 12], ["stencil", "fork-join"], mappers=("greedy",), jobs=2
        )
        assert serial == parallel

    def test_evaluate_workloads_validates_names(self):
        explorer = DesignSpaceExplorer(kinds=("grid",))
        with pytest.raises(ValueError):
            explorer.evaluate_workloads([4], ["not-a-workload"])
        with pytest.raises(ValueError):
            explorer.evaluate_workloads([4], ["stencil"], mappers=("magic",))
