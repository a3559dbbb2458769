"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
import string

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.arrangements.factory import available_regularities, make_arrangement
from repro.core.explorer import DesignSpaceExplorer, ExplorationRecord
from repro.geometry.adjacency import shared_edges
from repro.graphs.analytical import bisection_bandwidth_formula, diameter_formula
from repro.graphs.metrics import (
    average_distance,
    degree_statistics,
    diameter,
    is_connected,
    planar_average_degree_bound,
    radius,
)
from repro.linkmodel.bandwidth import data_wires, link_bandwidth_bps, wire_count
from repro.linkmodel.shape import solve_grid_shape, solve_hex_shape
from repro.noc.config import SimulationConfig
from repro.noc.faults import FaultedTopologyError
from repro.noc.simulator import BatchPoint, NocSimulator
from repro.partition.common import cut_size, is_balanced
from repro.noc.engine import ENGINE_NAMES
from repro.noc.traffic import available_traffic_patterns
from repro.resilience import sample_survivable_faults
from repro.resilience.sweep import FAULT_TYPES
from repro.partition.estimator import find_best_bisection
from repro.service.specs import (
    ARRANGEMENT_KINDS,
    FIGURE7_MODES,
    JOB_TYPES,
    REGULARITIES,
    job_spec,
)
from repro.utils.mathutils import hexamesh_chiplet_count, is_hexamesh_count
from repro.workloads import available_mappers, available_workloads

from sim_modes import FAST_SIM_MODES, simulate_noc

# Hypothesis strategies shared by several properties.
chiplet_counts = st.integers(min_value=2, max_value=60)
arrangement_kinds = st.sampled_from(["grid", "brickwall", "hexamesh"])
all_arrangement_kinds = st.sampled_from(["grid", "brickwall", "honeycomb", "hexamesh"])
areas = st.floats(min_value=0.5, max_value=900.0, allow_nan=False, allow_infinity=False)
power_fractions = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestArrangementProperties:
    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_arrangements_are_connected_planar_and_sized(self, kind, count):
        arrangement = make_arrangement(kind, count)
        graph = arrangement.graph
        assert graph.num_nodes == count
        assert is_connected(graph)
        # Planarity implies e <= 3v - 6 for v >= 3.
        if count >= 3:
            assert graph.num_edges <= 3 * count - 6
            assert degree_statistics(graph).average <= planar_average_degree_bound(count)

    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_geometric_adjacency_equals_lattice_adjacency(self, kind, count):
        arrangement = make_arrangement(kind, count)
        geometric = {(a, b) for a, b, _ in shared_edges(arrangement.placement)}
        lattice = {tuple(sorted(edge)) for edge in arrangement.graph.edges()}
        assert geometric == lattice

    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_placements_never_overlap(self, kind, count):
        arrangement = make_arrangement(kind, count)
        assert not arrangement.placement.has_overlaps()

    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_every_available_regularity_is_constructible(self, kind, count):
        for regularity in available_regularities(kind, count):
            arrangement = make_arrangement(kind, count, regularity)
            assert arrangement.regularity is regularity
            assert arrangement.num_chiplets == count

    @_SETTINGS
    @given(count=chiplet_counts)
    def test_hexamesh_min_degree_invariant(self, count):
        arrangement = make_arrangement("hexamesh", count)
        stats = degree_statistics(arrangement.graph)
        if count >= 7 and is_hexamesh_count(count):
            assert stats.minimum >= 3
        elif count >= 3:
            assert stats.minimum >= 2

    @_SETTINGS
    @given(count=chiplet_counts)
    def test_hexamesh_diameter_never_worse_than_grid(self, count):
        hexamesh = make_arrangement("hexamesh", count)
        grid = make_arrangement("grid", count)
        assert diameter(hexamesh.graph) <= diameter(grid.graph)


class TestGeneratorProperties:
    """Structural invariants of every catalog arrangement generator."""

    @_SETTINGS
    @given(kind=all_arrangement_kinds, count=chiplet_counts)
    def test_node_count_and_ids(self, kind, count):
        graph = make_arrangement(kind, count).graph
        assert graph.num_nodes == count
        assert sorted(graph.nodes()) == list(range(count))

    @_SETTINGS
    @given(kind=all_arrangement_kinds, count=chiplet_counts)
    def test_connectivity(self, kind, count):
        assert is_connected(make_arrangement(kind, count).graph)

    @_SETTINGS
    @given(kind=all_arrangement_kinds, count=chiplet_counts)
    def test_symmetric_adjacency(self, kind, count):
        graph = make_arrangement(kind, count).graph
        for first, second in graph.edges():
            assert second in graph.neighbors(first)
            assert first in graph.neighbors(second)
            assert first != second


def _pareto_records(metrics: list[tuple[float, float]]) -> list[ExplorationRecord]:
    """Records with prescribed (latency, throughput) values.

    ``pareto_front`` only touches the metric fields, so the design facade
    can stay unset; diameter / bisection are filler.
    """
    return [
        ExplorationRecord(
            design=None,
            zero_load_latency_cycles=latency,
            saturation_throughput_tbps=throughput,
            diameter=1,
            bisection_bandwidth=1.0,
        )
        for latency, throughput in metrics
    ]


def _dominates(other: ExplorationRecord, candidate: ExplorationRecord) -> bool:
    return (
        other.zero_load_latency_cycles <= candidate.zero_load_latency_cycles
        and other.saturation_throughput_tbps >= candidate.saturation_throughput_tbps
        and (
            other.zero_load_latency_cycles < candidate.zero_load_latency_cycles
            or other.saturation_throughput_tbps > candidate.saturation_throughput_tbps
        )
    )


metric_pairs = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=30,
)


class TestParetoFrontProperties:
    @_SETTINGS
    @given(metrics=metric_pairs)
    def test_front_is_subset_of_records(self, metrics):
        explorer = DesignSpaceExplorer(kinds=["grid"])
        explorer._records = _pareto_records(metrics)
        front = explorer.pareto_front()
        assert set(map(id, front)) <= set(map(id, explorer._records))

    @_SETTINGS
    @given(metrics=metric_pairs)
    def test_no_front_member_is_dominated(self, metrics):
        explorer = DesignSpaceExplorer(kinds=["grid"])
        explorer._records = _pareto_records(metrics)
        for member in explorer.pareto_front():
            assert not any(
                _dominates(other, member)
                for other in explorer._records
                if other is not member
            )

    @_SETTINGS
    @given(metrics=metric_pairs)
    def test_every_excluded_record_is_dominated(self, metrics):
        explorer = DesignSpaceExplorer(kinds=["grid"])
        explorer._records = _pareto_records(metrics)
        front_ids = set(map(id, explorer.pareto_front()))
        for record in explorer._records:
            if id(record) not in front_ids:
                assert any(
                    _dominates(other, record)
                    for other in explorer._records
                    if other is not record
                )

    @_SETTINGS
    @given(metrics=metric_pairs)
    def test_front_is_sorted_by_latency(self, metrics):
        explorer = DesignSpaceExplorer(kinds=["grid"])
        explorer._records = _pareto_records(metrics)
        latencies = [r.zero_load_latency_cycles for r in explorer.pareto_front()]
        assert latencies == sorted(latencies)


class TestGraphMetricProperties:
    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_radius_diameter_relation(self, kind, count):
        graph = make_arrangement(kind, count).graph
        graph_diameter = diameter(graph)
        graph_radius = radius(graph)
        assert graph_radius <= graph_diameter <= 2 * graph_radius

    @_SETTINGS
    @given(kind=arrangement_kinds, count=chiplet_counts)
    def test_average_distance_bounded_by_diameter(self, kind, count):
        graph = make_arrangement(kind, count).graph
        if count >= 2:
            assert 1.0 <= average_distance(graph) <= diameter(graph)


class TestFormulaProperties:
    @_SETTINGS
    @given(side=st.integers(min_value=2, max_value=12))
    def test_grid_and_brickwall_formulas_match_construction(self, side):
        count = side * side
        assert diameter(make_arrangement("grid", count, "regular").graph) == diameter_formula(
            "grid", count
        )
        assert diameter(
            make_arrangement("brickwall", count, "regular").graph
        ) == diameter_formula("brickwall", count)

    @_SETTINGS
    @given(rings=st.integers(min_value=1, max_value=7))
    def test_hexamesh_formulas_match_construction(self, rings):
        count = hexamesh_chiplet_count(rings)
        arrangement = make_arrangement("hexamesh", count, "regular")
        assert diameter(arrangement.graph) == diameter_formula("hexamesh", count)
        assert diameter_formula("hexamesh", count) == 2 * rings


class TestPartitionProperties:
    @_SETTINGS
    @given(kind=arrangement_kinds, count=st.integers(min_value=4, max_value=40))
    def test_best_bisection_is_balanced_and_consistent(self, kind, count):
        graph = make_arrangement(kind, count).graph
        result = find_best_bisection(graph, num_seeds=2)
        part = set(result.part)
        assert is_balanced(graph, part)
        assert cut_size(graph, part) == result.cut_edges
        assert result.cut_edges >= 1

    @_SETTINGS
    @given(side=st.sampled_from([2, 4, 6]))
    def test_estimator_never_beats_the_true_optimum_on_even_grids(self, side):
        count = side * side
        graph = make_arrangement("grid", count, "regular").graph
        result = find_best_bisection(graph, num_seeds=2)
        # The balanced minimum cut of an even k x k grid is exactly k.
        assert result.cut_edges >= side
        assert result.cut_edges == bisection_bandwidth_formula("grid", count)


class TestLinkModelProperties:
    @_SETTINGS
    @given(area=areas, fraction=power_fractions)
    def test_hex_shape_solution_satisfies_equations(self, area, fraction):
        shape = solve_hex_shape(area, fraction)
        band_height = shape.width_mm / 2.0
        power_width = shape.width_mm - 2.0 * shape.bump_distance_mm
        assert shape.width_mm * shape.height_mm == pytest.approx(area, rel=1e-9)
        assert shape.height_mm == pytest.approx(
            2 * shape.bump_distance_mm + band_height, rel=1e-9
        )
        assert power_width * band_height == pytest.approx(area * fraction, rel=1e-9)
        assert shape.link_sector_area_mm2 * 6 + shape.power_area_mm2 == pytest.approx(
            area, rel=1e-9
        )

    @_SETTINGS
    @given(area=areas, fraction=power_fractions)
    def test_grid_shape_is_square_and_consistent(self, area, fraction):
        shape = solve_grid_shape(area, fraction)
        assert math.isclose(shape.width_mm, shape.height_mm)
        assert math.isclose(
            shape.link_sector_area_mm2 * 4 + shape.power_area_mm2, area, rel_tol=1e-9
        )
        assert shape.bump_distance_mm >= 0.0

    @_SETTINGS
    @given(
        area=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        pitch=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        non_data=st.integers(min_value=0, max_value=40),
        frequency=st.floats(min_value=1e9, max_value=64e9, allow_nan=False),
    )
    def test_bandwidth_chain_is_monotone_and_non_negative(
        self, area, pitch, non_data, frequency
    ):
        wires = wire_count(area, pitch)
        payload = data_wires(wires, non_data)
        bandwidth = link_bandwidth_bps(payload, frequency)
        assert wires >= 0
        assert 0 <= payload <= wires
        assert bandwidth >= 0.0
        # More area never reduces the wire count.
        assert wire_count(area * 2, pitch) >= wires


class TestEngineEquivalenceProperties:
    """Every fast simulation mode is bit-identical to legacy on random configs.

    Beyond the fixed equivalence grid of ``test_noc_engine.py``: random
    small arrangements, injection rates, VC counts and seeds, comparing
    the full per-packet latency *histograms* (not just the summary
    statistics) against the legacy reference.  The mode is drawn from the
    shared ``FAST_SIM_MODES`` registry of ``tests/sim_modes.py``, so a new
    engine joins this property automatically.
    """

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=all_arrangement_kinds,
        count=st.integers(min_value=4, max_value=10),
        rate=st.sampled_from([0.05, 0.2, 0.6]),
        vcs=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=1, max_value=2**31 - 1),
        mode=st.sampled_from(FAST_SIM_MODES),
    )
    def test_fast_mode_latency_histograms_equal_legacy(
        self, kind, count, rate, vcs, seed, mode
    ):
        config = SimulationConfig(
            num_virtual_channels=vcs,
            warmup_cycles=30,
            measurement_cycles=60,
            drain_cycles=150,
            seed=seed,
        )
        graph = make_arrangement(kind, count).graph

        def run(sim_mode):
            network, result = simulate_noc(
                graph, config, injection_rate=rate, mode=sim_mode
            )
            histogram = sorted(
                packet.latency
                for endpoint in network.endpoints
                for packet in endpoint.ejected_packets
                if packet.measured
            )
            network.verify_flit_conservation()
            return result, histogram

        legacy_result, legacy_histogram = run("legacy")
        fast_result, fast_histogram = run(mode)
        assert legacy_histogram == fast_histogram
        assert legacy_result.throughput == fast_result.throughput
        assert (
            legacy_result.measured_packets_created
            == fast_result.measured_packets_created
        )


class TestBatchedSweepProperties:
    """Batched multi-point runs equal per-point legacy runs, point by point.

    For random small arrangements, random point lists (random rates *and*
    random per-point seeds) and random VC counts, evaluating the whole
    list through ``NocSimulator.run_batch`` must reproduce every
    individual legacy run exactly — results, per-packet latency
    histograms and the final router state alike.  This is the property
    that makes batching a pure amortisation: batch composition and order
    can never leak between points.
    """

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=all_arrangement_kinds,
        count=st.integers(min_value=4, max_value=10),
        rates=st.lists(
            st.sampled_from([0.05, 0.1, 0.3, 0.6]), min_size=1, max_size=4
        ),
        vcs=st.sampled_from([2, 4]),
        seed=st.integers(min_value=1, max_value=2**31 - 1),
        derive_seeds=st.booleans(),
    )
    # An overload lead point that leaves flits buffered and VCs allocated
    # when it ends, then a low-rate point that leaves most VCs untouched:
    # the second point reuses the kernel's state arrays, so anything
    # ``ArrayKernel.refresh`` fails to reset shows up in its final state.
    @example(
        kind="grid", count=9, rates=[1.0, 0.05], vcs=2, seed=7, derive_seeds=True
    )
    def test_batched_points_equal_per_point_legacy(
        self, kind, count, rates, vcs, seed, derive_seeds
    ):
        from dataclasses import replace

        config = SimulationConfig(
            num_virtual_channels=vcs,
            warmup_cycles=30,
            measurement_cycles=60,
            drain_cycles=150,
            seed=seed,
        )
        graph = make_arrangement(kind, count).graph
        points = [
            BatchPoint(rate, seed=seed + index if derive_seeds else None)
            for index, rate in enumerate(rates)
        ]

        def histogram(network):
            return sorted(
                packet.latency
                for endpoint in network.endpoints
                for packet in endpoint.ejected_packets
                if packet.measured
            )

        def router_state(network):
            return [
                (
                    state.states,
                    state.alloc_wait_cycles,
                    state.credits,
                    state.owners,
                    state.out_ports,
                    state.out_vcs,
                    state.sa_port_pointer,
                )
                for state in (router.export_state() for router in network.routers)
            ]

        reference = []
        for point in points:
            point_config = (
                replace(config, seed=point.seed) if point.seed is not None else config
            )
            simulator = NocSimulator(
                graph, point_config, injection_rate=point.injection_rate
            )
            result = simulator.run(engine="legacy")
            simulator.network.verify_flit_conservation()
            reference.append(
                (result, histogram(simulator.network), router_state(simulator.network))
            )

        batched_histograms = {}
        batched_states = {}

        def capture(index, network, result):
            network.verify_flit_conservation()
            batched_histograms[index] = histogram(network)
            batched_states[index] = router_state(network)

        batched = NocSimulator.run_batch(
            graph, points, config=config, on_point=capture
        )

        assert len(batched) == len(reference)
        for index, (result, (expected_result, expected_histogram, expected_state)) in (
            enumerate(zip(batched, reference))
        ):
            assert batched_histograms[index] == expected_histogram
            assert batched_states[index] == expected_state
            assert result.throughput == expected_result.throughput
            assert (
                result.measured_packets_created
                == expected_result.measured_packets_created
            )
            assert (
                result.measured_packets_ejected
                == expected_result.measured_packets_ejected
            )
            assert result.cycles_simulated == expected_result.cycles_simulated
            if expected_result.packet_latency.count:
                assert result == expected_result


class TestFaultInjectionProperties:
    """Random survivable faults on random configs keep the engine contract.

    For any connected arrangement and any survivable fault draw, the
    vectorized engine must reproduce the legacy per-packet latency
    histogram on the degraded topology, and no packet can ever traverse a
    failed link — structurally guaranteed because the degraded network
    contains no channel for it, which is asserted by mapping every
    surviving router-to-router link back to the original topology.
    """

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=all_arrangement_kinds,
        count=st.integers(min_value=6, max_value=12),
        rate=st.sampled_from([0.1, 0.4]),
        link_faults=st.integers(min_value=0, max_value=2),
        router_faults=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=1, max_value=2**31 - 1),
        mode=st.sampled_from(FAST_SIM_MODES),
    )
    def test_fast_modes_match_legacy_under_random_survivable_faults(
        self, kind, count, rate, link_faults, router_faults, seed, mode
    ):
        graph = make_arrangement(kind, count).graph
        try:
            faults = sample_survivable_faults(
                graph,
                num_link_faults=link_faults,
                num_router_faults=router_faults,
                seed=seed,
                max_attempts=30,
            )
        except FaultedTopologyError:
            assume(False)  # this topology cannot absorb the draw
            return
        config = SimulationConfig(
            warmup_cycles=30, measurement_cycles=60, drain_cycles=150, seed=seed
        )

        def run(sim_mode):
            network, result = simulate_noc(
                graph, config, injection_rate=rate, faults=faults, mode=sim_mode
            )
            histogram = sorted(
                packet.latency
                for endpoint in network.endpoints
                for packet in endpoint.ejected_packets
                if packet.measured
            )
            network.verify_flit_conservation()
            return result, histogram

        legacy_result, legacy_histogram = run("legacy")
        fast_result, fast_histogram = run(mode)
        assert legacy_histogram == fast_histogram
        assert legacy_result.throughput == fast_result.throughput
        assert (
            legacy_result.measured_packets_created
            == fast_result.measured_packets_created
        )

        # Packets never traverse a failed link or reach a failed router:
        # the degraded network simply has no such channel.
        if faults.is_empty:
            return
        degraded = faults.apply(graph)
        assert not set(degraded.surviving_routers) & set(faults.failed_routers)
        surviving_links = {
            degraded.original_edge(first, second)
            for first, second in degraded.graph.edges()
        }
        assert not surviving_links & set(faults.failed_links)
        assert all(graph.has_edge(*link) for link in surviving_links)


# Valid raw values of every job-spec field, per job type; a spec draws
# any subset of its type's fields (the rest take their defaults).
def _listed(element):
    return st.lists(element, min_size=1, max_size=4)


_spec_kinds = st.sampled_from(ARRANGEMENT_KINDS)
_spec_counts = st.integers(min_value=1, max_value=200)
_spec_rates = st.floats(min_value=0.001, max_value=1.0, allow_nan=False)
_spec_regularity = st.none() | st.sampled_from(REGULARITIES)
_spec_traffic = st.sampled_from(available_traffic_patterns())
_execution_fields = {
    "jobs": st.integers(min_value=1, max_value=8),
    "engine": st.sampled_from(ENGINE_NAMES),
}
_phase_fields = {
    **_execution_fields,
    "cycles": st.integers(min_value=1, max_value=100_000),
    "seed": st.integers(min_value=0, max_value=2**31),
}
_SPEC_FIELDS = {
    "sweep": {
        **_phase_fields,
        "kinds": _listed(_spec_kinds),
        "chiplets": _listed(_spec_counts),
        "rates": _listed(_spec_rates),
        "traffic": _listed(_spec_traffic),
        "regularity": _spec_regularity,
    },
    "workload": {
        **_phase_fields,
        "workloads": _listed(st.sampled_from(available_workloads())),
        "arrangements": _listed(_spec_kinds),
        "chiplets": _listed(_spec_counts),
        "mappers": _listed(st.sampled_from(available_mappers())),
        "tasks": st.none() | _spec_counts,
        "injection_rate": _spec_rates,
        "regularity": _spec_regularity,
    },
    "resilience": {
        **_phase_fields,
        "kinds": _listed(_spec_kinds),
        "chiplets": _spec_counts,
        "failures": _listed(st.integers(min_value=0, max_value=8)),
        "fault_type": st.sampled_from(FAULT_TYPES),
        "samples": st.integers(min_value=1, max_value=5),
        "injection_rate": _spec_rates,
        "injection_rates": st.none() | _listed(_spec_rates),
        "traffic": _spec_traffic,
        "regularity": _spec_regularity,
    },
    "figure7": {
        **_execution_fields,
        "max_chiplets": st.integers(min_value=1, max_value=100),
        "mode": st.sampled_from(FIGURE7_MODES),
        "sim_points": st.none() | _listed(_spec_counts),
    },
}
raw_job_specs = st.sampled_from(JOB_TYPES).flatmap(
    lambda job_type: st.fixed_dictionaries(
        {"type": st.just(job_type)}, optional=_SPEC_FIELDS[job_type]
    )
)


class TestJobSpecProperties:
    @pytest.mark.parametrize("job_type", JOB_TYPES)
    def test_strategies_cover_every_field(self, job_type):
        fields = set(job_spec({"type": job_type}).as_dict())
        assert set(_SPEC_FIELDS[job_type]) | {"type"} == fields

    @_SETTINGS
    @given(raw=raw_job_specs)
    def test_normalisation_is_idempotent(self, raw):
        spec = job_spec(raw)
        assert job_spec(spec.as_dict()) == spec

    @_SETTINGS
    @given(raw=raw_job_specs, data=st.data())
    def test_identity_ignores_key_order_and_scalar_spelling(self, raw, data):
        # Spell every one-element list as its scalar, then shuffle the keys.
        respelled = [
            (key, value[0] if isinstance(value, list) and len(value) == 1 else value)
            for key, value in raw.items()
        ]
        shuffled = dict(data.draw(st.permutations(respelled)))
        assert job_spec(shuffled).canonical_json() == job_spec(raw).canonical_json()

    @_SETTINGS
    @given(
        raw=raw_job_specs,
        key=st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1),
    )
    def test_unknown_field_is_rejected_by_name(self, raw, key):
        assume(key not in job_spec({"type": raw["type"]}).as_dict())
        with pytest.raises(ValueError) as error:
            job_spec({**raw, key: 1})
        unknown_part = str(error.value).split(" (known:")[0]
        assert key in unknown_part.split(": ", 1)[1].split(", ")
