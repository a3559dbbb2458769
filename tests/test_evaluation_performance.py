"""Tests for the Figure 7 experiment runner and the headline claims."""

import pytest

from repro.arrangements.factory import make_arrangement
from repro.evaluation.headline import (
    HeadlineClaims,
    asymptotic_claims,
    average_improvements,
    compute_headline_claims,
)
from repro.evaluation.performance import (
    evaluate_arrangement_performance,
    run_figure7,
    run_link_bandwidth_table,
)
from repro.noc.config import SimulationConfig


@pytest.fixture(scope="module")
def figure7_small():
    """Analytical Figure 7 over a reduced chiplet-count range (fast)."""
    return run_figure7(range(2, 41), mode="analytical")


class TestEvaluateArrangementPerformance:
    def test_analytical_point_fields(self):
        point = evaluate_arrangement_performance(make_arrangement("hexamesh", 19))
        assert point.engine == "analytical"
        assert point.zero_load_latency_cycles > 0
        assert 0 < point.saturation_fraction <= 1.0
        assert point.link_bandwidth_gbps > 0
        assert point.saturation_throughput_tbps == pytest.approx(
            point.saturation_fraction * point.full_global_bandwidth_tbps
        )

    def test_channel_load_model_is_more_conservative(self):
        arrangement = make_arrangement("hexamesh", 37)
        bisection = evaluate_arrangement_performance(arrangement, throughput_model="bisection")
        channel = evaluate_arrangement_performance(arrangement, throughput_model="channel_load")
        assert channel.saturation_fraction <= bisection.saturation_fraction

    def test_simulation_engine_on_tiny_design(self):
        config = SimulationConfig(warmup_cycles=100, measurement_cycles=300, drain_cycles=0)
        result = run_figure7((4,), kinds=("grid",), mode="simulation", simulation_config=config)
        point = result.point("grid", 4)
        assert point.engine == "simulation"
        assert point.zero_load_latency_cycles > 0

    def test_invalid_throughput_model_rejected(self):
        with pytest.raises(ValueError):
            evaluate_arrangement_performance(
                make_arrangement("grid", 4), throughput_model="magic"
            )


class TestFigure7:
    def test_every_kind_and_count_present(self, figure7_small):
        assert figure7_small.chiplet_counts() == list(range(2, 41))
        for count in (5, 20, 37):
            for kind in ("grid", "brickwall", "hexamesh"):
                assert figure7_small.point(kind, count).num_chiplets == count

    def test_latency_trend_hexamesh_below_grid(self, figure7_small):
        for count in range(10, 41):
            assert figure7_small.normalized_latency_percent("hexamesh", count) < 100.0

    def test_latency_reduction_close_to_paper_for_large_designs(self, figure7_small):
        # The paper reports an almost 20 % reduction for N >= 10.
        values = [
            figure7_small.normalized_latency_percent("hexamesh", count)
            for count in range(10, 41)
        ]
        mean_reduction = 100.0 - sum(values) / len(values)
        assert 10.0 < mean_reduction < 30.0

    def test_throughput_trend_hexamesh_above_grid_on_average(self, figure7_small):
        values = [
            figure7_small.normalized_throughput_percent("hexamesh", count)
            for count in figure7_small.chiplet_counts()
        ]
        assert sum(values) / len(values) > 100.0

    def test_experiments_export(self, figure7_small):
        for result, expected_id in (
            (figure7_small.latency_experiment(), "FIG7a"),
            (figure7_small.throughput_experiment(), "FIG7b"),
            (figure7_small.normalized_latency_experiment(), "FIG7c"),
            (figure7_small.normalized_throughput_experiment(), "FIG7d"),
        ):
            assert result.experiment_id == expected_id
            assert result.series

    def test_metadata_records_mode_and_model(self, figure7_small):
        assert figure7_small.metadata["mode"] == "analytical"
        assert figure7_small.metadata["throughput_model"] == "bisection"

    def test_unknown_point_raises(self, figure7_small):
        with pytest.raises(KeyError):
            figure7_small.point("grid", 1000)

    def test_single_chiplet_point_is_labelled_analytical(self):
        # One chiplet has no network to simulate: the analytical models
        # compute its point, and its label says so.
        config = SimulationConfig(warmup_cycles=50, measurement_cycles=100, drain_cycles=0)
        result = run_figure7((1, 4), kinds=("grid",), mode="simulation", simulation_config=config)
        assert result.point("grid", 1).engine == "analytical"
        assert result.point("grid", 4).engine == "simulation"
        assert result.metadata["simulated_counts"] == [4]

    def test_hybrid_mode_marks_simulated_points(self):
        config = SimulationConfig(
            warmup_cycles=100, measurement_cycles=200, drain_cycles=0
        )
        result = run_figure7(
            [4, 7],
            mode="hybrid",
            simulation_points=[4],
            simulation_config=config,
        )
        assert result.point("grid", 4).engine == "simulation"
        assert result.point("grid", 7).engine == "analytical"


class TestLinkBandwidthTable:
    def test_table_structure(self):
        table = run_link_bandwidth_table(chiplet_counts=(4, 16, 100))
        assert table.experiment_id == "TAB1"
        assert set(table.series_names()) == {"grid", "brickwall", "hexamesh"}

    def test_grid_values_match_paper_setting(self):
        table = run_link_bandwidth_table(chiplet_counts=(100,))
        grid = table.get_series("grid")
        assert grid.y_at(100) == pytest.approx(656.0)
        annotations = grid.points[0].annotations
        assert annotations["num_wires"] == 53
        assert annotations["num_data_wires"] == 41

    def test_grid_has_higher_per_link_bandwidth_than_hexamesh(self):
        table = run_link_bandwidth_table(chiplet_counts=(64,))
        assert table.get_series("grid").y_at(64) > table.get_series("hexamesh").y_at(64)


class TestHeadlineClaims:
    def test_asymptotic_claims_match_abstract(self):
        diameter_reduction, bisection_improvement = asymptotic_claims()
        assert diameter_reduction == pytest.approx(42.3, abs=0.2)
        assert bisection_improvement == pytest.approx(130.9, abs=0.2)

    def test_compute_headline_claims(self, figure7_small):
        claims = compute_headline_claims(figure7_small)
        assert isinstance(claims, HeadlineClaims)
        # Latency: the paper quotes a 19 % average reduction.
        assert 10.0 < claims.latency_reduction_percent < 30.0
        # Throughput: the paper quotes +34 %; the analytical engine lands in
        # the same direction with a comparable magnitude.
        assert claims.throughput_improvement_percent > 5.0
        assert claims.as_dict()["diameter_reduction_percent"] == pytest.approx(42.3, abs=0.2)

    def test_average_improvements_min_chiplets_filter(self, figure7_small):
        all_counts = average_improvements(figure7_small, min_chiplets=2)
        large_only = average_improvements(figure7_small, min_chiplets=10)
        assert all_counts != large_only
        with pytest.raises(ValueError):
            average_improvements(figure7_small, min_chiplets=1000)

    def test_paper_reference_constants(self):
        assert HeadlineClaims.PAPER_DIAMETER_REDUCTION == 42.0
        assert HeadlineClaims.PAPER_THROUGHPUT_IMPROVEMENT == 34.0
