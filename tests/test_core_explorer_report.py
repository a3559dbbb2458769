"""Tests for the design-space explorer and comparison reports."""

import pytest

from repro.core.design import ChipletDesign
from repro.core.explorer import DesignSpaceExplorer
from repro.core.report import DesignComparison, compare_designs
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator
from repro.noc.sweep import run_injection_sweep
from repro.store import ResultStore


class TestExplorer:
    @pytest.fixture(scope="class")
    def explorer(self):
        explorer = DesignSpaceExplorer()
        explorer.evaluate([16, 19, 25])
        return explorer

    def test_records_count(self, explorer):
        # 3 kinds x 3 chiplet counts.
        assert len(explorer.records) == 9

    def test_rank_by_latency_prefers_hexamesh(self, explorer):
        best = explorer.best("latency")
        assert best.design.kind.value == "hexamesh"

    def test_rank_by_diameter(self, explorer):
        ranked = explorer.rank("diameter")
        assert ranked[0].diameter <= ranked[-1].diameter

    def test_best_for_count(self, explorer):
        best = explorer.best_for_count(25, "bisection")
        assert best.design.num_chiplets == 25
        assert best.design.kind.value in ("hexamesh", "brickwall")

    def test_best_for_unknown_count_raises(self, explorer):
        with pytest.raises(ValueError):
            explorer.best_for_count(999)

    def test_unknown_objective_rejected(self, explorer):
        with pytest.raises(ValueError):
            explorer.rank("beauty")

    def test_pareto_front_is_non_dominated(self, explorer):
        front = explorer.pareto_front()
        assert front
        for record in front:
            for other in explorer.records:
                strictly_better = (
                    other.zero_load_latency_cycles < record.zero_load_latency_cycles
                    and other.saturation_throughput_tbps > record.saturation_throughput_tbps
                )
                assert not strictly_better

    def test_empty_explorer_best_raises(self):
        explorer = DesignSpaceExplorer()
        with pytest.raises(ValueError):
            explorer.best()

    def test_requires_at_least_one_kind(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(kinds=[])


class TestExplorerSpotCheck:
    def test_spot_check_simulates_a_record_with_any_engine(self):
        explorer = DesignSpaceExplorer(kinds=["hexamesh"])
        (record,) = explorer.evaluate([7])
        config = SimulationConfig(
            warmup_cycles=40, measurement_cycles=80, drain_cycles=200
        )
        legacy = explorer.spot_check(record, config=config, engine="legacy")
        vectorized = explorer.spot_check(record, config=config, engine="vectorized")
        # The cycle-accurate spot check is engine-agnostic (bit-identical)
        # and actually simulated the record's design.
        assert legacy == vectorized
        assert legacy.num_routers == 7
        assert legacy.measured_packets_ejected > 0

    def test_spot_check_curve_goes_through_the_store(self, tmp_path, monkeypatch):
        explorer = DesignSpaceExplorer(kinds=["hexamesh"])
        (record,) = explorer.evaluate([7])
        config = SimulationConfig(warmup_cycles=40, measurement_cycles=80, drain_cycles=200)
        design = record.design
        reference = run_injection_sweep(
            design.arrangement.graph, design.simulation_config(config), rates=(0.02, 0.1)
        )
        assert explorer.spot_check(record, rates=(0.02, 0.1), config=config) == reference
        cold = explorer.spot_check(record, rates=(0.02, 0.1), config=config, cache_dir=tmp_path)
        # The keys earlier versions of the curve path wrote: their stores stay warm.
        assert sorted(ResultStore(str(tmp_path)).keys()) == [
            "279f80200ed0fad21d0961237142cba5c99dd2c1fcde0786e621fc3ee2b4ac71",
            "d4ce1ef3491152edcd3ee4257924552e0aad020718259b895253698d308ffa18",
        ]
        monkeypatch.setattr(NocSimulator, "run_batch", None)  # a warm curve never simulates
        warm = explorer.spot_check(record, rates=(0.02, 0.1), config=config, cache_dir=tmp_path)
        assert warm == cold == reference


class TestDesignComparison:
    def test_hexamesh_vs_grid_at_91(self):
        comparison = compare_designs(
            ChipletDesign.create("hexamesh", 91),
            ChipletDesign.create("grid", 91),
        )
        assert comparison.diameter_reduction_percent > 25.0
        assert comparison.bisection_improvement_percent > 50.0
        assert comparison.latency_reduction_percent > 10.0

    def test_self_comparison_is_neutral(self):
        design = ChipletDesign.create("grid", 36)
        comparison = DesignComparison(candidate=design, baseline=design)
        assert comparison.diameter_reduction_percent == pytest.approx(0.0)
        assert comparison.throughput_improvement_percent == pytest.approx(0.0)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            compare_designs(
                ChipletDesign.create("hexamesh", 37),
                ChipletDesign.create("grid", 36),
            )

    def test_as_dict_and_render(self):
        comparison = compare_designs(
            ChipletDesign.create("hexamesh", 19),
            ChipletDesign.create("grid", 19),
        )
        data = comparison.as_dict()
        assert set(data) == {
            "diameter_reduction_percent",
            "bisection_improvement_percent",
            "latency_reduction_percent",
            "throughput_improvement_percent",
        }
        text = comparison.render()
        assert "HM-19" in text
        assert "diameter" in text
