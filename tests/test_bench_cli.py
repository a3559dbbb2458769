"""The benchmark harness: scenario registry, report schema and the CI gate."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main
from repro.noc.engine import ENGINE_NAMES


class TestScenarioRegistry:
    def test_scenario_list_is_deterministic(self):
        first = bench.available_scenarios()
        second = bench.available_scenarios()
        assert first == second
        assert first == tuple(s.name for s in bench.iter_scenarios())
        assert len(set(first)) == len(first)

    def test_quick_subset_selection(self):
        full = bench.available_scenarios()
        quick = bench.available_scenarios(quick=True)
        assert set(quick) <= set(full)
        # Both headline gate scenarios must be part of the CI quick
        # subset (the overload point joined it when the array kernel's
        # >= 3x floor landed; quick mode still shortens its phases).
        assert "fig7-hexamesh61-zero-load" in quick
        assert "fig7-hexamesh61-overload" in quick
        # Quick keeps the full-run order.
        assert [name for name in full if name in quick] == list(quick)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown bench scenario"):
            bench.run_bench(["no-such-scenario"])

    def test_invalid_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            bench.run_bench([], repeat=0)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            bench.run_bench([], engines=("warp-speed",))

    def test_repeats_interleave_engines(self, monkeypatch):
        """One burst of machine noise must not land on one engine's every
        repeat: repeats run ``for iteration: for engine:``."""
        calls = []

        def build(quick):
            def run(engine):
                calls.append(engine)
                return "same result", 100

            return run

        scenario = bench.BenchScenario("fake", "call-order probe", True, build)
        monkeypatch.setattr(bench, "SCENARIOS", (scenario,))
        report = bench.run_bench(["fake"], repeat=3, revision="test-rev")
        assert calls == list(ENGINE_NAMES) * 3
        (row,) = report["scenarios"]
        assert set(row["engines"]) == set(ENGINE_NAMES)


class TestReportSchema:
    @pytest.fixture(scope="class")
    def report(self):
        # One real (small) scenario: doubles as an end-to-end check that
        # the harness drives both engines and asserts equivalence.
        return bench.run_bench(
            ["workload-dnn-hexamesh37"], quick=True, revision="test-rev"
        )

    def test_report_layout(self, report):
        assert report["schema"] == bench.BENCH_SCHEMA
        assert report["rev"] == "test-rev"
        assert report["quick"] is True
        assert report["engines"] == list(ENGINE_NAMES)
        (scenario,) = report["scenarios"]
        assert scenario["name"] == "workload-dnn-hexamesh37"
        assert scenario["cycles"] > 0
        assert set(scenario["engines"]) == set(ENGINE_NAMES)
        for engine, row in scenario["engines"].items():
            assert row["wall_seconds"] > 0
            assert row["cycles_per_second"] > 0
            assert row["speedup_vs_legacy"] > 0
        assert scenario["engines"]["legacy"]["speedup_vs_legacy"] == 1.0

    def test_report_round_trips_through_json(self, report, tmp_path):
        path = tmp_path / "BENCH_test.json"
        bench.write_report(report, str(path))
        assert bench.load_report(str(path)) == json.loads(path.read_text())

    def test_markdown_table(self, report):
        table = bench.format_report_table(report)
        assert table.splitlines()[0].startswith("| scenario | engine |")
        assert "workload-dnn-hexamesh37" in table

    def test_make_baseline_shape(self, report):
        baseline = bench.make_baseline(
            report, min_speedups={("workload-dnn-hexamesh37", "vectorized"): 1.0}
        )
        assert baseline["schema"] == bench.BENCH_SCHEMA
        assert baseline["source_rev"] == "test-rev"
        assert baseline["quick"] is True
        rows = baseline["scenarios"]["workload-dnn-hexamesh37"]
        # The reference engine is never gated against itself.
        assert "legacy" not in rows
        assert rows["vectorized"]["min_speedup"] == 1.0


def _fake_report(speedups: dict[str, float]) -> dict:
    return {
        "schema": bench.BENCH_SCHEMA,
        "rev": "fake",
        "quick": True,
        "scenarios": [
            {
                "name": name,
                "cycles": 100,
                "engines": {
                    "legacy": {"wall_seconds": 1.0, "cycles_per_second": 100.0,
                               "speedup_vs_legacy": 1.0},
                    "vectorized": {"wall_seconds": 1.0 / speedup,
                                   "cycles_per_second": 100.0 * speedup,
                                   "speedup_vs_legacy": speedup},
                },
            }
            for name, speedup in speedups.items()
        ],
    }


def _fake_baseline(expectations: dict[str, dict]) -> dict:
    return {
        "schema": bench.BENCH_SCHEMA,
        "tolerance": 0.25,
        "scenarios": {
            name: {"vectorized": entry} for name, entry in expectations.items()
        },
    }


def _batched_report(speedup: float, batched: float | None) -> dict:
    report = _fake_report({"s": speedup})
    if batched is not None:
        report["scenarios"][0]["engines"]["vectorized"].update({
            "per_point_wall_seconds": 1.0,
            "batched_wall_seconds": 1.0 / batched,
            "batched_speedup_vs_per_point": batched,
        })
    return report


class TestBatchedGate:
    def test_make_baseline_records_batched_speedup_and_floor(self):
        report = _batched_report(3.0, 2.5)
        baseline = bench.make_baseline(
            report, min_batched_speedups={("s", "vectorized"): 2.0}
        )
        entry = baseline["scenarios"]["s"]["vectorized"]
        assert entry["batched_speedup_vs_per_point"] == 2.5
        assert entry["min_batched_speedup"] == 2.0
        # Wall clocks are machine-bound and never enter the baseline.
        assert "batched_wall_seconds" not in entry

    def test_batched_speedup_only_recorded_where_floored(self):
        """A batched ratio without a configured floor stays ungated.

        Engines whose batched path shares only the topology build measure
        ~1x ratios that are pure machine noise; recording them would turn
        jitter into CI failures (the gate checks every recorded ratio).
        """
        report = _batched_report(3.0, 1.05)
        baseline = bench.make_baseline(report)  # no batched floors at all
        entry = baseline["scenarios"]["s"]["vectorized"]
        assert "batched_speedup_vs_per_point" not in entry
        assert "min_batched_speedup" not in entry

    def test_batched_regression_beyond_tolerance_fails(self):
        baseline = _fake_baseline(
            {"s": {"speedup_vs_legacy": 3.0, "batched_speedup_vs_per_point": 4.0}}
        )
        problems = bench.check_report(_batched_report(3.0, 2.9), baseline)
        assert len(problems) == 1 and "batched-vs-per-point" in problems[0]
        assert bench.check_report(_batched_report(3.0, 3.1), baseline) == []

    def test_batched_floor_fails_hard(self):
        baseline = _fake_baseline({
            "s": {
                "speedup_vs_legacy": 3.0,
                "batched_speedup_vs_per_point": 2.1,
                "min_batched_speedup": 2.0,
            }
        })
        problems = bench.check_report(_batched_report(3.0, 1.9), baseline)
        assert any("below the hard floor" in p for p in problems)

    def test_missing_batched_measurement_fails(self):
        baseline = _fake_baseline(
            {"s": {"speedup_vs_legacy": 3.0, "batched_speedup_vs_per_point": 2.4}}
        )
        problems = bench.check_report(_batched_report(3.0, None), baseline)
        assert any("measured none" in p for p in problems)


class TestGateScenarioMismatches:
    """Both scenario-set mismatches are surfaced; neither silently passes.

    The asymmetry is deliberate and documented on ``check_report``:
    baseline-only scenarios *fail* the gate (a dropped scenario must not
    green-light it), report-only scenarios *warn* (a new scenario cannot
    regress before a baseline records it, but the gate says so).
    """

    def test_report_only_scenario_warns_but_passes(self):
        report = _fake_report({"s": 3.0, "fresh": 2.0})
        baseline = _fake_baseline({"s": {"speedup_vs_legacy": 3.0}})
        assert bench.check_report(report, baseline) == []
        warnings = bench.check_report_warnings(report, baseline)
        assert len(warnings) == 1 and "'fresh'" in warnings[0]

    def test_baseline_only_scenario_fails_but_does_not_warn(self):
        report = _fake_report({"s": 3.0})
        baseline = _fake_baseline(
            {"s": {"speedup_vs_legacy": 3.0}, "gone": {"speedup_vs_legacy": 2.0}}
        )
        problems = bench.check_report(report, baseline)
        assert any("was not run" in p for p in problems)
        assert bench.check_report_warnings(report, baseline) == []

    def test_matching_scenario_sets_are_silent(self):
        report = _fake_report({"s": 3.0})
        baseline = _fake_baseline({"s": {"speedup_vs_legacy": 3.0}})
        assert bench.check_report(report, baseline) == []
        assert bench.check_report_warnings(report, baseline) == []

    def test_malformed_baseline_scenarios_produce_no_warnings(self):
        report = _fake_report({"s": 3.0})
        assert bench.check_report_warnings(report, {"scenarios": []}) == []


class TestRegressionGate:
    def test_passes_within_tolerance(self):
        report = _fake_report({"s": 3.2})
        baseline = _fake_baseline({"s": {"speedup_vs_legacy": 4.0}})
        assert bench.check_report(report, baseline) == []

    def test_fails_beyond_tolerance(self):
        report = _fake_report({"s": 2.9})  # 4.0 * 0.75 = 3.0 is the limit
        baseline = _fake_baseline({"s": {"speedup_vs_legacy": 4.0}})
        problems = bench.check_report(report, baseline)
        assert len(problems) == 1 and "regressed" in problems[0]

    def test_fails_below_hard_floor(self):
        report = _fake_report({"s": 1.9})
        baseline = _fake_baseline(
            {"s": {"speedup_vs_legacy": 2.0, "min_speedup": 2.0}}
        )
        problems = bench.check_report(report, baseline)
        assert any("hard" in p and "floor" in p for p in problems)

    def test_missing_scenario_is_a_regression(self):
        report = _fake_report({"s": 3.0})
        baseline = _fake_baseline(
            {"s": {"speedup_vs_legacy": 3.0}, "gone": {"speedup_vs_legacy": 2.0}}
        )
        problems = bench.check_report(report, baseline)
        assert any("was not run" in p for p in problems)

    def test_schema_mismatch_is_reported(self):
        report = _fake_report({"s": 3.0})
        baseline = {"schema": 999, "scenarios": {}}
        problems = bench.check_report(report, baseline)
        assert len(problems) == 1 and "schema" in problems[0]

    def test_committed_baseline_is_loadable_and_gated(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "baseline.json",
        )
        baseline = bench.load_report(path)
        assert baseline["schema"] == bench.BENCH_SCHEMA
        # The committed baseline pins the headline >= 2x floor on the
        # Fig. 7 zero-load point (the acceptance criterion of the PR that
        # introduced the vectorized engine).
        gate = baseline["scenarios"]["fig7-hexamesh61-zero-load"]["vectorized"]
        assert gate["min_speedup"] >= 2.0
        assert gate["speedup_vs_legacy"] >= 2.0
        # The batched sweep pins its own headline floor: >= 2x over
        # per-point vectorized evaluation of the 16-point HexaMesh-61
        # sweep (this PR's acceptance criterion).
        batched_gate = baseline["scenarios"]["sweep-batched-hexamesh61"]["vectorized"]
        assert batched_gate["min_batched_speedup"] >= 2.0
        assert batched_gate["batched_speedup_vs_per_point"] >= 2.0
        # The overload point pins the >= 3x floor of the array-kernel PR:
        # the regime where the pre-kernel engine collapsed to 1.4x.
        overload_gate = baseline["scenarios"]["fig7-hexamesh61-overload"]["vectorized"]
        assert overload_gate["min_speedup"] >= 3.0
        assert overload_gate["speedup_vs_legacy"] >= 3.0
        # Every gated scenario is part of the CI quick subset.
        quick = set(bench.available_scenarios(quick=True))
        assert set(baseline["scenarios"]) <= quick


class TestBenchCli:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list", "--quick"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(bench.available_scenarios(quick=True))

    def test_cli_emits_report_and_passes_own_gate(self, tmp_path, capsys):
        output = tmp_path / "BENCH_cli.json"
        baseline_path = tmp_path / "baseline.json"
        code = main([
            "bench", "--quick", "--scenarios", "workload-dnn-hexamesh37",
            "--rev", "cli-test", "--output", str(output),
            "--write-baseline", str(baseline_path),
        ])
        assert code == 0
        report = json.loads(output.read_text())
        assert report["rev"] == "cli-test"
        assert [s["name"] for s in report["scenarios"]] == ["workload-dnn-hexamesh37"]
        # The written baseline round-trips through the gate.  Wall clocks
        # of sub-second scenarios are noisy, so give the re-measured run
        # generous slack — this tests the plumbing, not the machine.
        baseline = json.loads(baseline_path.read_text())
        for rows in baseline["scenarios"].values():
            for entry in rows.values():
                entry["speedup_vs_legacy"] *= 0.5
                entry.pop("min_speedup", None)
        baseline_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--quick", "--scenarios", "workload-dnn-hexamesh37",
            "--rev", "cli-test", "--output", str(output),
            "--check-against", str(baseline_path),
        ])
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_cli_gate_failure_exits_nonzero(self, tmp_path, capsys):
        output = tmp_path / "BENCH_cli.json"
        baseline_path = tmp_path / "impossible.json"
        baseline_path.write_text(json.dumps(_fake_baseline(
            {"workload-dnn-hexamesh37": {"speedup_vs_legacy": 10_000.0}}
        )))
        code = main([
            "bench", "--quick", "--scenarios", "workload-dnn-hexamesh37",
            "--output", str(output), "--check-against", str(baseline_path),
        ])
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{not json", '["a", "list"]'])
    def test_cli_malformed_baseline_fails_fast(self, tmp_path, capsys, content):
        """A broken baseline file exits 1 with a message, never 0 or a
        traceback (the gate must not silently pass on an unreadable file)."""
        output = tmp_path / "BENCH_cli.json"
        baseline_path = tmp_path / "broken.json"
        baseline_path.write_text(content)
        code = main([
            "bench", "--quick", "--scenarios", "workload-dnn-hexamesh37",
            "--output", str(output), "--check-against", str(baseline_path),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "PERF GATE ERROR" in captured.err
        assert "perf gate passed" not in captured.out

    def test_cli_missing_baseline_fails_fast(self, tmp_path, capsys):
        output = tmp_path / "BENCH_cli.json"
        code = main([
            "bench", "--quick", "--scenarios", "workload-dnn-hexamesh37",
            "--output", str(output),
            "--check-against", str(tmp_path / "does-not-exist.json"),
        ])
        assert code == 1
        assert "PERF GATE ERROR" in capsys.readouterr().err


class TestLoadReportGuard:
    """``load_report`` fails fast with a clear message, not a traceback."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(bench.BaselineError, match="cannot read baseline"):
            bench.load_report(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        with pytest.raises(bench.BaselineError, match="not valid JSON"):
            bench.load_report(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text('["schema", 1]')
        with pytest.raises(bench.BaselineError, match="must be a JSON object"):
            bench.load_report(str(path))
