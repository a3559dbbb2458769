"""Unit tests of the telemetry subsystem and its integration seams.

Covers the collector/tracer/provenance/progress/profiler primitives in
isolation, the store-embedded manifests and wall-time accounting of the sweep
runners, and the CLI surface (``simulate --metrics-out/--trace-out``,
``trace``, sweep progress summaries).  Cross-engine equality of the
observed artifacts lives in ``test_trace_equivalence.py``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.parallel import ParallelSweepRunner
from repro.noc.config import SimulationConfig
from repro.telemetry import (
    KERNEL_STAGES,
    MANIFEST_SCHEMA,
    SERIES_NAMES,
    TRACE_KINDS,
    FlitTracer,
    MetricsCollector,
    StageProfiler,
    SweepProgressTracker,
    TelemetrySession,
    build_manifest,
    config_digest,
    format_duration,
    format_progress,
    format_summary,
    git_revision,
    read_jsonl,
)

FAST_CONFIG = SimulationConfig(
    warmup_cycles=50, measurement_cycles=100, drain_cycles=200
)


class TestMetricsCollector:
    def test_record_cycle_closes_flow_counters(self):
        metrics = MetricsCollector()
        metrics._inj += 3
        metrics._link += 5
        metrics.record_cycle(buffered=4, vc_stalls=2, backlog=1)
        metrics._ej += 2
        metrics.record_cycle(buffered=0, vc_stalls=0, backlog=0)
        assert metrics.series() == {
            "buffer_occupancy": [4, 0],
            "link_flits": [5, 0],
            "vc_stalls": [2, 0],
            "in_flight": [3, 1],
            "injection_backlog": [1, 0],
        }

    def test_finalize_pads_to_horizon(self):
        metrics = MetricsCollector()
        metrics._inj += 2
        metrics.record_cycle(buffered=7, vc_stalls=1, backlog=3)
        metrics.finalize(4)
        assert metrics.total_cycles == 4
        assert metrics.cycles_recorded == 4
        # State series hold their last value; flow series read zero.
        assert metrics.buffer_occupancy == [7, 7, 7, 7]
        assert metrics.in_flight == [2, 2, 2, 2]
        assert metrics.link_flits == [0, 0, 0, 0]

    def test_finalize_never_truncates(self):
        metrics = MetricsCollector()
        for _ in range(3):
            metrics.record_cycle(buffered=0, vc_stalls=0, backlog=0)
        metrics.finalize(2)
        assert metrics.cycles_recorded == 3

    def test_summary_reports_peaks_and_means(self):
        metrics = MetricsCollector()
        metrics.record_cycle(buffered=2, vc_stalls=0, backlog=0)
        metrics.record_cycle(buffered=6, vc_stalls=0, backlog=0)
        summary = metrics.summary()
        assert summary["peak_buffer_occupancy"] == 6.0
        assert summary["mean_buffer_occupancy"] == 4.0
        assert set(summary) == {
            f"{stat}_{name}" for stat in ("peak", "mean") for name in SERIES_NAMES
        }


class TestFlitTracer:
    def _populated(self):
        tracer = FlitTracer()
        tracer.eject(9, 1, 0, 3, 0)
        tracer.inject(0, 1, 0, 2, 0)
        tracer.link_traverse(4, 1, 0, 5, 2, 0)
        tracer.vc_grant(5, 1, 0, 5, 1, 1)
        tracer.sa_grant(6, 1, 0, 5, 2, 0)
        return tracer

    def test_canonical_order_sorts_events(self):
        tracer = self._populated()
        events = tracer.canonical_events()
        assert events == sorted(events)
        assert [event[0] for event in events] == [0, 4, 5, 6, 9]
        assert len(tracer) == 5

    def test_jsonl_roundtrip(self):
        tracer = self._populated()
        assert read_jsonl(io.StringIO(tracer.to_jsonl())) == tracer.canonical_events()

    def test_jsonl_lines_are_named_records(self):
        tracer = self._populated()
        first = json.loads(tracer.to_jsonl().splitlines()[0])
        assert first == {
            "cycle": 0, "packet": 1, "flit": 0, "kind": "inject",
            "node": 2, "port": -1, "vc": 0,
        }
        assert first["kind"] in TRACE_KINDS

    def test_chrome_trace_structure(self):
        document = self._populated().to_chrome_trace(metadata={"engine": "vectorized"})
        # Valid JSON end to end (what Perfetto actually parses).
        document = json.loads(json.dumps(document))
        assert document["otherData"]["engine"] == "vectorized"
        events = document["traceEvents"]
        spans = [event for event in events if event["ph"] in ("b", "e")]
        assert {event["ph"] for event in spans} == {"b", "e"}
        (begin,) = [event for event in spans if event["ph"] == "b"]
        (end,) = [event for event in spans if event["ph"] == "e"]
        assert begin["id"] == end["id"] == 1
        assert (begin["ts"], end["ts"]) == (0, 9)
        instants = [event for event in events if event["ph"] == "i"]
        assert len(instants) == 5
        assert {event["name"] for event in instants} <= set(TRACE_KINDS)

    def test_incomplete_packet_has_no_span(self):
        tracer = FlitTracer()
        tracer.inject(0, 7, 0, 1, 0)
        document = tracer.to_chrome_trace()
        assert not [e for e in document["traceEvents"] if e["ph"] in ("b", "e")]


class TestProvenance:
    def test_config_digest_is_stable_and_sensitive(self):
        a = SimulationConfig(seed=1)
        b = SimulationConfig(seed=1)
        c = SimulationConfig(seed=2)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    def test_build_manifest_fields(self):
        manifest = build_manifest(
            config=FAST_CONFIG, engine="vectorized", seed=7, wall_time_s=0.25,
            extra={"candidate": "x"},
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["engine"] == "vectorized"
        assert manifest["seed"] == 7
        assert manifest["config_hash"] == config_digest(FAST_CONFIG)
        assert manifest["config"]["warmup_cycles"] == 50
        assert manifest["candidate"] == "x"
        assert isinstance(manifest["numpy_version"], str)

    def test_extra_key_collision_raises(self):
        with pytest.raises(ValueError, match="collide"):
            build_manifest(extra={"schema": 99})

    def test_git_revision_returns_string(self):
        assert isinstance(git_revision(), str)
        assert git_revision(default="fallback", cwd="/") == "fallback"


class TestSweepProgressTracker:
    class _Record:
        def __init__(self, from_cache, wall_time_s=None):
            self.from_cache = from_cache
            self.wall_time_s = wall_time_s

    def test_rates_eta_and_cache_ratio(self):
        now = [0.0]
        tracker = SweepProgressTracker(jobs=2, clock=lambda: now[0])
        now[0] = 2.0
        progress = tracker.update(1, 4, self._Record(False, wall_time_s=3.0))
        assert progress.candidates_per_s == pytest.approx(0.5)
        assert progress.eta_s == pytest.approx(6.0)
        assert progress.cache_hit_ratio == 0.0
        assert progress.worker_utilization == pytest.approx(0.75)
        now[0] = 4.0
        progress = tracker.update(4, 4, self._Record(True))
        assert progress.finished
        assert progress.cache_hits == 1 and progress.fresh == 1
        assert progress.cache_hit_ratio == pytest.approx(0.5)
        assert progress.eta_s == 0.0

    def test_format_helpers(self):
        assert format_duration(0.5) == "500ms"
        assert format_duration(12.34) == "12.3s"
        assert format_duration(125) == "2m05s"
        now = [0.0]
        tracker = SweepProgressTracker(clock=lambda: now[0])
        now[0] = 1.0
        progress = tracker.update(1, 2, self._Record(False, wall_time_s=0.8))
        line = format_progress(progress, "hexamesh-19")
        assert "[1/2]" in line and "hexamesh-19" in line
        assert "sim 800ms" in line and "ETA" in line and "cache 0%" in line
        summary = format_summary(progress)
        assert "0 hits / 1 simulated" in summary
        assert "worker utilisation" in summary


class TestStageProfiler:
    def test_accumulates_per_stage(self):
        profiler = StageProfiler()
        profiler.add("va", 0.5)
        profiler.add("va", 0.25)
        profiler.add("sa", 0.1)
        assert profiler.seconds["va"] == pytest.approx(0.75)
        assert profiler.calls["va"] == 2
        assert profiler.total_seconds() == pytest.approx(0.85)
        assert list(profiler.as_dict()) == ["va", "sa"]

    def test_time_context_manager(self):
        profiler = StageProfiler()
        with profiler.time("deliver"):
            pass
        assert profiler.calls["deliver"] == 1
        assert profiler.seconds["deliver"] >= 0.0
        assert "deliver" in KERNEL_STAGES


class TestTelemetrySession:
    def test_full_enables_everything(self):
        session = TelemetrySession.full()
        assert session.metrics is not None
        assert session.tracer is not None
        assert session.profiler is not None
        assert session.observes_network

    def test_default_session_observes_nothing(self):
        assert not TelemetrySession().observes_network
        assert TelemetrySession(profiler=StageProfiler()).observes_network is False


class TestSweepRunnerTelemetry:
    GRID = ParallelSweepRunner.grid(("hexamesh",), (7,), (0.05,), ("uniform",))

    def test_manifest_embedded_in_store_entry(self, tmp_path):
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path)
        (record,) = runner.run(self.GRID)
        (key,) = runner.store.keys()
        manifest = runner.store.get(key).manifest
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == record.seed
        assert manifest["engine"] == runner._engine
        assert manifest["wall_time_s"] == pytest.approx(record.wall_time_s)
        assert manifest["candidate"]["kind"] == "hexamesh"
        assert manifest["cache_key"] == key
        assert manifest["config"]["seed"] == record.seed

    def test_wall_time_fresh_vs_cache_hit(self, tmp_path):
        (fresh,) = ParallelSweepRunner(
            FAST_CONFIG, jobs=1, cache_dir=tmp_path
        ).run(self.GRID)
        assert fresh.wall_time_s is not None and fresh.wall_time_s > 0
        (cached,) = ParallelSweepRunner(
            FAST_CONFIG, jobs=1, cache_dir=tmp_path
        ).run(self.GRID)
        assert cached.from_cache
        assert cached.wall_time_s is None

    def test_records_compare_equal_across_wall_times(self, tmp_path):
        (fresh,) = ParallelSweepRunner(
            FAST_CONFIG, jobs=1, cache_dir=tmp_path
        ).run(self.GRID)
        (cached,) = ParallelSweepRunner(
            FAST_CONFIG, jobs=1, cache_dir=tmp_path
        ).run(self.GRID)
        assert fresh.result == cached.result
        assert fresh.seed == cached.seed


class TestBenchTelemetry:
    def test_overhead_scenario_registered(self):
        from repro import bench

        assert "telemetry-overhead-hexamesh61" in bench.available_scenarios(quick=True)
        assert ("telemetry-overhead-hexamesh61", "vectorized") in bench.HEADLINE_FLOORS

    def test_merge_extras_recomputes_overhead_ratio(self):
        from repro.bench import _merge_extras

        merged = _merge_extras(
            [
                {"plain_wall_seconds": 2.0, "telemetry_on_wall_seconds": 3.0},
                {"plain_wall_seconds": 1.0, "telemetry_on_wall_seconds": 4.0},
            ]
        )
        assert merged["plain_wall_seconds"] == 1.0
        assert merged["telemetry_on_wall_seconds"] == 3.0
        assert merged["telemetry_overhead_ratio"] == pytest.approx(3.0)


class TestCliTelemetry:
    def test_simulate_exports(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "simulate", "hexamesh", "7", "--cycles", "100",
                "--metrics-out", str(metrics_path),
                "--trace-out", str(trace_path),
                "--trace-jsonl", str(jsonl_path),
            ]
        )
        assert exit_code == 0
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics["series"]) == set(SERIES_NAMES)
        assert metrics["cycles_recorded"] == metrics["total_cycles"]
        assert metrics["provenance"]["engine"] == "vectorized"
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        with open(jsonl_path, encoding="utf-8") as handle:
            events = read_jsonl(handle)
        assert events == sorted(events) and events

    def test_trace_check_passes(self, tmp_path, capsys):
        output = tmp_path / "trace.json"
        exit_code = main(
            [
                "trace", "hexamesh", "7", "--cycles", "100",
                "--output", str(output), "--check",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "trace equivalence check passed" in out
        assert json.loads(output.read_text())["traceEvents"]

    def test_sweep_progress_detail_and_summary(self, tmp_path, capsys):
        exit_code = main(
            [
                "sweep", "--kinds", "hexamesh", "--chiplets", "7",
                "--rates", "0.05", "--cycles", "100",
                "--cache-dir", str(tmp_path), "--progress", "detail",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "cand/s" in err
        assert "cache: 0 hits / 1 simulated" in err
        # A second run resolves from cache and says so in the summary.
        exit_code = main(
            [
                "sweep", "--kinds", "hexamesh", "--chiplets", "7",
                "--rates", "0.05", "--cycles", "100",
                "--cache-dir", str(tmp_path), "--progress", "quiet",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "cache: 1 hits / 0 simulated (100% hit ratio)" in err
