"""Provenance accuracy for staged-pipeline configurations.

The ``vectorized`` engine implements the single-stage router pipeline
only; the ``legacy`` loop is the one engine that steps the staged router,
so under ``router_pipeline="staged"`` every engine request resolves to
``legacy``.  These tests pin the provenance contract around that
resolution: store entries and manifests record the engine that
*actually* ran, :attr:`NocSimulator.last_engine` exposes the resolved
engine, and ``hexamesh store verify`` replays staged entries bit-for-bit.
"""

from __future__ import annotations

from repro.core.parallel import ParallelSweepRunner
from repro.core.verify import verify_entry
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator
from repro.store import ResultStore

STAGED_CONFIG = SimulationConfig(
    warmup_cycles=40,
    measurement_cycles=80,
    drain_cycles=160,
    router_pipeline="staged",
)

SINGLE_CONFIG = SimulationConfig(
    warmup_cycles=40, measurement_cycles=80, drain_cycles=160
)


def _entries(store_dir):
    store = ResultStore(str(store_dir))
    return [store.get(key) for key in store.keys()]


class TestResolveEngine:
    def test_staged_vectorized_resolves_to_legacy(self):
        assert NocSimulator.resolve_engine("vectorized", STAGED_CONFIG) == "legacy"

    def test_staged_legacy_is_unchanged(self):
        assert NocSimulator.resolve_engine("legacy", STAGED_CONFIG) == "legacy"

    def test_single_stage_vectorized_is_unchanged(self):
        assert NocSimulator.resolve_engine("vectorized", SINGLE_CONFIG) == "vectorized"

    def test_last_engine_reports_the_resolved_engine(self):
        grid = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        simulator = NocSimulator(
            grid[0].build_graph(), STAGED_CONFIG, injection_rate=0.05
        )
        simulator.run()
        assert simulator.last_engine == "legacy"

    def test_last_engine_reports_the_request_for_single_stage(self):
        grid = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        simulator = NocSimulator(
            grid[0].build_graph(), SINGLE_CONFIG, injection_rate=0.05
        )
        simulator.run(engine="vectorized")
        assert simulator.last_engine == "vectorized"


class TestStagedManifestsTellTheTruth:
    def test_staged_sweep_entry_records_legacy_and_replays(self, tmp_path):
        runner = ParallelSweepRunner(
            STAGED_CONFIG, jobs=1, cache_dir=tmp_path, engine="vectorized"
        )
        candidates = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        records = runner.run(candidates)
        assert not records[0].from_cache
        (entry,) = _entries(tmp_path)
        # The requested engine never ran; the manifest must say so.
        assert entry.manifest["engine"] == "legacy"
        outcome = verify_entry(entry)
        assert outcome.ok, outcome
        assert outcome.detail.endswith("(legacy)")

    def test_batched_staged_entries_record_legacy_and_replay(self, tmp_path):
        runner = ParallelSweepRunner(
            STAGED_CONFIG, jobs=1, cache_dir=tmp_path, engine="vectorized"
        )
        candidates = ParallelSweepRunner.grid(["grid"], [7], [0.05, 0.3])
        records = runner.run(candidates)
        entries = _entries(tmp_path)
        assert len(entries) == 2
        for entry in entries:
            assert entry.manifest["engine"] == "legacy"
            outcome = verify_entry(entry)
            assert outcome.ok, outcome
        # Grouped staged results stay bit-identical to the engine that
        # actually ran them.
        golden = ParallelSweepRunner(STAGED_CONFIG, jobs=1, engine="legacy").run(
            candidates
        )
        assert [record.result for record in records] == [
            record.result for record in golden
        ]

    def test_single_stage_manifest_still_records_the_request(self, tmp_path):
        runner = ParallelSweepRunner(
            SINGLE_CONFIG, jobs=1, cache_dir=tmp_path, engine="vectorized"
        )
        runner.run(ParallelSweepRunner.grid(["grid"], [7], [0.05]))
        (entry,) = _entries(tmp_path)
        assert entry.manifest["engine"] == "vectorized"
