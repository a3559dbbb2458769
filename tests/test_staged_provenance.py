"""Provenance accuracy under the staged-pipeline engine fallback.

The ``vectorized`` engine implements the single-stage router pipeline
only; under ``router_pipeline="staged"`` it transparently runs the
bit-identical ``active`` engine instead.  These tests pin the
provenance contract around that fallback: store entries and manifests
record the engine that *actually* ran (so ``hexamesh store verify`` can
replay them bit-for-bit), :attr:`NocSimulator.last_engine` exposes the
resolved engine, and the fallback warns exactly once per process.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.parallel import ParallelSweepRunner
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator, _reset_staged_fallback_warning
from repro.store import ResultStore
from repro.store.verify import verify_entry

# Every staged-vectorized run below may trigger the (one-shot, process
# wide) fallback warning; the warning-behaviour test re-arms and asserts
# it explicitly via pytest.warns, which overrides this filter.
pytestmark = pytest.mark.filterwarnings(
    "ignore:engine 'vectorized' implements:RuntimeWarning"
)

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
    def test_staged_vectorized_resolves_to_active(self):
        assert NocSimulator.resolve_engine("vectorized", STAGED_CONFIG) == "active"

    def test_single_stage_vectorized_is_unchanged(self):
        assert NocSimulator.resolve_engine("vectorized", SINGLE_CONFIG) == "vectorized"

    def test_last_engine_reports_the_fallback(self):
        grid = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        simulator = NocSimulator(
            grid[0].build_graph(), STAGED_CONFIG, injection_rate=0.05
        )
        simulator.run(engine="vectorized")
        assert simulator.last_engine == "active"

    def test_last_engine_reports_the_request_without_fallback(self):
        grid = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        simulator = NocSimulator(
            grid[0].build_graph(), SINGLE_CONFIG, injection_rate=0.05
        )
        simulator.run(engine="vectorized")
        assert simulator.last_engine == "vectorized"

    def test_fallback_warns_exactly_once_per_process(self):
        _reset_staged_fallback_warning()
        with pytest.warns(RuntimeWarning, match="running the bit-identical 'active'"):
            NocSimulator.resolve_engine("vectorized", STAGED_CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (
                NocSimulator.resolve_engine("vectorized", STAGED_CONFIG) == "active"
            )


class TestStagedManifestsTellTheTruth:
    def test_staged_sweep_entry_records_active_and_replays(self, tmp_path):
        _reset_staged_fallback_warning()
        runner = ParallelSweepRunner(
            STAGED_CONFIG, jobs=1, cache_dir=tmp_path, engine="vectorized"
        )
        candidates = ParallelSweepRunner.grid(["grid"], [7], [0.05])
        with pytest.warns(RuntimeWarning):
            records = runner.run(candidates)
        assert not records[0].from_cache
        (entry,) = _entries(tmp_path)
        # The requested engine never ran; the manifest must say so.
        assert entry.manifest["engine"] == "active"
        # ...and precisely because it does, verify replays bit-for-bit.
        outcome = verify_entry(entry)
        assert outcome.ok, outcome

    def test_batched_staged_entries_record_active_and_replay(self, tmp_path):
        _reset_staged_fallback_warning()
        runner = ParallelSweepRunner(
            STAGED_CONFIG, jobs=1, cache_dir=tmp_path, engine="vectorized"
        )
        candidates = ParallelSweepRunner.grid(["grid"], [7], [0.05, 0.3])
        with pytest.warns(RuntimeWarning):
            records = runner.run(candidates)
        entries = _entries(tmp_path)
        assert len(entries) == 2
        for entry in entries:
            assert entry.manifest["engine"] == "active"
            outcome = verify_entry(entry)
            assert outcome.ok, outcome
        # Grouped staged-fallback results stay bit-identical to the
        # engine that actually ran them.
        golden = ParallelSweepRunner(STAGED_CONFIG, jobs=1, engine="active").run(
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
