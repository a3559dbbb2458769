"""The parallel sweep runner: determinism, caching, progress and ordering."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core.parallel import (
    ParallelSweepRunner,
    SweepCandidate,
    SweepRecord,
    default_chunk_size,
    derive_candidate_seed,
    parallel_map,
    resolve_workload_candidate,
    simulation_result_from_dict,
    simulation_result_to_dict,
)
from repro.noc.config import SimulationConfig
from repro.noc.engine import ENGINE_NAMES
from repro.noc.simulator import NocSimulator
from repro.store import ResultStore

FAST_CONFIG = SimulationConfig(
    warmup_cycles=40, measurement_cycles=80, drain_cycles=160
)

GRID = ParallelSweepRunner.grid(
    ["grid", "hexamesh"], [7, 9], [0.05, 0.3], ["uniform"]
)


def _square(item):
    return item * item


class TestParallelMap:
    def test_inline_matches_parallel(self):
        items = list(range(23))
        assert parallel_map(_square, items) == parallel_map(_square, items, jobs=4)

    def test_order_is_preserved(self):
        items = list(range(50))
        assert parallel_map(_square, items, jobs=3, chunk_size=7) == [
            value * value for value in items
        ]

    def test_progress_reports_every_item(self):
        events = []
        parallel_map(_square, range(10), jobs=2, chunk_size=2,
                     progress=lambda done, total, value: events.append((done, total)))
        assert len(events) == 10
        assert events[-1] == (10, 10)
        assert [done for done, _ in events] == sorted(done for done, _ in events)

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], jobs=0)

    def test_default_chunk_size(self):
        assert default_chunk_size(100, 4) == 6
        assert default_chunk_size(3, 8) == 1


class TestSeeding:
    def test_seeds_are_deterministic(self):
        candidate = GRID[0]
        assert derive_candidate_seed(1, candidate) == derive_candidate_seed(1, candidate)

    def test_seeds_depend_on_candidate_and_base(self):
        seeds = {derive_candidate_seed(1, candidate) for candidate in GRID}
        assert len(seeds) == len(GRID)
        assert derive_candidate_seed(1, GRID[0]) != derive_candidate_seed(2, GRID[0])

    def test_seeds_are_positive(self):
        for candidate in GRID:
            assert derive_candidate_seed(1, candidate) > 0


class TestSweepRunner:
    def test_jobs_1_equals_jobs_4(self):
        serial = ParallelSweepRunner(FAST_CONFIG, jobs=1).run(GRID)
        parallel = ParallelSweepRunner(FAST_CONFIG, jobs=4).run(GRID)
        assert serial == parallel

    def test_records_preserve_candidate_order(self):
        records = ParallelSweepRunner(FAST_CONFIG, jobs=2).run(GRID)
        assert [record.candidate for record in records] == GRID

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "sweep-cache"
        first = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=cache).run(GRID)
        assert not any(record.from_cache for record in first)
        second = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=cache).run(GRID)
        assert all(record.from_cache for record in second)
        for fresh, cached in zip(first, second):
            assert fresh.result == cached.result
            assert fresh.seed == cached.seed

    def test_cache_keys_differ_per_config(self, tmp_path):
        runner = ParallelSweepRunner(FAST_CONFIG, cache_dir=tmp_path)
        other_config = SimulationConfig(
            warmup_cycles=40, measurement_cycles=80, drain_cycles=160, seed=7
        )
        candidate = GRID[0]
        assert runner.cache_key(candidate, FAST_CONFIG) != runner.cache_key(
            candidate, other_config
        )

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path)
        records = runner.run(GRID[:1])
        (key,) = runner.store.keys()
        with open(runner.store.entry_path(key), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        again = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path).run(GRID[:1])
        assert not again[0].from_cache
        assert again[0].result == records[0].result

    def test_progress_callback_sees_every_record(self):
        events = []
        ParallelSweepRunner(FAST_CONFIG, jobs=2).run(
            GRID,
            progress=lambda done, total, record: events.append((done, total, record)),
        )
        assert len(events) == len(GRID)
        assert events[-1][0] == len(GRID)
        assert all(isinstance(record, SweepRecord) for _, _, record in events)

    def test_fixed_seed_mode(self):
        runner = ParallelSweepRunner(FAST_CONFIG, derive_seeds=False)
        records = runner.run(GRID[:2])
        assert {record.seed for record in records} == {FAST_CONFIG.seed}

    def test_custom_graph_candidates(self):
        edges = ((0, 1), (1, 2), (2, 3), (3, 0))
        candidate = SweepCandidate(
            kind="custom",
            num_chiplets=4,
            injection_rate=0.1,
            graph_edges=edges,
        )
        (record,) = ParallelSweepRunner(FAST_CONFIG).run([candidate])
        assert record.result.num_routers == 4
        assert record.result.measured_packets_created > 0

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            SweepCandidate(kind="grid", num_chiplets=0, injection_rate=0.1)
        with pytest.raises(ValueError):
            SweepCandidate(kind="grid", num_chiplets=4, injection_rate=1.5)


class TestBatchKeys:
    def test_batch_key_ignores_only_the_injection_rate(self):
        low = SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.05)
        high = SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.8)
        other_kind = SweepCandidate(kind="hexamesh", num_chiplets=9, injection_rate=0.05)
        other_traffic = SweepCandidate(
            kind="grid", num_chiplets=9, injection_rate=0.05, traffic="tornado"
        )
        assert low.batch_key() == high.batch_key()
        assert low.batch_key() != other_kind.batch_key()
        assert low.batch_key() != other_traffic.batch_key()

    def test_fault_fields_separate_batches(self):
        healthy = SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.1)
        faulted = SweepCandidate(
            kind="grid", num_chiplets=9, injection_rate=0.1, failed_links=((0, 1),)
        )
        assert healthy.batch_key() != faulted.batch_key()

    def test_seeds_stay_per_point(self):
        """Batching shares builds, never seeds: rate stays in the seed key."""
        low = SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.05)
        high = SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.8)
        assert derive_candidate_seed(1, low) != derive_candidate_seed(1, high)


#: A grid mixing every dispatch shape, in interleaved order: three
#: multi-rate groups (healthy, faulted and workload) and a healthy and a
#: faulted singleton.
MIXED_GRID = [
    SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.05),
    SweepCandidate(kind="hexamesh", num_chiplets=7, injection_rate=0.1),
    SweepCandidate(
        kind="grid", num_chiplets=9, injection_rate=0.05, failed_links=((0, 1),)
    ),
    SweepCandidate(kind="grid", num_chiplets=9, injection_rate=0.3),
    *ParallelSweepRunner.workload_grid(
        ("hexamesh",), (7,), ("dnn-pipeline",), ("partition",),
        injection_rates=(0.05, 0.2),
    ),
    SweepCandidate(
        kind="grid", num_chiplets=9, injection_rate=0.3, failed_links=((0, 1),)
    ),
    SweepCandidate(
        kind="hexamesh", num_chiplets=9, injection_rate=0.1, failed_links=((0, 1),)
    ),
]


def _per_candidate_results(candidates, config=FAST_CONFIG):
    """Reference: one fresh legacy-engine ``NocSimulator.run`` per candidate."""
    results = []
    for candidate in candidates:
        if candidate.workload is not None:
            graph, _, _, traffic = resolve_workload_candidate(candidate, config)
        else:
            graph, traffic = candidate.build_graph(), candidate.traffic
        seed = derive_candidate_seed(config.seed, candidate)
        simulator = NocSimulator(
            graph,
            replace(config, seed=seed),
            injection_rate=candidate.injection_rate,
            traffic=traffic,
        )
        results.append(simulator.run(engine="legacy"))
    return results


@pytest.fixture(scope="module")
def mixed_reference():
    return _per_candidate_results(MIXED_GRID)


def _dispatched_items(monkeypatch, *, jobs, candidates):
    """Run ``candidates`` and return the work items the runner dispatched.

    Inline runs (``jobs=1``) call the evaluator directly; pooled runs hand
    it to :func:`parallel_map`, which is spied on instead because a
    patched evaluator would not pickle into the workers.
    """
    import repro.core.parallel as parallel_module

    dispatched = []
    if jobs == 1:
        real_evaluate = parallel_module._evaluate_work_item

        def spy_evaluate(item, on_result=None):
            dispatched.append(item)
            return real_evaluate(item, on_result)

        monkeypatch.setattr(parallel_module, "_evaluate_work_item", spy_evaluate)
    else:
        real_map = parallel_module.parallel_map

        def spy_map(function, items, **kwargs):
            items = list(items)
            dispatched.extend(items)
            return real_map(function, items, **kwargs)

        monkeypatch.setattr(parallel_module, "parallel_map", spy_map)
    ParallelSweepRunner(FAST_CONFIG, jobs=jobs).run(candidates)
    return dispatched


class TestRunnerContract:
    """Grouping by shared structure never changes a record."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_records_equal_per_candidate_runs(self, mixed_reference, engine, jobs):
        records = ParallelSweepRunner(FAST_CONFIG, jobs=jobs, engine=engine).run(
            MIXED_GRID
        )
        assert [record.candidate for record in records] == MIXED_GRID
        assert [record.result for record in records] == mixed_reference
        assert [record.seed for record in records] == [
            derive_candidate_seed(FAST_CONFIG.seed, c) for c in MIXED_GRID
        ]

    def test_groups_by_structure_at_one_job(self, monkeypatch):
        items = _dispatched_items(monkeypatch, jobs=1, candidates=MIXED_GRID)
        assert [[index for index, _, _ in entries] for entries, _, _ in items] == [
            [0, 3], [1], [2, 6], [4, 5], [7],
        ]

    def test_two_point_group_splits_across_two_workers(self, monkeypatch):
        candidates = ParallelSweepRunner.grid(["grid"], [9], [0.05, 0.3])
        items = _dispatched_items(monkeypatch, jobs=2, candidates=candidates)
        assert [[index for index, _, _ in entries] for entries, _, _ in items] == [
            [0], [1],
        ]

    @pytest.mark.parametrize(("jobs", "kept"), [(1, 1), (2, 3)])
    def test_raising_progress_keeps_every_simulated_point(self, tmp_path, jobs, kept):
        # Four arrangements x three rates.  Inline, each point is stored
        # and reported before the next one runs; across two workers the
        # grid travels as four 3-point items, each stored whole before
        # any of its points is reported.
        candidates = ParallelSweepRunner.grid(
            ["grid", "hexamesh"], [7, 9], [0.05, 0.1, 0.3]
        )

        class Stop(Exception):
            pass

        def stop(_done, _total, _record):
            raise Stop

        cache = str(tmp_path / "cache")
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=jobs, cache_dir=cache)
        with pytest.raises(Stop):
            runner.run(candidates, progress=stop)
        rerun = ParallelSweepRunner(FAST_CONFIG, cache_dir=cache).run(candidates)
        assert sum(record.from_cache for record in rerun) == kept

    def test_cache_entries_interchange_across_jobs(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = ParallelSweepRunner(FAST_CONFIG, jobs=2, cache_dir=cache).run(GRID)
        assert all(not record.from_cache for record in first)
        second = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=cache).run(GRID)
        assert all(record.from_cache for record in second)
        assert [r.result for r in second] == [r.result for r in first]

    def test_progress_reports_every_candidate(self):
        seen = []
        ParallelSweepRunner(FAST_CONFIG, jobs=1).run(
            GRID, progress=lambda done, total, record: seen.append((done, total))
        )
        assert seen == [(done, len(GRID)) for done in range(1, len(GRID) + 1)]

    def test_derive_seeds_false_runs_every_point_on_the_base_seed(self):
        records = ParallelSweepRunner(FAST_CONFIG, derive_seeds=False).run(GRID)
        assert {record.seed for record in records} == {FAST_CONFIG.seed}
        for record in records[:2]:
            expected = NocSimulator(
                record.candidate.build_graph(),
                FAST_CONFIG,
                injection_rate=record.candidate.injection_rate,
            ).run(engine="legacy")
            assert record.result == expected


class TestCacheTmpHygiene:
    """Stale temp files in the store's objects tree get swept on open."""

    def _dead_pid(self):
        import subprocess
        import sys

        probe = subprocess.Popen([sys.executable, "-c", ""])
        probe.wait()
        return probe.pid

    def _plant(self, root, name):
        shard = root / "objects" / "aa"
        shard.mkdir(parents=True, exist_ok=True)
        path = shard / name
        path.write_text("{}")
        return path

    def test_orphans_swept_live_writers_and_bystanders_spared(self, tmp_path):
        ResultStore(str(tmp_path))  # generation 1; the next open is 2
        orphan = self._plant(tmp_path, f"{'a' * 64}.json.tmp.g1.p{self._dead_pid()}")
        live = self._plant(tmp_path, f"{'b' * 64}.json.tmp.g1.p{os.getpid()}")
        bystander = tmp_path / "objects" / "aa" / "notes.txt"
        bystander.write_text("keep me")
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path)
        runner.run(GRID[:1])
        assert not orphan.exists()
        assert live.exists()
        assert bystander.exists()

    def test_pid_reuse_cannot_kill_a_current_generation_writer(self, tmp_path):
        # The regression the generation guard exists for: a temp file of
        # the sweeper's own (or a newer) generation belongs to a live
        # concurrent writer, and must be spared even when its pid probes
        # dead — a recycled pid says nothing about the writer that holds
        # the current generation.
        ResultStore(str(tmp_path))  # generation 1; the next open is 2
        same_gen = self._plant(tmp_path, f"{'c' * 64}.json.tmp.g2.p{self._dead_pid()}")
        newer_gen = self._plant(tmp_path, f"{'d' * 64}.json.tmp.g9.p{self._dead_pid()}")
        store = ResultStore(str(tmp_path))
        assert store.generation == 2
        assert same_gen.exists()
        assert newer_gen.exists()
        assert store.sweep_orphans() == 0

    def test_sweep_only_matches_the_temp_pattern(self, tmp_path):
        # Store entries themselves and non-matching suffixes must survive.
        entry = self._plant(tmp_path, f"{'e' * 64}.json")
        odd = self._plant(tmp_path, f"{'f' * 64}.json.tmp.notapid")
        store = ResultStore(str(tmp_path))
        assert store.sweep_orphans() == 0
        assert entry.exists()
        assert odd.exists()

    def test_failed_store_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.store.store as store_module

        (record,) = ParallelSweepRunner(FAST_CONFIG, jobs=1).run(GRID[:1])
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path)
        assert runner.store is not None  # open before json.dump is broken

        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.json, "dump", boom)
        with pytest.raises(OSError, match="disk full"):
            runner._cache_store("e" * 64, GRID[0], record.result)
        leftovers = [
            str(path) for path in tmp_path.rglob("*") if ".tmp." in path.name
        ]
        assert leftovers == []


class TestResultSerialization:
    def test_round_trip_preserves_every_field(self):
        (record,) = ParallelSweepRunner(FAST_CONFIG).run(GRID[:1])
        data = json.loads(json.dumps(simulation_result_to_dict(record.result)))
        assert simulation_result_from_dict(data) == record.result

    def test_nan_latencies_survive_round_trip(self):
        # A zero-injection run produces empty (NaN) latency statistics.
        candidate = SweepCandidate(kind="grid", num_chiplets=4, injection_rate=0.0)
        (record,) = ParallelSweepRunner(FAST_CONFIG).run([candidate])
        data = json.loads(json.dumps(simulation_result_to_dict(record.result)))
        rebuilt = simulation_result_from_dict(data)
        assert rebuilt.measured_packets_created == 0
        assert rebuilt.throughput == record.result.throughput
