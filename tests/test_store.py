"""The content-addressed result store: layout, safety, migration, verify.

Edge-case coverage the ISSUE calls out explicitly: corrupt-entry
quarantine, version-mismatch rejection, legacy-layout migration
round-trips, interrupted-write recovery, and the generation guard that
makes the orphan sweep safe against pid reuse.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import asdict, replace

import pytest

from repro.core.parallel import ParallelSweepRunner, SweepCandidate
from repro.core.verify import sample_keys, verify_entry, verify_store
from repro.noc.config import SimulationConfig, config_identity_dict
from repro.store import (
    KEY_SCHEMA,
    STORE_SCHEMA,
    ResultStore,
    StoreSchemaError,
    is_result_key,
    result_key,
)

FAST_CONFIG = SimulationConfig(warmup_cycles=40, measurement_cycles=80, drain_cycles=160)

KEY_A = "a" * 64
KEY_B = "b" * 64


def _entry_payload(key, *, schema=STORE_SCHEMA, **overrides):
    payload = {
        "schema": schema,
        "key": key,
        "candidate": {"kind": "hexamesh"},
        "result": {"value": 1},
        "manifest": None,
    }
    payload.update(overrides)
    return payload


def _write_entry_file(store, key, payload):
    path = store.entry_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


class TestResultKey:
    def test_matches_the_legacy_flat_cache_computation(self):
        candidate = {"kind": "hexamesh", "num_chiplets": 16}
        config = asdict(FAST_CONFIG)
        payload = {"schema": KEY_SCHEMA, "candidate": candidate, "config": config}
        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert result_key(candidate, config) == expected

    def test_key_shape(self):
        key = result_key({"kind": "grid"}, {})
        assert is_result_key(key)
        assert not is_result_key("nope")
        assert not is_result_key(KEY_A.upper())


class TestStoreBasics:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.load(KEY_A) is None
        path = store.store(KEY_A, candidate={"kind": "grid"}, result={"v": 2})
        assert path == store.entry_path(KEY_A)
        assert os.sep + "objects" + os.sep + KEY_A[:2] + os.sep in path
        entry = store.load(KEY_A)
        assert entry.candidate == {"kind": "grid"}
        assert entry.result == {"v": 2}
        assert entry.manifest is None
        assert (store.counters.hits, store.counters.misses, store.counters.writes) == (1, 1, 1)
        assert store.counters.hit_ratio == 0.5

    def test_contains_keys_and_iter(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store(KEY_B, candidate={}, result={})
        store.store(KEY_A, candidate={}, result={})
        assert store.contains(KEY_A) and not store.contains("c" * 64)
        assert store.keys() == [KEY_A, KEY_B]
        assert [entry.key for entry in store.iter_entries()] == [KEY_A, KEY_B]

    def test_generation_increments_per_open(self, tmp_path):
        first = ResultStore(str(tmp_path))
        second = ResultStore(str(tmp_path))
        assert (first.generation, second.generation) == (1, 2)
        meta = json.loads((tmp_path / "store.json").read_text())
        assert meta == {"schema": STORE_SCHEMA, "generation": 2}

    def test_same_key_writers_converge(self, tmp_path):
        # Two store instances (stand-ins for two processes) publish the
        # same key; whichever replace lands last, the entry is complete
        # and identical — deterministic seeds make the payloads equal.
        writer_a = ResultStore(str(tmp_path))
        writer_b = ResultStore(str(tmp_path))
        writer_a.store(KEY_A, candidate={"kind": "grid"}, result={"v": 3})
        writer_b.store(KEY_A, candidate={"kind": "grid"}, result={"v": 3})
        entry = ResultStore(str(tmp_path)).get(KEY_A)
        assert entry.result == {"v": 3}
        assert ResultStore(str(tmp_path)).stats().entries == 1


class TestCorruptEntryQuarantine:
    def test_unparseable_entry_is_quarantined_and_missed(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.entry_path(KEY_A)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.load(KEY_A) is None
        assert not os.path.exists(path)
        quarantined = os.listdir(tmp_path / "quarantine")
        assert quarantined == [f"{KEY_A}.json"]
        assert store.counters.quarantined == 1

    def test_wrong_key_entry_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path))
        _write_entry_file(store, KEY_A, _entry_payload(KEY_B))
        assert store.load(KEY_A) is None
        assert not store.contains(KEY_A)
        assert len(os.listdir(tmp_path / "quarantine")) == 1

    def test_quarantine_never_overwrites(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for _ in range(2):
            _write_entry_file(store, KEY_A, _entry_payload(KEY_A, candidate="bad"))
            assert store.load(KEY_A) is None
        assert sorted(os.listdir(tmp_path / "quarantine")) == [
            f"{KEY_A}.json",
            f"{KEY_A}.json.1",
        ]

    def test_gc_purges_quarantine(self, tmp_path):
        store = ResultStore(str(tmp_path))
        _write_entry_file(store, KEY_A, _entry_payload(KEY_A, candidate="bad"))
        store.load(KEY_A)
        kept = store.gc(purge_quarantine=False)
        assert kept.removed_quarantined == 0
        purged = store.gc()
        assert purged.removed_quarantined == 1
        assert purged.freed_bytes > 0
        assert not (tmp_path / "quarantine").exists()


class TestVersionMismatch:
    def test_newer_store_schema_is_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text(
            json.dumps({"schema": STORE_SCHEMA + 1, "generation": 5})
        )
        with pytest.raises(StoreSchemaError, match="newer than"):
            ResultStore(str(tmp_path))

    def test_non_integer_schema_is_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({"schema": "two"}))
        with pytest.raises(StoreSchemaError):
            ResultStore(str(tmp_path))

    def test_unreadable_meta_is_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text("{broken")
        with pytest.raises(StoreSchemaError, match="unreadable"):
            ResultStore(str(tmp_path))

    def test_other_entry_schema_is_a_miss_not_a_quarantine(self, tmp_path):
        # A cleanly versioned entry from a different (future) entry schema
        # is rejected as a miss but left in place: the caller recomputes
        # and atomically overwrites it, nothing is destroyed.
        store = ResultStore(str(tmp_path))
        path = _write_entry_file(
            store, KEY_A, _entry_payload(KEY_A, schema=STORE_SCHEMA + 1)
        )
        assert store.load(KEY_A) is None
        assert os.path.exists(path)
        assert not (tmp_path / "quarantine").exists()


class TestLegacyMigration:
    def _flat_entry(self, root, key, *, with_manifest=True, schema=1):
        (root / f"{key}.json").write_text(
            json.dumps(
                {"schema": schema, "candidate": {"kind": "grid"}, "result": {"v": 7}}
            )
        )
        if with_manifest:
            (root / f"{key}.manifest.json").write_text(json.dumps({"engine": "active"}))

    def test_flat_layout_migrates_once_with_manifests_folded_in(self, tmp_path):
        self._flat_entry(tmp_path, KEY_A)
        self._flat_entry(tmp_path, KEY_B, with_manifest=False)
        store = ResultStore(str(tmp_path))
        assert store.preexisting
        assert store.migrated == 2
        entry = store.get(KEY_A)
        assert entry.result == {"v": 7}
        assert entry.manifest == {"engine": "active"}
        assert store.get(KEY_B).manifest is None
        # Flat files (manifest sidecars included) are gone; the second
        # open sees a current-schema store and migrates nothing.
        assert not any(name.endswith(".json") for name in os.listdir(tmp_path) if name != "store.json")
        assert ResultStore(str(tmp_path)).migrated == 0

    def test_migration_round_trip_preserves_cache_hits(self, tmp_path):
        # Results computed under the flat layout must be cache hits after
        # migration: same keys, same payloads.
        cache = tmp_path / "cache"
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=cache)
        grid = ParallelSweepRunner.grid(["hexamesh"], [7], [0.05, 0.3], ["uniform"])
        fresh = runner.run(grid)
        # Demote the store to the flat legacy layout by hand.
        store = runner.store
        for key in store.keys():
            entry = store.get(key)
            (cache / f"{key}.json").write_text(
                json.dumps(
                    {"schema": 1, "candidate": entry.candidate, "result": entry.result}
                )
            )
            (cache / f"{key}.manifest.json").write_text(json.dumps(entry.manifest))
            os.unlink(store.entry_path(key))
        os.unlink(cache / "store.json")
        migrated_runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=cache)
        assert migrated_runner.store.migrated == len(grid)
        warm = migrated_runner.run(grid)
        assert all(record.from_cache for record in warm)
        assert [r.result for r in warm] == [r.result for r in fresh]

    def test_corrupt_flat_entry_is_quarantined_not_migrated(self, tmp_path):
        (tmp_path / f"{KEY_A}.json").write_text("{broken")
        self._flat_entry(tmp_path, KEY_B)
        store = ResultStore(str(tmp_path))
        assert store.migrated == 1
        assert store.get(KEY_B) is not None
        assert len(os.listdir(tmp_path / "quarantine")) == 1

    def test_dead_legacy_writer_tmp_is_cleaned(self, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", ""])
        probe.wait()
        stale = tmp_path / f"{KEY_A}.json.tmp.{probe.pid}"
        stale.write_text("{}")
        self._flat_entry(tmp_path, KEY_B)
        ResultStore(str(tmp_path))
        assert not stale.exists()


class TestInterruptedWriteRecovery:
    def test_partial_tmp_of_dead_writer_is_swept_on_open(self, tmp_path):
        # A writer killed mid-write strands a partial temp file beside its
        # target.  The next open sweeps it, and the key reads as a plain
        # miss — the store never surfaces partial bytes.
        store = ResultStore(str(tmp_path))
        store.store(KEY_A, candidate={}, result={"v": 1})
        probe = subprocess.Popen([sys.executable, "-c", ""])
        probe.wait()
        shard = os.path.dirname(store.entry_path(KEY_B))
        os.makedirs(shard, exist_ok=True)
        partial = os.path.join(shard, f"{KEY_B}.json.tmp.g1.p{probe.pid}")
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "key": "')  # cut mid-write
        reopened = ResultStore(str(tmp_path))
        assert not os.path.exists(partial)
        assert reopened.load(KEY_B) is None
        assert reopened.load(KEY_A).result == {"v": 1}

    def test_stats_reports_orphans_without_removing_them(self, tmp_path):
        store = ResultStore(str(tmp_path))
        shard = os.path.dirname(store.entry_path(KEY_A))
        os.makedirs(shard, exist_ok=True)
        tmp_name = os.path.join(shard, f"{KEY_A}.json.tmp.g{store.generation}.p1")
        with open(tmp_name, "w", encoding="utf-8") as handle:
            handle.write("{}")
        assert store.stats().orphan_tmp == 1
        assert os.path.exists(tmp_name)


    def test_serial_suffixed_tmp_of_dead_writer_is_swept_on_open(self, tmp_path):
        # Temp names may carry a per-process write serial after the pid;
        # the orphan sweep must parse them as it parses serial-less ones.
        store = ResultStore(str(tmp_path))
        probe = subprocess.Popen([sys.executable, "-c", ""])
        probe.wait()
        shard = os.path.dirname(store.entry_path(KEY_B))
        os.makedirs(shard, exist_ok=True)
        orphan = os.path.join(shard, f"{KEY_B}.json.tmp.g1.p{probe.pid}.n17")
        live = os.path.join(shard, f"{KEY_A}.json.tmp.g1.p{os.getpid()}.n18")
        for path in (orphan, live):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{}")
        reopened = ResultStore(str(tmp_path))
        assert not os.path.exists(orphan)
        assert os.path.exists(live)
        assert reopened.stats().orphan_tmp == 1


class TestInProcessWriters:
    def test_threads_opening_and_storing_one_key_never_collide(self, tmp_path):
        # Concurrent handles of one process must never share a temp file,
        # neither for store.json on open nor for one key's entry.
        root = str(tmp_path / "store")
        ResultStore(root)
        threads_count, rounds = 8, 25
        barrier = threading.Barrier(threads_count)
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    store = ResultStore(root)
                    store.store(
                        KEY_A, candidate={"kind": "grid"}, result={"v": 1}
                    )
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(f"thread {index}: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        store = ResultStore(root)
        assert store.load(KEY_A).result == {"v": 1}
        stats = store.stats()
        assert stats.orphan_tmp == 0
        assert stats.entries == 1
        assert not [name for name in os.listdir(root) if ".tmp." in name]


class TestCandidateRoundTrip:
    CANDIDATES = [
        SweepCandidate(kind="hexamesh", num_chiplets=16, injection_rate=0.05),
        SweepCandidate(
            kind="grid",
            num_chiplets=9,
            injection_rate=0.1,
            traffic="neighbor",
            failed_links=((0, 1),),
            failed_routers=(4,),
        ),
        SweepCandidate(
            kind="hexamesh",
            num_chiplets=7,
            injection_rate=0.3,
            workload="dnn-pipeline",
            mapper="partition",
        ),
    ]

    def test_key_dict_inverts_exactly(self):
        for candidate in self.CANDIDATES:
            rebuilt = SweepCandidate.from_key_dict(candidate.key_dict())
            assert rebuilt.key_dict() == candidate.key_dict()

    def test_json_round_trip_inverts(self):
        # What verify actually sees: the key_dict after a JSON round trip
        # (tuples flattened to lists).
        for candidate in self.CANDIDATES:
            data = json.loads(json.dumps(candidate.key_dict()))
            rebuilt = SweepCandidate.from_key_dict(data)
            assert rebuilt.key_dict() == candidate.key_dict()


class TestVerify:
    def _populated(self, tmp_path):
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path)
        runner.run(ParallelSweepRunner.grid(["hexamesh"], [7], [0.05], ["uniform"]))
        return runner.store

    def test_verify_recomputes_bit_for_bit(self, tmp_path):
        store = self._populated(tmp_path)
        (outcome,) = verify_store(store, sample=1)
        assert outcome.ok, outcome.detail

    def test_verify_detects_a_tampered_result(self, tmp_path):
        store = self._populated(tmp_path)
        (key,) = store.keys()
        entry = store.get(key)
        tampered = dict(entry.result)
        tampered["accepted_flit_rate"] = 123.0
        store.store(key, candidate=entry.candidate, result=tampered, manifest=entry.manifest)
        (outcome,) = verify_store(store, sample=1)
        assert outcome.status == "mismatch"

    def test_verify_detects_a_forged_key(self, tmp_path):
        store = self._populated(tmp_path)
        (key,) = store.keys()
        entry = store.get(key)
        store.store(KEY_A, candidate=entry.candidate, result=entry.result, manifest=entry.manifest)
        forged = store.get(KEY_A)
        outcome = verify_entry(forged)
        assert outcome.status == "mismatch"
        assert "hash" in outcome.detail

    def test_entry_recording_a_removed_engine_replays_ok(self, tmp_path):
        # Entries written before the active-set engine was removed record
        # ``"engine": "active"``; the recorded name is provenance only, so
        # verify replays with the default engine and still passes.
        store = self._populated(tmp_path)
        (key,) = store.keys()
        entry = store.get(key)
        manifest = dict(entry.manifest, engine="active")
        store.store(key, candidate=entry.candidate, result=entry.result, manifest=manifest)
        (outcome,) = verify_store(store, sample=1)
        assert store.get(key).manifest["engine"] == "active"
        assert outcome.ok, outcome.detail
        assert "(vectorized)" in outcome.detail

    def test_entry_without_manifest_is_skipped(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.store(KEY_A, candidate={"kind": "grid"}, result={"v": 1})
        outcome = verify_entry(store.get(KEY_A))
        assert outcome.status == "skipped"

    def test_sample_keys_deterministic(self):
        keys = [f"{i:064x}" for i in range(10)]
        assert sample_keys(keys, 3) == sample_keys(list(reversed(keys)), 3)
        assert sample_keys(keys, 99) == sorted(keys)
        assert len(sample_keys(keys, 3)) == 3


class TestRunnerKeyCompatibility:
    def test_runner_cache_key_equals_result_key(self):
        # The runner keys on the config *identity* rendering, which omits
        # router_pipeline at its "single" default — that is exactly what
        # keeps every store entry written before the knob existed valid.
        runner = ParallelSweepRunner(FAST_CONFIG, jobs=1)
        candidate = SweepCandidate(kind="hexamesh", num_chiplets=16, injection_rate=0.05)
        config = replace(FAST_CONFIG, seed=runner.candidate_seed(candidate))
        assert runner.cache_key(candidate, config) == result_key(
            candidate.key_dict(), config_identity_dict(config)
        )
        assert "router_pipeline" not in config_identity_dict(config)

    def test_staged_pipeline_keys_distinctly(self):
        # A staged-pipeline run must never collide with the single-stage
        # cache entry of the same candidate.
        candidate = SweepCandidate(kind="hexamesh", num_chiplets=16, injection_rate=0.05)
        staged = replace(FAST_CONFIG, router_pipeline="staged")
        single_runner = ParallelSweepRunner(FAST_CONFIG, jobs=1)
        staged_runner = ParallelSweepRunner(staged, jobs=1)
        seed = single_runner.candidate_seed(candidate)
        assert single_runner.cache_key(
            candidate, replace(FAST_CONFIG, seed=seed)
        ) != staged_runner.cache_key(candidate, replace(staged, seed=seed))

    @pytest.mark.parametrize(
        ("config", "derive_seeds"),
        [
            (SimulationConfig(), True),
            (replace(FAST_CONFIG, router_pipeline="staged"), True),
            (replace(FAST_CONFIG, seed=7), True),
            (FAST_CONFIG, False),
        ],
        ids=["default-config", "staged", "derived-seeds", "base-seed"],
    )
    def test_published_keys_are_the_per_candidate_config_keys(
        self, tmp_path, config, derive_seeds
    ):
        # run() renders the config identity once and swaps each seed in;
        # the keys it publishes must be the ones a fully rebuilt
        # per-candidate config hashes to, or every existing store goes cold.
        runner = ParallelSweepRunner(
            config, jobs=1, cache_dir=tmp_path, derive_seeds=derive_seeds
        )
        records = runner.run(
            ParallelSweepRunner.grid(["hexamesh"], [7], [0.05, 0.3], ["uniform"])
        )
        expected = [
            result_key(
                record.candidate.key_dict(),
                config_identity_dict(replace(config, seed=record.seed)),
            )
            for record in records
        ]
        assert sorted(expected) == runner.store.keys()
        assert len(set(expected)) == len(records)
        for record, key in zip(records, expected):
            assert runner.cache_key(record.candidate, replace(config, seed=record.seed)) == key
            assert runner.store.get(key).candidate == record.candidate.key_dict()
