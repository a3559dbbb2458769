"""Cross-process and warm-restart guarantees of the result store.

The two properties the store-integration CI job asserts on every PR,
kept runnable locally: a warm re-run against a populated store performs
*zero* simulator invocations (cache-hit ratio 1.0 from the progress
tracker), and concurrent writer processes sharing one store directory
produce results bit-identical to a serial run with no corrupt or partial
entries left behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.core.parallel import ParallelSweepRunner
from repro.core.verify import verify_store
from repro.noc.config import SimulationConfig
from repro.store import ResultStore
from repro.telemetry import SweepProgressTracker

FAST_CONFIG = SimulationConfig(warmup_cycles=40, measurement_cycles=80, drain_cycles=160)

GRID = ParallelSweepRunner.grid(["grid", "hexamesh"], [7, 9], [0.05, 0.3], ["uniform"])

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _forbid_simulation(monkeypatch):
    """Make any simulator invocation fail the test loudly."""
    import repro.core.parallel as parallel_module

    def boom(*_args, **_kwargs):  # pragma: no cover - the assertion itself
        raise AssertionError("a warm run must not invoke the simulator")

    monkeypatch.setattr(parallel_module, "_evaluate_work_item", boom)


def _open_repeatedly(root, barrier, opens, out_path):
    """Child process: open ``root`` ``opens`` times, record each generation."""
    barrier.wait(timeout=60)
    generations = [ResultStore(root).generation for _ in range(opens)]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(generations, handle)


class TestConcurrentOpeners:
    def test_every_open_gets_a_distinct_generation(self, tmp_path):
        # The generation read-bump-write runs under the root's lock file,
        # so racing openers in several processes never reuse a generation
        # and none is lost.
        root = str(tmp_path / "store")
        processes_count, opens = 4, 50
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(processes_count)
        outputs = [tmp_path / f"generations-{index}.json" for index in range(processes_count)]
        workers = [
            context.Process(target=_open_repeatedly, args=(root, barrier, opens, str(out)))
            for out in outputs
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0] * processes_count
        generations = [g for out in outputs for g in json.loads(out.read_text())]
        total = processes_count * opens
        assert sorted(generations) == list(range(1, total + 1))
        assert ResultStore(root).generation == total + 1


class TestWarmRunIsPure:
    def test_warm_rerun_simulates_nothing(self, tmp_path, monkeypatch):
        cold = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path).run(GRID)
        _forbid_simulation(monkeypatch)
        tracker = SweepProgressTracker(jobs=1)
        snapshots = []
        warm = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path).run(
            GRID,
            progress=lambda done, total, record: snapshots.append(
                tracker.update(done, total, record)
            ),
        )
        assert all(record.from_cache for record in warm)
        assert [r.result for r in warm] == [r.result for r in cold]
        final = snapshots[-1]
        assert final.cache_hit_ratio == 1.0
        assert final.cache_hits == len(GRID)
        assert final.fresh == 0

    def test_worker_written_entries_serve_an_inline_run(self, tmp_path, monkeypatch):
        # Entries written by worker processes (split work items) satisfy
        # an inline run (whole groups): one store serves every job count.
        ParallelSweepRunner(FAST_CONFIG, jobs=2, cache_dir=tmp_path).run(GRID)
        _forbid_simulation(monkeypatch)
        warm = ParallelSweepRunner(FAST_CONFIG, jobs=1, cache_dir=tmp_path).run(GRID)
        assert all(record.from_cache for record in warm)


@pytest.mark.slow
class TestConcurrentWriters:
    def _sweep_argv(self, store_dir, csv_path):
        return [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--kinds",
            "grid,hexamesh",
            "--chiplets",
            "7",
            "--rates",
            "0.05,0.3",
            "--cycles",
            "60",
            "--jobs",
            "2",
            "--cache-dir",
            str(store_dir),
            "--progress",
            "quiet",
            "--output",
            str(csv_path),
        ]

    def test_two_processes_sharing_one_store_match_a_serial_run(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        serial_csv = tmp_path / "serial.csv"
        serial = subprocess.run(
            self._sweep_argv(tmp_path / "serial-store", serial_csv),
            env=env,
            capture_output=True,
            text=True,
        )
        assert serial.returncode == 0, serial.stderr
        shared = tmp_path / "shared-store"
        runs = [
            subprocess.Popen(
                self._sweep_argv(shared, tmp_path / f"concurrent-{index}.csv"),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for index in range(2)
        ]
        for run in runs:
            _, stderr = run.communicate(timeout=300)
            assert run.returncode == 0, stderr.decode()
        reference = serial_csv.read_text()
        for index in range(2):
            assert (tmp_path / f"concurrent-{index}.csv").read_text() == reference
        # No corrupt or partial entries: every entry re-reads cleanly and
        # no temp files survive in the objects tree.
        store = ResultStore(str(shared))
        outcomes = verify_store(store, sample=0)
        assert all(outcome.ok for outcome in outcomes), outcomes
        assert store.stats().entries == 4
        assert store.stats().orphan_tmp == 0
        assert not (shared / "quarantine").exists()
