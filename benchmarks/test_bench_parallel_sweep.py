"""Benchmark of the sweep engine: vectorized fast path and parallel fan-out.

The default (smoke) benchmark runs a small HexaMesh sweep through both
cycle-loop engines, checks they agree bit-for-bit and reports the
wall-clock ratio.  The ``slow``-marked benchmark reproduces the Fig. 7
sweep scenario at scale — a 61-chiplet HexaMesh grid fanned over 8
workers — and is meant for multi-core machines (it skips when fewer than
four CPUs are available).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from conftest import run_once

from repro.arrangements.factory import make_arrangement
from repro.core.parallel import ParallelSweepRunner
from repro.evaluation.tables import format_table
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator

SMOKE_CONFIG = SimulationConfig(
    warmup_cycles=200, measurement_cycles=400, drain_cycles=1200
)


def _engine_comparison(kind: str, count: int, rates: tuple[float, ...]):
    rows = []
    for rate in rates:
        graph = make_arrangement(kind, count).graph
        start = time.perf_counter()
        legacy = NocSimulator(graph, SMOKE_CONFIG, injection_rate=rate).run(
            engine="legacy"
        )
        legacy_s = time.perf_counter() - start

        simulator = NocSimulator(graph, SMOKE_CONFIG, injection_rate=rate)
        start = time.perf_counter()
        vectorized = simulator.run(engine="vectorized")
        vectorized_s = time.perf_counter() - start

        assert legacy == vectorized, f"engines diverged at rate {rate}"
        stats = simulator.last_engine_stats
        rows.append(
            [
                f"{kind}-{count} @{rate:g}",
                round(legacy_s, 3),
                round(vectorized_s, 3),
                round(legacy_s / vectorized_s, 2) if vectorized_s > 0 else float("inf"),
                f"{stats.cycles_executed}/{legacy.cycles_simulated}",
            ]
        )
    return rows


def test_bench_vectorized_engine(benchmark):
    """Smoke comparison: both engines agree; the fast path skips idle cycles."""
    rows = run_once(
        benchmark, _engine_comparison, "hexamesh", 19, (0.02, 0.05, 0.3)
    )
    print()
    print(format_table(
        ["sweep point", "legacy [s]", "vectorized [s]", "speedup", "cycles run"], rows
    ))
    # The deterministic fast-path guarantee: at low load the drain phase is
    # mostly idle, so the vectorized engine must have exited early.
    low_load_cycles = int(rows[0][4].split("/")[0])
    horizon = int(rows[0][4].split("/")[1])
    assert low_load_cycles < horizon


@pytest.mark.slow
def test_bench_fig7_sweep_parallel_speedup(benchmark):
    """The Fig. 7 sweep scenario: 60-chiplet-class HexaMesh grid, 8 workers.

    Requires a multi-core machine; the acceptance target is >= 3x at 8
    workers, asserted loosely at 2.5x to absorb scheduler noise.
    """
    if multiprocessing.cpu_count() < 4:
        pytest.skip("parallel speedup benchmark needs >= 4 CPUs")

    config = SimulationConfig(
        warmup_cycles=300, measurement_cycles=600, drain_cycles=1200
    )
    grid = ParallelSweepRunner.grid(
        ["hexamesh"], [61], (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
        ("uniform", "tornado"),
    )

    def _run_both():
        start = time.perf_counter()
        serial = ParallelSweepRunner(config, jobs=1).run(grid)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = ParallelSweepRunner(config, jobs=8).run(grid)
        parallel_s = time.perf_counter() - start
        assert serial == parallel
        return serial_s, parallel_s

    serial_s, parallel_s = run_once(benchmark, _run_both)
    speedup = serial_s / parallel_s
    print(f"\nserial {serial_s:.1f}s, 8 workers {parallel_s:.1f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.5
