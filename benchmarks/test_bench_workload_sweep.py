"""Benchmark of the workload subsystem: mapping cost and trace-driven sweeps.

The smoke benchmark maps every workload kind onto a HexaMesh with every
mapper and reports the static cost table plus the wall-clock of a small
trace-driven sweep through both cycle-loop engines (asserting they agree
bit-for-bit).  The ``slow``-marked benchmark fans a full application grid
over 8 workers and checks the parallel records match the serial ones.
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
from repro.workloads import (
    available_mappers,
    available_workloads,
    evaluate_mapping,
    make_workload,
    map_workload,
)

SMOKE_CONFIG = SimulationConfig(
    warmup_cycles=200, measurement_cycles=400, drain_cycles=1200
)


def _mapping_cost_table(count: int):
    graph = make_arrangement("hexamesh", count).graph
    rows = []
    for kind in available_workloads():
        workload = make_workload(kind, num_tasks=count)
        for mapper in available_mappers():
            start = time.perf_counter()
            mapping = map_workload(mapper, workload, graph)
            cost = evaluate_mapping(workload, mapping, graph)
            elapsed = time.perf_counter() - start
            rows.append([
                f"{kind}/{mapper}",
                round(cost.weighted_hop_count, 1),
                round(cost.max_link_load, 1),
                round(elapsed * 1000, 2),
            ])
    return rows


def _trace_sweep_comparison():
    grid = ParallelSweepRunner.workload_grid(
        ["hexamesh"], [19], ["dnn-pipeline", "client-server"],
        ["partition", "round-robin"],
    )
    start = time.perf_counter()
    vectorized = ParallelSweepRunner(SMOKE_CONFIG, engine="vectorized").run(grid)
    vectorized_s = time.perf_counter() - start
    start = time.perf_counter()
    legacy = ParallelSweepRunner(SMOKE_CONFIG, engine="legacy").run(grid)
    legacy_s = time.perf_counter() - start
    assert [r.result for r in vectorized] == [r.result for r in legacy]
    return vectorized_s, legacy_s, len(grid)


def test_bench_workload_mapping_and_trace(benchmark):
    """Smoke: cost of every (workload, mapper) pair + a trace sweep."""

    def _run():
        rows = _mapping_cost_table(19)
        timings = _trace_sweep_comparison()
        return rows, timings

    rows, (vectorized_s, legacy_s, points) = run_once(benchmark, _run)
    print()
    print(format_table(
        ["workload/mapper", "weighted hops", "max link load", "map time [ms]"], rows
    ))
    print(f"\ntrace sweep ({points} points): vectorized {vectorized_s:.2f}s, "
          f"legacy {legacy_s:.2f}s (bit-identical)")


@pytest.mark.slow
def test_bench_workload_sweep_parallel_speedup(benchmark):
    """Full application grid fanned over 8 workers; records must match serial."""
    if multiprocessing.cpu_count() < 4:
        pytest.skip("parallel speedup benchmark needs >= 4 CPUs")

    grid = ParallelSweepRunner.workload_grid(
        ["grid", "hexamesh"], [37], list(available_workloads()),
        list(available_mappers()),
    )

    def _run_both():
        start = time.perf_counter()
        serial = ParallelSweepRunner(SMOKE_CONFIG, jobs=1).run(grid)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = ParallelSweepRunner(SMOKE_CONFIG, jobs=8).run(grid)
        parallel_s = time.perf_counter() - start
        assert serial == parallel
        return serial_s, parallel_s

    serial_s, parallel_s = run_once(benchmark, _run_both)
    speedup = serial_s / parallel_s
    print(f"\n{len(grid)} points: serial {serial_s:.1f}s, 8 workers "
          f"{parallel_s:.1f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0
