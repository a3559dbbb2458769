"""Benchmark of the HexaMesh reproduction: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-sim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's layer functions (see ``tracing.py``), writes the spans to
``perfbench/out/`` and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Native math libraries (numpy's BLAS) run single-threaded, so a run uses
# one CPU whatever the host has; set before anything imports numpy.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def pin_to_one_cpu() -> int | None:
    """Keep the run process, and every set-up probe it spawns, on one CPU;
    returns that CPU (``None`` where affinity cannot be set).

    A service job hands off between the client, connection-handler and job
    threads; spread over two virtual CPUs, each hand-off may have to wake an
    idle CPU, and on the reference VM that made the median warm-job latency
    vary by half from one minute to the next.  On one CPU the same jobs
    took about 40 % less time and repeated far better.  The Figure 7 workloads run on one
    thread either way.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stolen_seconds(cpu: int | None) -> float:
    """Time the hypervisor has given ``cpu`` to other guests since boot.

    This is the ``steal`` column of ``/proc/stat``, in clock ticks; it is 0
    on bare metal and where it cannot be read.  On the reference VM, steal
    came in episodes of minutes (one 4 s run lost a sixth of its CPU) and
    slowed every round in them, while the program's own CPU time stayed
    put.  Rates and set-up time therefore count only the
    time the run had its CPU (wall time minus the steal accrued meanwhile);
    rounds and set-ups last a second or more, so the 10 ms tick resolution
    costs under 1 %.  Job latencies stay raw wall time, as the client sees
    them: a job of a few milliseconds is far below the tick.
    """
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    except (OSError, ValueError):
        pass
    return 0.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-sim", "fig7-analytical", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the monotonic ready time, exit")
    return parser.parse_args(argv)


def make_workload(args, workdir: str):
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, workdir)


def setup_probe(args, cpu: int | None, workdir: str) -> None:
    """Child-process mode: one full set-up, timed by the parent."""
    workload = make_workload(args, workdir)
    try:
        workload.setup()
        print(json.dumps({"ready": time.monotonic(), "stolen": stolen_seconds(cpu)}),
              flush=True)
    finally:
        workload.close()


def measure_setup(args, cpu: int | None) -> float:
    """Median time from spawning a fresh interpreter to a set-up workload,
    less the time stolen from the CPU meanwhile (see :func:`stolen_seconds`)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        stolen = stolen_seconds(cpu)
        start = time.monotonic()
        output = subprocess.run(command, check=True, capture_output=True, text=True,
                                cwd=ROOT, timeout=60).stdout
        probe = json.loads(output.strip().splitlines()[-1])
        samples.append((probe["ready"] - start) - (probe["stolen"] - stolen))
    return statistics.median(samples)


def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (``statistics.quantiles``, n=100);
    a single value is its own quantile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: {SOURCE}/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            setup_probe(args, cpu, workdir)
            return 0
        return measure(args, cpu, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cpu: int | None, workdir: str) -> int:
    workload = make_workload(args, workdir)
    setup_s = measure_setup(args, cpu) if not args.trace else None
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        tracing.install(tracer)
        workload.tracer = tracer

    attempted = failed = 0
    rates = []
    stolen_total = 0.0
    try:
        workload.setup()
        started = time.perf_counter()
        index = 0
        # Whole rounds: another round starts while the run length has not
        # passed, so a run ends less than one round after --seconds.
        while True:
            workload.prepare_round(index)
            if tracer is not None:
                tracer.op = index
                tracer.active = True
            stolen = stolen_seconds(cpu)
            round_start = time.perf_counter()
            ops, round_failed, candidates = workload.run_round(index)
            round_end = time.perf_counter()
            stolen = stolen_seconds(cpu) - stolen
            if tracer is not None:
                tracer.active = False
            attempted += ops
            failed += round_failed
            rates.append(candidates / (round_end - round_start - stolen))
            stolen_total += stolen
            index += 1
            if round_end - started >= args.seconds:
                break
        errors = workload.check()
    finally:
        workload.close()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{index} rounds in {round_end - started:.2f} s, {stolen_total:.2f} s of it "
          f"stolen from CPU {cpu}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "candidates_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
        metrics["job_latency_p50_s"] = (statistics.median(workload.latencies), "s")
        metrics["job_latency_p90_s"] = (percentile(workload.latencies, 0.90), "s")
    else:
        metrics = per_layer_metrics(tracer, workload, index, statistics.median(rates))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


def per_layer_metrics(tracer, workload, rounds: int, traced_rate: float) -> dict:
    """Per-layer totals of the traced run, each divided by the rounds run."""
    metrics = {}
    for name, totals in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = (totals["calls"] / rounds, "count")
        metrics[f"{name}.s"] = (totals["s"] / rounds, "s")
        metrics[f"{name}.self_s"] = (totals["self_s"] / rounds, "s")
    lookups = tracer.store_hits + tracer.store_misses
    metrics["store.hits"] = (tracer.store_hits / rounds, "count")
    metrics["store.misses"] = (tracer.store_misses / rounds, "count")
    metrics["store.hit_ratio"] = (tracer.store_hits / lookups if lookups else 0.0, "ratio")
    overhead = 0.0
    runner = tracer.runner_seconds()
    for op, job in enumerate(getattr(workload, "jobs", ())):
        overhead += job["latency"] - runner.get(op, 0.0)
    metrics["service.overhead_s"] = (overhead / rounds, "s")
    metrics["trace.candidates_per_s"] = (traced_rate, "1/s")
    metrics["trace.spans"] = (len(tracer.spans) / rounds, "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
