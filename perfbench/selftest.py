"""Fast self-test of the benchmark (a few seconds).

Runs every workload at reduced size end to end, re-simulates one reduced
``fig7-sim`` point on the ``legacy`` reference engine and requires a
bit-identical result, and feeds every output check a deliberately
perturbed result, which it must reject.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every step passes.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.arrangements.factory import make_arrangement  # noqa: E402
from repro.core.parallel import (  # noqa: E402
    simulation_result_from_dict,
    simulation_result_to_dict,
)
from repro.noc.config import SimulationConfig  # noqa: E402
from repro.noc.simulator import NocSimulator  # noqa: E402
from repro.store import ResultStore  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def expect_rejected(errors: list[str], fragment: str, message: str) -> None:
    matching = [error for error in errors if fragment in error]
    expect(bool(matching), f"{message} is rejected: {(matching or errors)[:1]}")


def fig7_sim(workdir: str) -> None:
    workload = workloads.Fig7Sim(seed=3, workdir=workdir)
    workload.counts = (16,)
    workload.setup()
    workload.config = dataclasses.replace(
        workload.config, warmup_cycles=100, measurement_cycles=400, drain_cycles=800)
    workload.run_round(0)
    errors = workload.check()
    expect(not errors, f"reduced fig7-sim passes its checks {errors}")

    store = ResultStore(workload.rounds[0][1])
    entries = list(store.iter_entries())
    entry = next(e for e in entries if e.candidate["kind"] == "hexamesh"
                 and e.candidate["injection_rate"] == repr(1.0))
    config = SimulationConfig(**entry.manifest["config"])
    legacy = NocSimulator(make_arrangement("hexamesh", 16).graph, config,
                          injection_rate=1.0, traffic="uniform").run(engine="legacy")
    expect(simulation_result_to_dict(legacy) == entry.result,
           "hexamesh-16 overload re-simulated on the legacy engine is bit-identical")

    points = workload.rounds[0][0]
    sims = {(e.candidate["kind"], e.candidate["num_chiplets"],
             float(e.candidate["injection_rate"])): simulation_result_from_dict(e.result)
            for e in entries}
    evaluation = workloads._evaluation_config()
    topology = workloads.sim_topology((16,))

    def rejected(key, fragment, message, **changes):
        perturbed = dict(sims)
        result = perturbed[key]
        nested = {name: dataclasses.replace(getattr(result, name), **value)
                  for name, value in changes.items() if isinstance(value, dict)}
        flat = {name: value for name, value in changes.items()
                if not isinstance(value, dict)}
        perturbed[key] = dataclasses.replace(result, **nested, **flat)
        errors = checks.check_fig7_sim(points, perturbed, config=evaluation,
                                       topology=topology)
        expect_rejected(errors, fragment, message)

    zero, over = ("grid", 16, 0.02), ("grid", 16, 1.0)
    rejected(zero, "below the path latency", "latency below the path latency",
             packet_latency={"mean": 1.0})
    rejected(zero, "average hops", "zero-load hops far from the BFS mean",
             average_hops=sims[zero].average_hops * 1.5)
    rejected(over, "average hops", "overload hops far from the BFS mean",
             average_hops=sims[over].average_hops * 2.0)
    rejected(zero, "measured packets", "a lost zero-load packet",
             measured_packets_ejected=sims[zero].measured_packets_ejected - 1)
    rejected(over, "4B/E", "accepted rate above 4B/E",
             throughput={"accepted_flit_rate": 0.99, "offered_flit_rate": 1.0})
    rejected(over, "offered rate", "accepted rate above the offered rate",
             throughput={"accepted_flit_rate": 0.9, "offered_flit_rate": 0.8})
    worse = [dataclasses.replace(p, zero_load_latency_cycles=1000.0)
             if p.kind.value == "hexamesh" else p for p in points]
    expect_rejected(checks.check_fig7_sim(worse, sims, config=evaluation,
                                          topology=topology),
                    "not below grid", "HexaMesh slower than the grid")


def fig7_analytical(workdir: str) -> None:
    workload = workloads.Fig7Analytical(seed=3, workdir=workdir)
    workload.counts = (16, 19)
    workload.setup()
    workload.run_round(0)
    workload.run_round(1)
    errors = workload.check()
    expect(not errors, f"reduced fig7-analytical passes its checks {errors}")

    points = workload.results[0]
    evaluation = workloads._evaluation_config()
    hops = {(p.kind.value, p.num_chiplets): checks.all_pairs_hops(
        p.num_chiplets, make_arrangement(p.kind.value, p.num_chiplets).graph.edges())
        for p in points}

    def rejected(kind, count, fragment, message, **changes):
        perturbed = [dataclasses.replace(p, **changes)
                     if (p.kind.value, p.num_chiplets) == (kind, count) else p
                     for p in points]
        errors = checks.check_fig7_analytical(perturbed, config=evaluation,
                                              hops_by_design=hops)
        expect_rejected(errors, fragment, message)

    grid16 = next(p for p in points if (p.kind.value, p.num_chiplets) == ("grid", 16))
    rejected("grid", 16, "zero-load latency", "a zero-load latency off by 1e-6",
             zero_load_latency_cycles=grid16.zero_load_latency_cycles * (1 + 1e-6))
    rejected("hexamesh", 19, "min(1, 4B/E)", "a saturation off the closed form",
             saturation_fraction=0.5)
    rejected("hexamesh", 16, "not below grid", "HexaMesh slower than the grid",
             zero_load_latency_cycles=1000.0)


def service_mixed(workdir: str) -> None:
    workload = workloads.ServiceMixed(seed=3, workdir=workdir)
    workload.cycles = 100
    try:
        workload.setup()
        workload.prepare_round(0)
        attempted, failed, _ = workload.run_round(0)
        errors = workload.check()
    finally:
        workload.close()
    expect(attempted == 13 and failed == 0 and not errors,
           f"reduced service-mixed passes its checks {errors}")

    jobs = workload.jobs
    cold = sum(workloads.distinct_candidates(job["spec"]) for job in jobs
               if job["source"] is None)
    expect_rejected(checks.check_service(jobs, distinct_candidates=cold + 1),
                    "distinct", "a simulated-candidate count off by one")
    warm = next(index for index, job in enumerate(jobs) if job["source"] is not None)
    perturbed = [dict(job) for job in jobs]
    final = perturbed[warm]["final"] = dict(jobs[warm]["final"])
    final["result"] = dict(final["result"], rows=[["perturbed"]])
    expect_rejected(checks.check_service(perturbed, distinct_candidates=cold),
                    "warm rows differ", "a warm job whose rows differ")


def main() -> int:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    root = tempfile.mkdtemp(prefix="selftest-", dir=out)
    cwd = os.getcwd()
    try:
        for name, step in (("fig7-sim", fig7_sim), ("fig7-analytical", fig7_analytical),
                           ("service-mixed", service_mixed)):
            workdir = os.path.join(root, name)
            os.makedirs(workdir)
            step(workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(root, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
