#!/usr/bin/env python3
"""Fault injection and resilience: degradation curves under failed links/routers.

This example walks the resilience subsystem end to end:

1. derive per-component failure probabilities from the manufacturing
   yield models (die yield x test coverage -> dead routers, bond yield
   -> dead links),
2. draw a deterministic yield-sampled fault set and simulate the
   degraded topology — both cycle-loop engines are bit-identical on it,
3. run a small resilience sweep (latency / throughput vs. number of
   failed links) and compare how gracefully the grid, brickwall and
   HexaMesh arrangements degrade.

Run with:  PYTHONPATH=src python examples/fault_sweep.py
"""

from repro.arrangements.factory import make_arrangement
from repro.noc.config import SimulationConfig
from repro.noc.simulator import NocSimulator
from repro.resilience import (
    fault_probabilities_from_yield,
    run_resilience_sweep,
    sample_fault_set,
)

CONFIG = SimulationConfig(
    warmup_cycles=200, measurement_cycles=400, drain_cycles=800
)


def main() -> None:
    print("=== Yield-coupled fault probabilities ===")
    # A 19-chiplet package splitting ~800 mm^2 of logic: ~42 mm^2 dies.
    probabilities = fault_probabilities_from_yield(
        chiplet_area_mm2=42.0, defect_density_per_cm2=0.1, test_coverage=0.98
    )
    print(f"  link failure probability    {probabilities.link_failure_probability:.4f}")
    print(f"  router failure probability  {probabilities.router_failure_probability:.4f}")

    graph = make_arrangement("hexamesh", 19).graph
    print(f"  expected faults on a 19-chiplet HexaMesh: "
          f"{probabilities.expected_faults(graph):.2f}")

    print("\n=== Simulating one yield-sampled fault scenario ===")
    # An immature-process corner (high defect density, weak test coverage,
    # lossy bonding) so the demo draw actually faults something.
    stressed = fault_probabilities_from_yield(
        chiplet_area_mm2=42.0,
        defect_density_per_cm2=0.5,
        test_coverage=0.9,
        per_bond_yield=0.97,
    )
    faults = sample_fault_set(graph, stressed, seed=6)
    print(f"  sampled fault set: {faults.label} "
          f"(links {list(faults.failed_links)}, routers {list(faults.failed_routers)})")
    simulator = NocSimulator(graph, CONFIG, injection_rate=0.1, faults=faults)
    result = simulator.run()
    degraded = simulator.degraded_topology
    if degraded is not None:
        print(f"  degraded topology: {degraded.num_routers} routers, "
              f"{degraded.graph.num_edges} links")
    print(f"  avg packet latency {result.packet_latency.mean:7.2f} cycles, "
          f"delivery ratio {result.measured_delivery_ratio:.2%}")

    print("\n=== Degradation curves: grid vs. brickwall vs. HexaMesh ===")
    sweep = run_resilience_sweep(
        ("grid", "brickwall", "hexamesh"),
        16,
        (0, 1, 2, 4),
        samples=2,
        fault_type="link",
        config=CONFIG,
        injection_rate=0.2,
    )
    print(f"  {'kind':10s} {'failures':>8s} {'latency':>9s} {'vs healthy':>11s} "
          f"{'accepted':>9s} {'delivered':>10s}")
    for kind in sweep.kinds():
        for point in sweep.curve(kind):
            print(f"  {point.kind:10s} {point.num_failures:8d} "
                  f"{point.mean_latency_cycles:9.2f} "
                  f"{point.latency_vs_baseline:10.3f}x "
                  f"{point.accepted_flit_rate:9.4f} "
                  f"{point.delivery_ratio:9.2%}")

    print("\nFault sets are drawn with SHA-256-derived seeds: re-running this "
          "example reproduces identical curves on any machine.")


if __name__ == "__main__":
    main()
