#!/usr/bin/env python3
"""Design-space exploration: pick an arrangement for a many-chiplet product.

The paper's motivation is a product in the spirit of Tesla's Dojo training
tile (25 chiplets, arranged by hand as a 2D grid) scaled to "tens or
hundreds" of chiplets, where hand optimisation is no longer feasible.  This
example uses the :class:`DesignSpaceExplorer` to answer the question a chip
architect would actually ask:

    "I want to integrate roughly 20-40 compute chiplets on one package —
     which arrangement family and which exact chiplet count should I pick?"

Run with:  python examples/design_space_exploration.py
"""

from repro import DesignSpaceExplorer
from repro.evaluation.tables import format_table
from repro.noc.config import SimulationConfig


def main() -> None:
    explorer = DesignSpaceExplorer(kinds=("grid", "brickwall", "hexamesh"))
    candidate_counts = range(20, 41)
    explorer.evaluate(candidate_counts)

    print(f"Evaluated {len(explorer.records)} candidate designs "
          f"({len(list(candidate_counts))} chiplet counts x 3 arrangement families).\n")

    # 1. Best designs for each objective.
    for objective in ("latency", "throughput", "diameter", "bisection"):
        best = explorer.best(objective)
        print(
            f"Best by {objective:10s}: {best.label:22s} "
            f"latency={best.zero_load_latency_cycles:6.1f} cyc, "
            f"throughput={best.saturation_throughput_tbps:5.1f} Tb/s, "
            f"diameter={best.diameter}, bisection={best.bisection_bandwidth:.0f} links"
        )

    # 2. The latency/throughput Pareto front.
    print("\nPareto front (zero-load latency vs. saturation throughput):")
    rows = []
    for record in explorer.pareto_front():
        rows.append(
            [
                record.label,
                record.design.num_chiplets,
                record.zero_load_latency_cycles,
                record.saturation_throughput_tbps,
                record.diameter,
            ]
        )
    print(
        format_table(
            ["design", "chiplets", "latency [cyc]", "throughput [Tb/s]", "diameter"], rows
        )
    )

    # 3. A Dojo-style question: exactly 25 chiplets.
    print("\nBest arrangement for exactly 25 chiplets (by zero-load latency):")
    best_25 = explorer.best_for_count(25, "latency")
    print(f"  {best_25.label}: {best_25.zero_load_latency_cycles:.1f} cycles, "
          f"{best_25.saturation_throughput_tbps:.1f} Tb/s")
    grid_25 = next(
        record
        for record in explorer.records
        if record.design.num_chiplets == 25 and record.design.kind.value == "grid"
    )
    latency_gain = 100.0 * (1 - best_25.zero_load_latency_cycles / grid_25.zero_load_latency_cycles)
    print(f"  ... {latency_gain:.1f} % lower latency than the 5x5 grid Dojo-style baseline.")

    # 4. Confirm the winner cycle-accurately: the injection sweep
    # evaluates the whole low-load curve over one shared topology /
    # routing / engine build (bit-identical to per-point simulation).
    print("\nCycle-accurate spot-check curve of the 25-chiplet winner:")
    config = SimulationConfig(
        warmup_cycles=150, measurement_cycles=300, drain_cycles=450
    )
    curve = explorer.spot_check(best_25, rates=(0.02, 0.05, 0.1), config=config)
    for rate, result in zip(curve.rates, curve.results):
        print(
            f"  rate {rate:4.2f}: {result.packet_latency.mean:6.1f} cycles mean, "
            f"{result.accepted_flit_rate:.3f} accepted flits/cycle/EP"
        )


if __name__ == "__main__":
    main()
