"""Injection-rate sweeps: the latency / throughput curve of one design.

Section VI of the paper reports two numbers per design point:

* the **zero-load latency** — the average packet latency when the network
  is (almost) empty, measured here at a very low injection rate,
* the **saturation throughput** — the maximum traffic the network can
  sustain, reported by BookSim2 as a fraction of the full global
  bandwidth and converted into Tb/s with the link-bandwidth model.

:func:`run_injection_sweep` returns the throughput-vs-offered-load
curve, whose :attr:`~InjectionSweepResult.saturation_throughput` is the
maximum accepted rate observed.

These helpers only simulate.  Cached or parallel sweeps go through
:class:`repro.core.parallel.ParallelSweepRunner` with ``kind="custom"``
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig
from repro.noc.engine import DEFAULT_ENGINE
from repro.noc.simulator import BatchPoint, NocSimulator, SimulationResult
from repro.noc.traffic import TrafficPattern
from repro.utils.validation import check_fraction

#: Injection rate used to approximate "zero load".
ZERO_LOAD_INJECTION_RATE = 0.02


@dataclass(frozen=True)
class InjectionSweepResult:
    """The latency / throughput curve of an injection-rate sweep."""

    rates: tuple[float, ...]
    results: tuple[SimulationResult, ...]

    @property
    def accepted_rates(self) -> tuple[float, ...]:
        """Accepted flit rates (per endpoint) at each offered rate."""
        return tuple(result.accepted_flit_rate for result in self.results)

    @property
    def mean_latencies(self) -> tuple[float, ...]:
        """Mean packet latencies at each offered rate."""
        return tuple(result.packet_latency.mean for result in self.results)

    @property
    def saturation_throughput(self) -> float:
        """Maximum accepted flit rate observed over the sweep."""
        return max(self.accepted_rates)

    def stable_points(self) -> list[tuple[float, SimulationResult]]:
        """The (rate, result) pairs at which the network was stable."""
        return [
            (rate, result)
            for rate, result in zip(self.rates, self.results)
            if result.throughput.is_stable
        ]


def run_injection_sweep(
    graph: ChipGraph,
    config: SimulationConfig | None = None,
    *,
    rates: Sequence[float] | None = None,
    traffic: TrafficPattern | str = "uniform",
    engine: str = DEFAULT_ENGINE,
) -> InjectionSweepResult:
    """Simulate the network at a sequence of offered loads.

    Every rate runs with the configured base seed in one
    :meth:`NocSimulator.run_batch` call, over one shared topology /
    routing / flat-state build.  ``engine`` selects the cycle-loop engine
    (the engines are bit-identical, so it never changes the curve — only
    the wall-clock).
    """
    if config is None:
        config = SimulationConfig()
    if rates is None:
        rates = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
    for rate in rates:
        check_fraction("injection rate", rate)
    points = [BatchPoint(rate) for rate in rates]
    results = tuple(
        NocSimulator.run_batch(graph, points, config=config, traffic=traffic, engine=engine)
    )
    return InjectionSweepResult(rates=tuple(rates), results=results)

