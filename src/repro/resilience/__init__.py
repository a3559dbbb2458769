"""Resilience analysis: yield-coupled fault sampling and degradation sweeps.

The package answers the question the arrangement papers leave open: how
gracefully does each chiplet arrangement degrade when links and routers
fail?  It builds on :mod:`repro.noc.faults` (fault sets and degraded
topologies) and couples the sampling probabilities to the manufacturing
yield models of :mod:`repro.cost.yield_model`:

* :mod:`repro.resilience.sampler` — deterministic (SHA-256 seeded)
  samplers for survivable fault sets, either with exact failure counts
  (degradation curves) or with per-component probabilities derived from
  die yield, test coverage and bond yield,
* :mod:`repro.resilience.sweep` — the resilience sweep proper: simulate
  every (arrangement, failure count, sample, injection rate) candidate
  through :class:`~repro.core.parallel.ParallelSweepRunner` (which shares
  one degraded-topology build across the rates of each fault
  arrangement) and aggregate
  latency / throughput / delivery degradation curves — or, with several
  rates, full degradation surfaces — per arrangement.
"""

from repro.resilience.sampler import (
    FaultProbabilities,
    derive_fault_seed,
    fault_probabilities_from_yield,
    sample_fault_set,
    sample_survivable_faults,
)
from repro.resilience.sweep import (
    EXPLICIT_FAULT_TYPE,
    FAULT_TYPES,
    SUMMARY_FAULT_TYPES,
    ResilienceSummary,
    ResilienceSweepResult,
    SaturationPoint,
    normalize_injection_rates,
    resilience_grid,
    run_resilience_sweep,
    summarize_records,
)

__all__ = [
    "EXPLICIT_FAULT_TYPE",
    "FAULT_TYPES",
    "SUMMARY_FAULT_TYPES",
    "FaultProbabilities",
    "ResilienceSummary",
    "ResilienceSweepResult",
    "SaturationPoint",
    "derive_fault_seed",
    "fault_probabilities_from_yield",
    "normalize_injection_rates",
    "resilience_grid",
    "run_resilience_sweep",
    "sample_fault_set",
    "sample_survivable_faults",
    "summarize_records",
]
