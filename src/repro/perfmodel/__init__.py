"""Analytical performance models.

The cycle-accurate simulator of :mod:`repro.noc` is the reference
methodology (it substitutes for BookSim2), but sweeping all chiplet counts
from 2 to 100 for three arrangement families is expensive in pure Python.
This package provides closed-form companions that capture the same
first-order behaviour:

* :func:`zero_load_latency_cycles` — average packet latency of an empty
  network: hop count times per-hop latency plus the endpoint overheads.
  At very low load the cycle-accurate simulator converges to exactly this
  value (the test-suite checks it).
* :func:`saturation_throughput_fraction` — the classical channel-load
  bound: under uniform traffic with minimal routing the network saturates
  when the most-loaded channel reaches unit utilisation.

The evaluation harness can use either engine (``mode="analytical"`` or
``mode="simulation"``); each Figure 7 series records the engine that
produced it in its annotations.
"""

from repro.perfmodel.latency import zero_load_latency_cycles
from repro.perfmodel.throughput import (
    bisection_limited_saturation_fraction,
    channel_loads_per_unit_injection,
    saturation_throughput_fraction,
)

__all__ = [
    "bisection_limited_saturation_fraction",
    "channel_loads_per_unit_injection",
    "saturation_throughput_fraction",
    "zero_load_latency_cycles",
]
