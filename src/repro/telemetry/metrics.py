"""Per-cycle metric time series of one simulation run.

A :class:`MetricsCollector` records five series, one value per simulated
cycle, identically across every engine (legacy dense loop, vectorized,
batched):

* ``buffer_occupancy`` — flits stored in router input buffers,
* ``link_flits`` — flit deliveries completing on channels this cycle
  (router-to-router, injection and ejection links alike),
* ``vc_stalls`` — input VCs waiting in the VC-allocation state,
* ``in_flight`` — flits injected but not yet ejected (buffered plus
  on-channel),
* ``injection_backlog`` — packets waiting in endpoint source queues
  (a partially injected packet counts once, like
  ``Endpoint.source_queue_length``).

The collector is fed from two directions.  The *flow* counters
(``_link``, ``_inj``, ``_ej``) accumulate within the current cycle —
the object-model probe seams on :class:`~repro.noc.router.Router` and
:class:`~repro.noc.endpoint.Endpoint` increment them per flit, the
array kernel adds whole delivery batches — and :meth:`record_cycle`
then closes the cycle with the sampled *state* values.  Engines that
exit early call :meth:`finalize`, which pads the series to the
configured horizon exactly as a full run would have recorded them
(state series hold their final value, flow series read zero), so the
series are bit-identical across engines regardless of early exit.
"""

from __future__ import annotations

#: Names of the recorded series, in canonical export order.
SERIES_NAMES = (
    "buffer_occupancy",
    "link_flits",
    "vc_stalls",
    "in_flight",
    "injection_backlog",
)

METRICS_SCHEMA = 1


class MetricsCollector:
    """Collect the per-cycle series of a single simulation run.

    A collector is single-use: create a fresh one per run (or call
    :meth:`reset` in between).  The within-cycle flow counters are
    public single-underscore attributes by design — the per-flit probe
    seams increment them directly to keep the enabled path cheap.
    """

    __slots__ = (
        "buffer_occupancy",
        "link_flits",
        "vc_stalls",
        "in_flight",
        "injection_backlog",
        "total_cycles",
        "_link",
        "_inj",
        "_ej",
        "_in_flight",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Return the collector to its just-built (empty) state."""
        self.buffer_occupancy: list[int] = []
        self.link_flits: list[int] = []
        self.vc_stalls: list[int] = []
        self.in_flight: list[int] = []
        self.injection_backlog: list[int] = []
        self.total_cycles = 0
        self._link = 0
        self._inj = 0
        self._ej = 0
        self._in_flight = 0

    # -- recording ----------------------------------------------------------

    def record_cycle(self, *, buffered: int, vc_stalls: int, backlog: int) -> None:
        """Close the current cycle with the sampled state values.

        ``buffered``, ``vc_stalls`` and ``backlog`` are the network
        state at the end of the cycle; the flow counters accumulated
        since the previous call provide the link-utilisation and
        in-flight values, then reset for the next cycle.
        """
        self._in_flight += self._inj - self._ej
        self.buffer_occupancy.append(buffered)
        self.link_flits.append(self._link)
        self.vc_stalls.append(vc_stalls)
        self.in_flight.append(self._in_flight)
        self.injection_backlog.append(backlog)
        self._link = 0
        self._inj = 0
        self._ej = 0

    def finalize(self, total_cycles: int) -> None:
        """Pad the series to ``total_cycles`` after an early exit.

        An engine only exits early once the network can never change
        again (drained, no pending deliveries, sources stopped), so the
        skipped cycles would have recorded the final state values and
        zero flow — which is exactly what the padding appends.
        """
        self.total_cycles = total_cycles
        pad = total_cycles - len(self.link_flits)
        if pad <= 0:
            return
        for series in (
            self.buffer_occupancy,
            self.vc_stalls,
            self.in_flight,
            self.injection_backlog,
        ):
            last = series[-1] if series else 0
            series.extend([last] * pad)
        self.link_flits.extend([0] * pad)

    # -- introspection ------------------------------------------------------

    @property
    def cycles_recorded(self) -> int:
        """Number of cycles currently held (padding included)."""
        return len(self.link_flits)

    def series(self) -> dict[str, list[int]]:
        """The five series keyed by their canonical names."""
        return {name: getattr(self, name) for name in SERIES_NAMES}

    def as_dict(self) -> dict:
        """JSON-ready representation (schema, horizon, series)."""
        return {
            "schema": METRICS_SCHEMA,
            "total_cycles": self.total_cycles,
            "cycles_recorded": self.cycles_recorded,
            "series": self.series(),
        }

    def summary(self) -> dict[str, float]:
        """Headline aggregates of the recorded series (peaks and means)."""
        out: dict[str, float] = {}
        for name, values in self.series().items():
            if values:
                out[f"peak_{name}"] = float(max(values))
                out[f"mean_{name}"] = sum(values) / len(values)
            else:
                out[f"peak_{name}"] = 0.0
                out[f"mean_{name}"] = 0.0
        return out


def sample_object_cycle(routers, endpoints, metrics: MetricsCollector) -> None:
    """Sample end-of-cycle state from the object model and close the cycle.

    The legacy engine's sampler; the array kernel samples the same
    quantities from its flat state.
    """
    buffered = 0
    stalls = 0
    for router in routers:
        buffered += router.buffered_flits
        stalls += router.vc_alloc_stalls()
    backlog = 0
    for endpoint in endpoints:
        backlog += endpoint.source_queue_length
    metrics.record_cycle(buffered=buffered, vc_stalls=stalls, backlog=backlog)
