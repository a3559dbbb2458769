"""The vectorized engines: array-native cycle loops over the whole network.

This module hosts the default numpy-backed cycle-loop engines; the legacy
dense scan of :mod:`repro.noc.engine` is their object-model reference.
Both delegate the actual cycle stepping to the array kernel
(:mod:`repro.noc.array_kernel`), which expresses routing, VC allocation,
switch allocation and credit/occupancy updates as masked ndarray
operations over the full flat ``(router, port, vc)`` state — no
per-router Python scans — while preserving the object model's exact
(port-major, vc-minor) arbitration order:

* :class:`VectorizedEngine` runs a single simulation point on one kernel
  slot, accepting a network in any (also mid-run) state.
* :class:`BatchEngine` runs a whole batch of same-structure sweep points
  through one shared kernel whose state arrays carry a leading *points*
  axis — one slot per batch point — so the multi-point sweep operates on
  ``(points, router-port-vc)`` ndarrays with every static table built
  exactly once.

At the end of each run (or on error) the flat state is materialised back
into the router objects (:meth:`Router.import_state`), so all post-run
introspection — flit conservation, in-flight measured packets, buffered
counts — reports exactly what a legacy run would.

Equivalence contract: under the same configuration and seed the engines
are **bit-identical** to the legacy engine, for every arrangement kind,
traffic pattern (including trace replay) and phase configuration; the
equivalence suite compares final results field by field across engines.
The kernel implements the single-stage router pipeline only; staged
configurations resolve to the legacy loop.
"""

from __future__ import annotations

from repro.noc.config import SimulationConfig
from repro.noc.engine import EngineStats, PhaseSnapshots
from repro.noc.network import Network


def build_route_tab(
    network: Network, escape_only_all: bool
) -> list[list[tuple[tuple[int, ...], int, bool]]]:
    """Precompute ``route_tab[router][destination_endpoint]`` for a network.

    Each entry is the ``(minimal output ports, escape port, escape_only)``
    triple of ``Router._compute_route`` with ejection folded in (local
    destinations route straight to their endpoint port and are never
    escape-only), mirroring the object model exactly so written-back state
    stays bit-identical.  The table depends only on the topology, the port
    layout and the VC count — batched sweeps build it once and share it
    across every point.
    """
    routing = network.routing
    endpoint_to_router = network.endpoint_to_router
    num_endpoints = network.num_endpoints
    route_tab: list[list[tuple[tuple[int, ...], int, bool]]] = []
    for r, router in enumerate(network.routers):
        row: list[tuple[tuple[int, ...], int, bool]] = []
        for destination in range(num_endpoints):
            destination_router = endpoint_to_router[destination]
            if destination_router == r:
                ejection_port = router.port_of_endpoint(destination)
                row.append(((ejection_port,), ejection_port, False))
            else:
                minimal = tuple(
                    router.port_of_neighbor(neighbor)
                    for neighbor in routing.minimal_next_hops(r, destination_router)
                )
                escape_port = router.port_of_neighbor(
                    routing.escape_next_hop(r, destination_router)
                )
                row.append((minimal, escape_port, escape_only_all))
        route_tab.append(row)
    return route_tab


class VectorizedEngine:
    """Array-kernel cycle loop; see :mod:`repro.noc.array_kernel`.

    An engine instance is single-use: create one per :meth:`run` call.
    The engine accepts a network in any (also mid-run) state: the kernel
    captures routers and in-flight channel payloads, runs the phase loop
    on the flat arrays, and materialises the final state back into the
    object model — bit-identical to the legacy dense loop.
    """

    def __init__(self, network: Network, config: SimulationConfig) -> None:
        self._network = network
        self._config = config
        self.stats = EngineStats()

    def run(self, telemetry=None) -> PhaseSnapshots:
        """Advance the network to the end of the drain phase (or early exit).

        ``telemetry`` is an optional
        :class:`~repro.telemetry.TelemetrySession` forwarded to the
        kernel's cycle loop (see :meth:`ArrayKernel.run_point`).
        """
        from repro.noc.array_kernel import ArrayKernel

        network = self._network
        kernel = ArrayKernel(network, self._config)
        kernel.load_from_network(0)
        endpoints = network.endpoints
        real_channels = [endpoint.out_channel for endpoint in endpoints]
        for endpoint, emitter in zip(endpoints, kernel.endpoint_emitters()):
            endpoint.attach_output_channel(emitter)
        try:
            return kernel.run_point(0, self.stats, telemetry)
        finally:
            for endpoint, channel in zip(endpoints, real_channels):
                endpoint.attach_output_channel(channel)


# ---------------------------------------------------------------------------
# The batched multi-point engine
# ---------------------------------------------------------------------------


class BatchEngine:
    """Run many simulation points over **one** reusable network.

    The batch axis of the array kernel: every point of a same-structure
    candidate group shares one topology, one
    :class:`~repro.noc.routing.RoutingTables` instance, one precomputed
    ``route_tab`` and **one** :class:`~repro.noc.array_kernel.ArrayKernel`
    — and every point owns one *slot* of the kernel's stacked state
    arrays, so the whole group's mutable router state lives in a single
    ``(points, router-port-vc)`` ndarray set.  Points evaluate
    sequentially (endpoint RNG replay and the shared packet-id allocator
    are inherently ordered), but the static tables, channel maps and
    array allocations are built once per group and a per-point refresh is
    a handful of vectorized row fills on the point's slot.

    Equivalence contract: every point is **bit-identical** to a fresh
    per-point run of any engine under the same configuration and seed.
    The caller must treat the network as owned by the engine between
    :meth:`run_point` calls and must call :meth:`close` (or use the
    instance as a context manager) before touching the network again.
    """

    def __init__(
        self, network: Network, config: SimulationConfig, *, points: int = 1
    ) -> None:
        from repro.noc.array_kernel import ArrayKernel

        if points < 1:
            raise ValueError(f"points must be >= 1, got {points}")
        self._network = network
        self._config = config
        self._slots = points
        # Built while the real injection channels are still attached (the
        # kernel records their indices and latencies for its emitters).
        self._kernel = ArrayKernel(network, config, slots=points)
        self._next_slot = 0
        self._endpoints = network.endpoints
        self._real_out_channels = []
        for endpoint, emitter in zip(self._endpoints, self._kernel.endpoint_emitters()):
            self._real_out_channels.append(endpoint.out_channel)
            endpoint.attach_output_channel(emitter)
        self._closed = False

    def run_point(
        self, *, seed: int, injection_rate: float, telemetry=None
    ) -> tuple[PhaseSnapshots, EngineStats]:
        """Reset the network to ``(seed, injection_rate)`` and run one point.

        ``telemetry`` is an optional per-point
        :class:`~repro.telemetry.TelemetrySession` forwarded to the
        kernel's cycle loop.
        """
        if self._closed:
            raise RuntimeError("BatchEngine is closed; create a new one")
        self._network.reset(seed=seed, injection_rate=injection_rate)
        kernel = self._kernel
        slot = self._next_slot
        self._next_slot = (slot + 1) % self._slots
        kernel.reset_events()
        kernel.refresh(slot)
        stats = EngineStats()
        snapshots = kernel.run_point(slot, stats, telemetry)
        return snapshots, stats

    def close(self) -> None:
        """Re-attach the real endpoint channels; the network is free again."""
        if self._closed:
            return
        for endpoint, channel in zip(self._endpoints, self._real_out_channels):
            endpoint.attach_output_channel(channel)
        self._closed = True

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
