"""Network assembly: routers, endpoints and channels from a topology graph.

The network mirrors the BookSim2 setup of the paper: one router per
chiplet, ``endpoints_per_chiplet`` endpoints attached to each router,
inter-router channels with the configured link latency and local channels
with a one-cycle latency.  Every flit channel has a credit channel running
in the opposite direction with the same latency.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable

from repro.graphs.model import ChipGraph
from repro.noc.channel import Channel
from repro.noc.config import SimulationConfig
from repro.noc.endpoint import Endpoint
from repro.noc.flit import Flit
from repro.noc.router import Router
from repro.noc.routing import RoutingTables
from repro.noc.traffic import BernoulliInjection, TrafficPattern, UniformRandomTraffic

#: A delivery target: called with (payload, now) for every payload arriving
#: on the associated channel.
_Sink = Callable[[object, int], None]

#: Structured description of where a channel delivers to, exposed through
#: :meth:`Network.channel_targets` so engines that bypass the sink closures
#: (the vectorized engine operates on flat router state) can dispatch
#: arrivals themselves.  Shapes:
#:
#: * ``("router_flit",   router_id,   port)`` — flit into a router input port,
#: * ``("router_credit", router_id,   port)`` — credit into a router output port,
#: * ``("endpoint_flit",   endpoint_id, -1)`` — flit ejected into an endpoint,
#: * ``("endpoint_credit", endpoint_id, -1)`` — credit returned to an endpoint.
ChannelTarget = tuple[str, int, int]


class Network:
    """A fully wired inter-chiplet network ready to be simulated.

    Parameters
    ----------
    graph:
        Inter-chiplet topology; nodes must be ``0 .. num_chiplets - 1``.
    config:
        Simulation configuration.
    traffic:
        Traffic pattern; defaults to uniform random over all endpoints.
    injection_rate:
        Offered load in flits per cycle per endpoint.
    routing:
        Optional prebuilt :class:`~repro.noc.routing.RoutingTables` for
        ``graph``.  Batched sweeps build the tables once per topology and
        share them across every point (they are immutable); when omitted
        the network builds its own.
    """

    def __init__(
        self,
        graph: ChipGraph,
        config: SimulationConfig,
        *,
        traffic: TrafficPattern | None = None,
        injection_rate: float = 0.1,
        routing: RoutingTables | None = None,
    ) -> None:
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise ValueError("the topology graph must use router ids 0 .. n-1")
        self.graph = graph
        self.config = config
        if routing is None:
            routing = RoutingTables(graph)
        elif routing.num_routers != len(nodes):
            raise ValueError(
                f"prebuilt routing tables cover {routing.num_routers} routers "
                f"but the graph has {len(nodes)}"
            )
        self.routing = routing

        self.num_routers = len(nodes)
        self.num_endpoints = self.num_routers * config.endpoints_per_chiplet
        if self.num_endpoints < 2:
            raise ValueError("a network needs at least two endpoints")

        self.endpoint_to_router = [
            endpoint // config.endpoints_per_chiplet for endpoint in range(self.num_endpoints)
        ]

        if traffic is None:
            traffic = UniformRandomTraffic(self.num_endpoints)
        if traffic.num_endpoints != self.num_endpoints:
            raise ValueError(
                f"traffic pattern is defined over {traffic.num_endpoints} endpoints "
                f"but the network has {self.num_endpoints}"
            )
        self.traffic = traffic
        # A reused pattern instance must not carry state from a previous
        # network's run (trace replay cursors); see TrafficPattern.reset.
        self.traffic.reset()
        self.injection = BernoulliInjection(injection_rate, config.packet_size_flits)

        self._packet_counter = 0
        self.routers: list[Router] = []
        self.endpoints: list[Endpoint] = []
        self._channels: list[tuple[Channel, _Sink]] = []
        self._channel_targets: list[ChannelTarget] = []

        self._build_routers()
        self._build_endpoints()
        self._wire_router_links()
        self._wire_endpoint_links()

    # -- construction ------------------------------------------------------------

    def _next_packet_id(self) -> int:
        self._packet_counter += 1
        return self._packet_counter

    def _build_routers(self) -> None:
        endpoints_per_chiplet = self.config.endpoints_per_chiplet
        for router_id in range(self.num_routers):
            neighbors = sorted(self.graph.neighbors(router_id))
            local_endpoints = [
                router_id * endpoints_per_chiplet + index
                for index in range(endpoints_per_chiplet)
            ]
            self.routers.append(
                Router(
                    router_id=router_id,
                    config=self.config,
                    routing=self.routing,
                    neighbor_routers=neighbors,
                    local_endpoints=local_endpoints,
                    endpoint_to_router=self.endpoint_to_router,
                )
            )

    def _build_endpoints(self) -> None:
        base_seed = self.config.seed
        for endpoint_id in range(self.num_endpoints):
            # Trace-driven patterns scale each source's offered load by its
            # share of the workload traffic (synthetic patterns return 1.0,
            # keeping the shared injection process).
            injection = self.injection.scaled(
                self.traffic.injection_rate_scale(endpoint_id)
            )
            endpoint = Endpoint(
                endpoint_id=endpoint_id,
                router_id=self.endpoint_to_router[endpoint_id],
                config=self.config,
                traffic=self.traffic,
                injection=injection,
                seed=base_seed * 1_000_003 + endpoint_id,
            )
            endpoint.set_packet_id_allocator(self._next_packet_id)
            self.endpoints.append(endpoint)

    def _register(self, channel: Channel, sink: _Sink, target: ChannelTarget) -> Channel:
        self._channels.append((channel, sink))
        self._channel_targets.append(target)
        return channel

    def _wire_router_links(self) -> None:
        link_latency = self.config.link_latency_cycles
        for source, destination in self.graph.edges():
            for u, v in ((source, destination), (destination, source)):
                sender = self.routers[u]
                receiver = self.routers[v]
                out_port = sender.port_of_neighbor(v)
                in_port = receiver.port_of_neighbor(u)

                flit_channel = Channel(link_latency, name=f"link {u}->{v}")
                sender.attach_output_channel(out_port, flit_channel)
                self._register(
                    flit_channel,
                    self._make_router_flit_sink(receiver, in_port),
                    ("router_flit", v, in_port),
                )

                credit_channel = Channel(link_latency, name=f"credit {v}->{u}")
                receiver.attach_credit_channel(in_port, credit_channel)
                self._register(
                    credit_channel,
                    self._make_router_credit_sink(sender, out_port),
                    ("router_credit", u, out_port),
                )

    def _wire_endpoint_links(self) -> None:
        local_latency = self.config.local_latency_cycles
        for endpoint in self.endpoints:
            router = self.routers[endpoint.router_id]
            port = router.port_of_endpoint(endpoint.endpoint_id)

            # Injection path: endpoint -> router, plus the credit return path.
            injection_channel = Channel(
                local_latency, name=f"inject {endpoint.endpoint_id}->{router.router_id}"
            )
            endpoint.attach_output_channel(injection_channel)
            self._register(
                injection_channel,
                self._make_router_flit_sink(router, port),
                ("router_flit", router.router_id, port),
            )

            injection_credit = Channel(
                local_latency, name=f"inject-credit {router.router_id}->{endpoint.endpoint_id}"
            )
            router.attach_credit_channel(port, injection_credit)
            self._register(
                injection_credit,
                self._make_endpoint_credit_sink(endpoint),
                ("endpoint_credit", endpoint.endpoint_id, -1),
            )

            # Ejection path: router -> endpoint (the endpoint is an infinite
            # sink, so no credit channel is needed in return).
            ejection_channel = Channel(
                local_latency, name=f"eject {router.router_id}->{endpoint.endpoint_id}"
            )
            router.attach_output_channel(port, ejection_channel)
            self._register(
                ejection_channel,
                self._make_endpoint_flit_sink(endpoint),
                ("endpoint_flit", endpoint.endpoint_id, -1),
            )

    @staticmethod
    def _make_router_flit_sink(router: Router, port: int) -> _Sink:
        def deliver(payload: object, now: int) -> None:
            assert isinstance(payload, Flit)
            router.accept_flit(port, payload, now)

        return deliver

    @staticmethod
    def _make_router_credit_sink(router: Router, port: int) -> _Sink:
        def deliver(payload: object, now: int) -> None:
            router.accept_credit(port, int(payload))  # payload is the VC index

        return deliver

    @staticmethod
    def _make_endpoint_flit_sink(endpoint: Endpoint) -> _Sink:
        def deliver(payload: object, now: int) -> None:
            assert isinstance(payload, Flit)
            endpoint.accept_flit(payload, now)

        return deliver

    @staticmethod
    def _make_endpoint_credit_sink(endpoint: Endpoint) -> _Sink:
        def deliver(payload: object, now: int) -> None:
            endpoint.accept_credit(int(payload))

        return deliver

    # -- batched reuse -----------------------------------------------------------

    def reset(self, *, seed: int | None = None, injection_rate: float | None = None) -> None:
        """Return the network to its just-built state under new point parameters.

        The structural state (routers, channels, wiring, routing tables)
        is immutable and survives; every piece of mutable simulation state
        — router buffers and pipelines, endpoint queues / RNG streams /
        counters, channel queues, the shared packet-id allocator — is
        reset in place, so a reset network produces **bit-identical**
        results to a freshly built ``Network(graph, config', ...)`` with
        the same seed and injection rate.  This is the seam the batched
        sweep engine uses to amortise network construction across the
        points of one sweep.
        """
        if seed is not None:
            self.config = replace(self.config, seed=seed)
        if injection_rate is not None:
            self.injection = BernoulliInjection(
                injection_rate, self.config.packet_size_flits
            )
        self._packet_counter = 0
        self.traffic.reset()
        base_seed = self.config.seed
        for endpoint in self.endpoints:
            endpoint.reset(
                seed=base_seed * 1_000_003 + endpoint.endpoint_id,
                injection=self.injection.scaled(
                    self.traffic.injection_rate_scale(endpoint.endpoint_id)
                ),
            )
        for router in self.routers:
            router.reset()
        for channel, _ in self._channels:
            channel.clear()

    # -- per-cycle operation --------------------------------------------------------

    def channel_targets(self) -> list[tuple[Channel, ChannelTarget]]:
        """The registered channels with structured delivery targets.

        In registration order, the order :meth:`deliver_channels` scans
        the channels in; the vectorized engine uses the targets to route
        arrivals into its flat router state instead of going through the
        object-model sink closures.
        """
        return list(zip((channel for channel, _ in self._channels), self._channel_targets))

    def deliver_channels(self, now: int) -> None:
        """Deliver every payload whose channel latency has elapsed."""
        for channel, sink in self._channels:
            if channel.in_flight:
                for payload in channel.receive(now):
                    sink(payload, now)

    def step_endpoints(self, now: int, *, measured_phase: bool) -> None:
        """Let every endpoint generate and inject traffic."""
        for endpoint in self.endpoints:
            endpoint.step(now, measured_phase=measured_phase)

    def step_routers(self, now: int) -> None:
        """Let every router perform allocation and forwarding."""
        for router in self.routers:
            router.step(now)

    # -- introspection -----------------------------------------------------------------

    def flits_in_flight(self) -> int:
        """Flits currently stored in router buffers or traversing flit channels."""
        buffered = sum(router.buffered_flits for router in self.routers)
        on_channels = 0
        for channel, _ in self._channels:
            if not channel.in_flight:
                continue
            # Credit channels carry integers; flit channels carry Flit objects.
            for payload in channel.payloads():
                if isinstance(payload, Flit):
                    on_channels += 1
        return buffered + on_channels

    def in_flight_measured_packets(self) -> int:
        """Measured packets currently inside the network fabric.

        Counts head flits of measured packets sitting in router input
        buffers or traversing flit channels.  Packets still queued at their
        source endpoint are *not* included; use
        :meth:`Endpoint.in_flight_measured_packets` for those.
        """
        measured = sum(router.in_flight_measured_packets() for router in self.routers)
        for channel, _ in self._channels:
            if not channel.in_flight:
                continue
            for payload in channel.payloads():
                if isinstance(payload, Flit) and payload.is_head and payload.packet.measured:
                    measured += 1
        return measured

    def total_created_flits(self) -> int:
        """Total flits created by all endpoints (including still-queued ones)."""
        return sum(e.created_packets for e in self.endpoints) * self.config.packet_size_flits

    def total_ejected_flits(self) -> int:
        """Total flits delivered to their destination endpoints."""
        return sum(e.ejected_flits for e in self.endpoints)

    def total_source_queued_flits(self) -> int:
        """Flits of packets still waiting (entirely or partially) at their source."""
        total_injected = sum(e.injected_flits for e in self.endpoints)
        return self.total_created_flits() - total_injected

    def verify_flit_conservation(self) -> None:
        """Raise :class:`RuntimeError` if any flit was lost or duplicated."""
        created = self.total_created_flits()
        accounted = (
            self.total_ejected_flits()
            + self.flits_in_flight()
            + self.total_source_queued_flits()
        )
        if created != accounted:
            raise RuntimeError(
                f"flit conservation violated: created {created}, accounted {accounted}"
            )

    def make_rng(self) -> random.Random:
        """A fresh RNG derived from the configuration seed (for auxiliary uses)."""
        return random.Random(self.config.seed)
