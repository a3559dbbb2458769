"""Array-native numpy cycle kernel over the flat ``(router, port, vc)`` state.

The kernel behind ``NocSimulator.run(engine="vectorized")`` and
``NocSimulator.run_batch``: every pipeline stage of every router is
expressed as masked ndarray operations over the **whole network at once**
— one state array per quantity, indexed by the flat coordinate — instead
of a per-router Python scan.  Batched sweep points reuse one kernel (and
its static tables) one after another; each point starts from
:meth:`ArrayKernel.refresh` after a ``Network.reset``.

The flat coordinate is ``g = base[router] + port * V + vc``, ascending
``g`` being exactly the (port-major, vc-minor) order of the object
model's dense scans.  *Flits* are integer ids into a side registry
(parallel numpy attribute arrays plus the live
:class:`~repro.noc.flit.Flit` objects), so buffer pushes/pops, credit and
occupancy updates, switch allocation and channel traversal are all plain
array arithmetic; Python objects are only touched at the endpoint
boundary (packet generation / injection / ejection bookkeeping) and when
the final state is materialised back into the object model.

Equivalence contract
--------------------
Bit-identical to the legacy dense loop under the same configuration and
seed.  The non-obvious part is virtual-channel allocation, which in the
object model is *sequential*: candidates are visited in ascending ``g``
and each grant (an ``owner`` claim) is visible to every later candidate
of the same router.  The kernel reproduces that order exactly with a
round-based fixpoint:

* each round computes every unresolved candidate's decision **vectorized**
  against the current owner state (ejection / adaptive / escape paths,
  with numpy ``argmax`` reproducing the scalar first-strict-maximum
  tie-breaks);
* conflicting claims on one output VC are resolved to the lowest-``g``
  claimant (the one the sequential scan would have served first);
* a *no-grant* outcome always finalises: grants only ever shrink the free
  set, so a candidate that finds nothing under the current owner state
  finds nothing under the sequential state either (its side effect — the
  escape-patience tick — is owner-independent);
* a *winning* claim finalises only when no lower-``g`` candidate of the
  same router is still unresolved: a finalised claim on a *different*
  resource never changes a later candidate's decision (credit sums are
  owner-independent, and removing a non-chosen VC from the free set
  cannot move a first-strict-maximum), while the same resource would have
  been resolved by the lowest-``g`` rule;
* the lowest unresolved candidate of every router wins its claim by
  construction, so every round finalises at least one candidate per
  involved router and the loop terminates.

Switch allocation is one shot: per-port first-eligible-VC nomination is
an ``argmax`` over the ``(ports, V)`` view (the object model's VC
pointers never advance), and the per-output-port round-robin arbitration
becomes a lexsort by ``(router, (port - sa_ptr) mod nports)`` followed by
a first-occurrence unique over the requested output ports.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.noc.config import SimulationConfig
from repro.noc.engine import EngineStats, PhaseSnapshots, _injected_total, _phase_bounds
from repro.noc.flit import Flit, Packet
from repro.noc.network import Network
from repro.noc.router import _ACTIVE, _IDLE, _VC_ALLOC, RouterState

#: Channel-kind codes of the static channel tables (see ``Network``'s
#: channel targets): flit into a router port, credit into a router port,
#: flit ejected into an endpoint, credit returned to an endpoint.
_CK_ROUTER_FLIT = 0
_CK_ROUTER_CREDIT = 1
_CK_ENDPOINT_FLIT = 2
_CK_ENDPOINT_CREDIT = 3

_BIG = 1 << 60

#: Work-set size at or below which the per-cycle stages drop from the
#: vectorized path to an equivalent scalar loop over the same arrays.
#: Each masked-scatter stage costs tens of microseconds of fixed numpy
#: dispatch regardless of how many coordinates carry work; near zero
#: load (sweep tails, drain phases, low-rate points) that fixed cost
#: dominates, and a Python loop over a handful of flat coordinates is an
#: order of magnitude cheaper.  Both paths implement the identical
#: sequential semantics, so the threshold is purely a performance knob.
#: 32 keeps the whole zero-load regime of the 61-chiplet mesh (~20-60
#: flits in flight network-wide) on the scalar path; the measured
#: crossover to the vectorized path sits between 32 and 48 candidates.
_SCALAR_MAX = 32

#: Occupied-set size at or below which the vectorized stages gather
#: their candidates from the maintained occupied set (sorted into a
#: small index array) instead of scanning all G coordinates.  Above it
#: the O(G) masked scan is as cheap as the set conversion.
_ENUM_MAX = 512

#: Unresolved-set size at or below which the VC-allocation fixpoint
#: finishes its tail sequentially instead of running further vectorized
#: rounds.  After the first round drains the no-grant bulk and the
#: finalised winners, the survivors (blocked winners and conflict
#: losers) usually number a few dozen; at that size the scalar
#: ascending-g loop — the very semantics the rounds reproduce — is
#: cheaper than the two-to-three extra rounds the fixpoint would take.
_VA_TAIL_MAX = 64


def build_route_tab(
    network: Network, escape_only_all: bool
) -> list[list[tuple[tuple[int, ...], int, bool]]]:
    """Precompute ``route_tab[router][destination_endpoint]`` for a network.

    Each entry is the ``(minimal output ports, escape port, escape_only)``
    triple of ``Router._compute_route`` with ejection folded in (local
    destinations route straight to their endpoint port and are never
    escape-only), mirroring the object model exactly so written-back state
    stays bit-identical.  The table depends only on the topology, the port
    layout and the VC count, so one kernel serves every point of a batch.
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


class _KernelEmitter:
    """Drop-in ``send`` target for an endpoint's injection channel.

    Registers the outgoing flit in the kernel's flit registry and appends
    the ``(channel index, flit id)`` event straight into the kernel's
    per-cycle delivery buckets.
    """

    __slots__ = ("kernel", "index", "latency", "endpoint")

    def __init__(
        self, kernel: "ArrayKernel", index: int, latency: int, endpoint: int
    ) -> None:
        self.kernel = kernel
        self.index = index
        self.latency = latency
        self.endpoint = endpoint

    def send(self, flit: Flit, now: int) -> None:
        kernel = self.kernel
        kernel._inj_credits[self.endpoint] -= 1
        fid = kernel._register_flit(flit)
        arrival = now + self.latency
        bucket = kernel._pending.get(arrival)
        entry = (self.index, fid)
        if bucket is None:
            kernel._pending[arrival] = [entry]
        else:
            bucket.append(entry)


class ArrayKernel:
    """The array-native cycle kernel for one network.

    One kernel owns the static layout (flat coordinates, routing tables,
    channel maps) and one copy of the mutable router state, and runs any
    number of points over its network one after another
    (:meth:`run_point`); every point is **bit-identical** to a fresh
    legacy run under the same configuration and seed.

    Construction attaches the kernel's registering emitters to the
    endpoints in place of their injection channels.  The caller must
    treat the network as owned by the kernel until :meth:`close` (or the
    end of a ``with`` block) re-attaches the real channels.
    """

    def __init__(self, network: Network, config: SimulationConfig) -> None:
        self._network = network
        self._config = config

        V = config.num_virtual_channels
        self._V = V
        self._depth = config.buffer_depth_flits
        self._router_latency = config.router_latency_cycles
        self._patience = config.escape_patience_cycles
        self._escape_vc = config.escape_vc
        self._adaptive = np.asarray(config.adaptive_vcs, dtype=np.int64)
        self._adaptive_list = [int(vc) for vc in config.adaptive_vcs]
        self._escape_only_all = V == 1

        routers = network.routers
        self._routers = routers
        self._endpoints = network.endpoints
        R = len(routers)
        self._R = R
        E = network.num_endpoints
        self._E = E

        nports = np.asarray([router.num_ports for router in routers], dtype=np.int64)
        self._nports = nports
        block = nports * V
        base = np.concatenate(([0], np.cumsum(block)))
        self._base = base[:-1]
        G = int(base[-1])
        self._G = G
        P = G // V  # total number of (router, port) pairs
        self._P = P

        self._router_of_g = np.repeat(np.arange(R, dtype=np.int64), block)
        self._router_of_port = np.repeat(np.arange(R, dtype=np.int64), nports)
        self._port_base = self._base // V  # first global port of each router
        is_ej = np.zeros(P, dtype=bool)
        for r, router in enumerate(routers):
            start = int(self._port_base[r])
            is_ej[start + router.num_router_ports : start + router.num_ports] = True
        self._is_ej_port = is_ej
        self._vrange = np.arange(V, dtype=np.int64)

        self._build_route_arrays()
        self._build_channel_arrays()

        # -- mutable state (values set by refresh) -------------------------
        self._q = np.full((G, self._depth), -1, dtype=np.int64)
        self._qhead = np.zeros(G, dtype=np.int64)
        self._qlen = np.zeros(G, dtype=np.int64)
        self._state = np.zeros(G, dtype=np.int8)
        self._credits = np.zeros(G, dtype=np.int64)
        self._owner_in = np.zeros(G, dtype=np.int64)
        self._out_g = np.zeros(G, dtype=np.int64)
        self._wait = np.zeros(G, dtype=np.int64)
        self._route_key = np.zeros(G, dtype=np.int64)
        self._rcounts = np.zeros(R, dtype=np.int64)
        self._sa_ptr = np.zeros(R, dtype=np.int64)
        self._fwd = np.zeros(R, dtype=np.int64)
        #: Cross-cycle no-grant cache.  ``_blocked[g]`` records that
        #: candidate ``g`` last finalised as no-grant on the adaptive /
        #: escape path.  The adaptive path fails exactly when every
        #: adaptive VC of every valid minimal port is owned (credits do
        #: not enter the failure condition), and the escape path fails
        #: when the escape VC is owned or patience has not run out — so
        #: the verdict can only flip when an owner bit is *cleared* (a
        #: tail frees a VC; owner sets keep a failing verdict failing) or
        #: at the ``wait == escape_patience`` crossing.  The per-port
        #: free-event flags below make the re-decide test exact: a freed
        #: adaptive VC on port ``p`` un-blocks precisely the candidates
        #: with ``p`` among their minimal ports, a freed escape VC
        #: precisely the candidates escaping through ``p``.
        self._blocked = np.zeros(G, dtype=bool)
        self._freed_adapt = np.zeros(P, dtype=bool)
        self._freed_esc = np.zeros(P, dtype=bool)
        #: Free adaptive VCs per (non-ejection) port, kept in lockstep
        #: with ``_owner_in`` by the allocation and forwarding stages.  A
        #: positive count is exactly the adaptive path's success test, so
        #: the expensive per-VC credit compute only runs for candidates
        #: that are guaranteed to claim.  Ejection-port entries are not
        #: maintained (nothing routes adaptively through them).
        self._free_adapt = np.zeros(P, dtype=np.int64)

        # The routers' own buffer deques (cleared in place by
        # ``Router.reset``), captured once so materialisation can refill
        # them without re-exporting.
        buffers: list = []
        for router in routers:
            snapshot = router.export_state()
            buffers.extend(snapshot.buffers)
        self._buffers = buffers

        # -- flit registry --------------------------------------------------
        self._flit_objs: list[Flit] = []
        self._reg_buf: list[Flit] = []
        capacity = 1024
        self._f_dest = np.zeros(capacity, dtype=np.int64)
        self._f_arrival = np.zeros(capacity, dtype=np.int64)
        self._f_hops = np.zeros(capacity, dtype=np.int64)
        self._f_vc = np.zeros(capacity, dtype=np.int64)
        self._f_head = np.zeros(capacity, dtype=bool)
        self._f_tail = np.zeros(capacity, dtype=bool)

        #: cycle -> list of (channel index, payload id) events; entries are
        #: scalar pairs (endpoint emitters) or ndarray pairs (forwards).
        self._pending: dict[int, list] = {}

        # Scratch buffers for the scatter-based arbitration (values are
        # only read back from entries written in the same pass, so none of
        # them need per-cycle clearing; ``_scratch_rr`` is restored to its
        # sentinel after every use).
        self._scratch_g = np.zeros(G, dtype=np.int64)
        self._scratch_nom = np.zeros(P, dtype=np.int64)
        self._scratch_port_mask = np.zeros(P, dtype=bool)
        self._scratch_rr = np.full(P, _BIG, dtype=np.int64)
        self._scratch_router_mask = np.zeros(R, dtype=bool)
        self._scratch_router_min = np.full(R, _BIG, dtype=np.int64)
        self._scratch_arange = np.arange(G, dtype=np.int64)
        #: Deferred ejection bookkeeping: (endpoint ids, flit ids, cycle)
        #: entries — ndarray groups from the vectorized delivery path,
        #: plain int pairs from the scalar one.
        self._eject_backlog: list[tuple] = []

        #: Mirror of each endpoint's injection-VC credit total, kept
        #: current by the emitters (send: -1) and by credit deliveries
        #: (+1 — a credit returned to an endpoint is always for an
        #: injection VC, since endpoints never inject on the escape VC).
        #: An endpoint at zero is credit-starved: ``inject_pending`` is a
        #: guaranteed no-op, so the cycle loop skips the call entirely.
        self._inj_credits: list[int] = [0] * len(self._endpoints)

        #: Exact set of occupied coordinates (``qlen > 0``), maintained
        #: by the delivery and forwarding stages.  Near-idle cycles
        #: enumerate allocation / switch candidates from it directly
        #: instead of running two O(G) masked scans.
        self._occ: set[int] = set()

        #: Per-run telemetry observers, set by :meth:`run_point` when a
        #: session is passed and always cleared again in its ``finally``.
        #: Stage methods test them against ``None``, so a run without
        #: telemetry pays nothing beyond the checks.
        self._mc = None
        self._tracer = None

        # The emitters replace the real injection channels, whose indices
        # and latencies the channel tables above have already recorded.
        self._real_out_channels = [endpoint.out_channel for endpoint in self._endpoints]
        for endpoint in self._endpoints:
            endpoint_id = endpoint.endpoint_id
            endpoint.attach_output_channel(
                _KernelEmitter(self, *self._injection_index[endpoint_id], endpoint_id)
            )
        self._closed = False

    # -- static tables ------------------------------------------------------

    def _build_route_arrays(self) -> None:
        """Routing as flat gather tables keyed by ``router * E + destination``.

        ``rt_ej`` holds the ejection port's first output-VC coordinate for
        local destinations (-1 otherwise), ``rt_minp`` the (padded) block
        coordinates of the minimal output ports in the object model's
        preference order, ``rt_esc`` the escape output VC, ``rt_esco`` the
        escape-only flag — together exactly ``Router._compute_route`` with
        ejection folded in.
        """
        network = self._network
        V = self._V
        route_tab = build_route_tab(network, self._escape_only_all)
        self._route_tab = route_tab
        R, E = self._R, self._E
        endpoint_to_router = network.endpoint_to_router

        kmax = 1
        for r in range(R):
            for dest in range(E):
                kmax = max(kmax, len(route_tab[r][dest][0]))
        rt_ej = np.full(R * E, -1, dtype=np.int64)
        rt_minp = np.full((R * E, kmax), -1, dtype=np.int64)
        rt_esc = np.full(R * E, -1, dtype=np.int64)
        rt_esco = np.zeros(R * E, dtype=bool)
        for r in range(R):
            base_r = int(self._base[r])
            for dest in range(E):
                key = r * E + dest
                minimal, escape_port, escape_only = route_tab[r][dest]
                rt_esc[key] = base_r + escape_port * V + self._escape_vc
                rt_esco[key] = escape_only
                if endpoint_to_router[dest] == r:
                    rt_ej[key] = base_r + minimal[0] * V
                else:
                    for k, port in enumerate(minimal):
                        rt_minp[key, k] = base_r + port * V
        self._rt_ej = rt_ej
        self._rt_minp = rt_minp
        self._rt_esc = rt_esc
        self._rt_esco = rt_esco
        # Global-port views of the same tables, for the no-grant cache's
        # dirty-port test (-1 padding preserved as -1).
        self._rt_minp_port = np.where(rt_minp >= 0, rt_minp // V, -1)
        self._rt_esc_port = rt_esc // V
        #: Plain-list mirrors of the static tables for the scalar fast
        #: paths, built lazily on first use (per-point runs that never go
        #: scalar skip the conversion entirely).
        self._rt_minp_list: list[list[int]] | None = None

    def _build_scalar_tabs(self) -> None:
        """Materialise the static tables as plain Python lists.

        The scalar fast paths index these per candidate; list indexing
        returns ready-to-use ints where ndarray indexing would hand back
        numpy scalars at several times the cost.
        """
        self._rt_minp_list = [
            [p for p in row if p >= 0] for row in self._rt_minp.tolist()
        ]
        self._rt_esc_list = self._rt_esc.tolist()
        self._rt_esco_list = self._rt_esco.tolist()
        self._is_ej_list = self._is_ej_port.tolist()
        self._router_of_port_list = self._router_of_port.tolist()
        self._router_of_g_list = self._router_of_g.tolist()
        self._port_base_list = self._port_base.tolist()
        self._nports_list = self._nports.tolist()
        self._out_chan_list = self._out_chan_of_port.tolist()
        self._credit_chan_list = self._credit_chan_of_port.tolist()
        self._chan_kind_list = self._chan_kind.tolist()
        self._chan_in_base_list = self._chan_in_base.tolist()
        self._chan_lat_list = self._chan_latency.tolist()

    def _build_channel_arrays(self) -> None:
        network = self._network
        V = self._V
        targets = network.channel_targets()
        self._channels = [channel for channel, _ in targets]
        C = len(targets)
        kind = np.zeros(C, dtype=np.int64)
        in_base = np.zeros(C, dtype=np.int64)
        latency = np.zeros(C, dtype=np.int64)
        index_of = {id(channel): i for i, (channel, _) in enumerate(targets)}
        for i, (channel, target) in enumerate(targets):
            target_kind, owner_id, port = target
            latency[i] = channel.latency
            if target_kind == "router_flit":
                kind[i] = _CK_ROUTER_FLIT
                in_base[i] = self._base[owner_id] + port * V
            elif target_kind == "router_credit":
                kind[i] = _CK_ROUTER_CREDIT
                in_base[i] = self._base[owner_id] + port * V
            elif target_kind == "endpoint_flit":
                kind[i] = _CK_ENDPOINT_FLIT
                in_base[i] = owner_id
            elif target_kind == "endpoint_credit":
                kind[i] = _CK_ENDPOINT_CREDIT
                in_base[i] = owner_id
            else:  # pragma: no cover - new target kinds must be wired here
                raise ValueError(f"unknown channel target kind {target_kind!r}")
        self._chan_kind = kind
        self._chan_in_base = in_base
        self._chan_latency = latency
        self._chan_lat_values = [int(lat) for lat in np.unique(latency)] or [0]

        # Output / credit channel of every global (router, port) pair.
        P = self._P
        out_chan = np.full(P, -1, dtype=np.int64)
        credit_chan = np.full(P, -1, dtype=np.int64)
        for r, router in enumerate(self._routers):
            start = int(self._port_base[r])
            for port, channel in enumerate(router.output_channels()):
                if channel is not None:
                    out_chan[start + port] = index_of[id(channel)]
            for port, channel in enumerate(router.input_credit_channels()):
                if channel is not None:
                    credit_chan[start + port] = index_of[id(channel)]
        self._out_chan_of_port = out_chan
        self._credit_chan_of_port = credit_chan

        injection_index = {}
        for endpoint in self._endpoints:
            channel = endpoint.out_channel
            if channel is None or id(channel) not in index_of:
                raise RuntimeError("endpoint has no registered injection channel")
            injection_index[endpoint.endpoint_id] = (
                index_of[id(channel)],
                channel.latency,
            )
        self._injection_index = injection_index

    # -- registry -----------------------------------------------------------

    def _register_flit(self, flit: Flit) -> int:
        """Assign a flit id; the array columns follow at the next flush.

        Registrations batch up in ``_reg_buf`` so the six per-flit scalar
        array writes become six vectorized slice writes per cycle.  Every
        reader of the ``_f_*`` columns flushes first (the cycle loop at
        the top of each cycle — channel latencies are >= 1, so a flit's
        columns are always flushed before its arrival is processed — plus
        ejection flushing and materialisation).
        """
        fid = len(self._flit_objs)
        self._flit_objs.append(flit)
        self._reg_buf.append(flit)
        return fid

    def _flush_registry(self) -> None:
        buf = self._reg_buf
        if not buf:
            return
        end = len(self._flit_objs)
        start = end - len(buf)
        capacity = len(self._f_dest)
        if end > capacity:
            grow = max(capacity * 2, end)
            self._f_dest = np.resize(self._f_dest, grow)
            self._f_arrival = np.resize(self._f_arrival, grow)
            self._f_hops = np.resize(self._f_hops, grow)
            self._f_vc = np.resize(self._f_vc, grow)
            self._f_head = np.resize(self._f_head, grow)
            self._f_tail = np.resize(self._f_tail, grow)
        sl = slice(start, end)
        self._f_dest[sl] = [flit.destination for flit in buf]
        self._f_arrival[sl] = [flit.arrival_cycle for flit in buf]
        self._f_hops[sl] = [flit.hops for flit in buf]
        self._f_vc[sl] = [flit.vc for flit in buf]
        self._f_head[sl] = [flit.is_head for flit in buf]
        self._f_tail[sl] = [flit.is_tail for flit in buf]
        buf.clear()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Re-attach the real endpoint channels; the network is free again."""
        if self._closed:
            return
        for endpoint, channel in zip(self._endpoints, self._real_out_channels):
            endpoint.attach_output_channel(channel)
        self._closed = True

    def __enter__(self) -> "ArrayKernel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def refresh(self) -> None:
        """Reset the flat state to that of a just-reset network (array fills)."""
        self._qlen[:] = 0
        self._qhead[:] = 0
        self._state[:] = _IDLE
        self._credits[:] = self._depth
        self._owner_in[:] = -1
        self._out_g[:] = -1
        self._wait[:] = 0
        self._route_key[:] = -1
        self._rcounts[:] = 0
        self._sa_ptr[:] = 0
        self._fwd[:] = 0
        self._blocked[:] = False
        self._freed_adapt[:] = False
        self._freed_esc[:] = False
        self._free_adapt[:] = len(self._adaptive)
        self._occ.clear()
        self._flit_objs.clear()
        self._reg_buf.clear()
        self._pending.clear()
        self._eject_backlog.clear()

    # -- generation ---------------------------------------------------------

    def precompute_generation(self, measure_end: int) -> dict[int, list]:
        """Consume every endpoint RNG stream into per-cycle creation events.

        Identical (and identically ordered) to the streaming engines' draw
        sequence — endpoint RNG streams are private, so front-loading them
        is invisible; buckets are appended endpoint-major per cycle,
        matching the ascending-endpoint stepping order that pins the
        shared packet-id allocator sequence.
        """
        gen_buckets: dict[int, list] = {}
        traffic_destination = self._network.traffic.destination
        for endpoint in self._endpoints:
            probability = endpoint.packet_probability
            if probability <= 0.0:
                continue
            if endpoint.packet_id_allocator is None:
                raise RuntimeError("endpoint has no packet-id allocator attached")
            rng = endpoint.rng
            draw = rng.random
            endpoint_id = endpoint.endpoint_id
            source_queue, _ = endpoint.source_buffers()
            row = (endpoint, endpoint_id, source_queue)
            for cycle in range(measure_end):
                if draw() < probability:
                    entry = (row, traffic_destination(endpoint_id, rng))
                    bucket = gen_buckets.get(cycle)
                    if bucket is None:
                        gen_buckets[cycle] = [entry]
                    else:
                        bucket.append(entry)
        return gen_buckets

    # -- the cycle loop -----------------------------------------------------

    def run_point(
        self, *, seed: int, injection_rate: float, telemetry=None
    ) -> tuple[PhaseSnapshots, EngineStats]:
        """Reset the network to ``(seed, injection_rate)`` and run one point.

        The network is reset in place and the flat state refreshed, then
        the cycle loop runs to the end of the drain phase (or an early
        exit once the network has drained).  The final state is
        materialised back into the object model unconditionally, also
        when the loop raises, so the network can be inspected until the
        next point.

        ``telemetry`` is an optional
        :class:`~repro.telemetry.TelemetrySession`.  Its collector and
        tracer observe the *semantic* cycles — flit deliveries and
        ejections are counted at the cycle the object model would have
        performed them, not at the cycle the backlog is flushed — so the
        recorded series and event streams are bit-identical to the
        object engines' under the same configuration and seed.
        """
        if self._closed:
            raise RuntimeError("ArrayKernel is closed; create a new one")
        network = self._network
        network.reset(seed=seed, injection_rate=injection_rate)
        self.refresh()
        stats = EngineStats()
        config = self._config
        warmup_end, measure_end, total_cycles = _phase_bounds(config)
        packet_size = config.packet_size_flits

        metrics = tracer = prof = None
        if telemetry is not None:
            metrics = telemetry.metrics
            tracer = telemetry.tracer
            prof = telemetry.profiler
        self._mc = metrics
        self._tracer = tracer
        if metrics is not None or tracer is not None:
            # The non-fused injection path goes through the real
            # ``Endpoint.inject_pending``, which carries its own probe
            # seam; ejections and in-kernel hops are instrumented by the
            # kernel stages directly.
            for endpoint in self._endpoints:
                endpoint.metrics = metrics
                endpoint.tracer = tracer

        gen_buckets = self.precompute_generation(measure_end)
        endpoints = self._endpoints
        next_packet_id = endpoints[0].packet_id_allocator
        num_endpoints_total = len(endpoints)
        # Per-endpoint injection rows.  For single-flit packets the cycle
        # loop replays ``Endpoint.inject_pending`` inline (VC selection,
        # credit decrement, counters, and the emitter's bucket append all
        # fused), which is bit-identical because a single-flit injection
        # with available credits always completes in one call and leaves
        # no mid-stream state behind; anything else falls back to the
        # real method.
        fast_inject = packet_size == 1
        inject_rows = []
        for endpoint in endpoints:
            credits_ep, injection_vcs = endpoint.injection_state()
            chan_index, chan_latency = self._injection_index[endpoint.endpoint_id]
            inject_rows.append(
                (
                    endpoint,
                    endpoint.inject_pending,
                    *endpoint.source_buffers(),
                    credits_ep,
                    injection_vcs,
                    chan_index,
                    chan_latency,
                )
            )
        flit_objs = self._flit_objs
        reg_buf = self._reg_buf
        inj_credits = self._inj_credits
        inj_credits[:] = [endpoint.injection_credits() for endpoint in endpoints]
        active: set[int] = set()
        pending = self._pending
        total_buffered = 0
        if self._rt_minp_list is None:
            self._build_scalar_tabs()
        router_of_g_list = self._router_of_g_list

        ejected_before = ejected_after = 0
        injected_before = injected_after = 0

        try:
            cycle = 0
            while cycle < total_cycles:
                self._flush_registry()
                if cycle == warmup_end:
                    self._flush_ejections()
                    ejected_before = network.total_ejected_flits()
                    injected_before = _injected_total(network)
                if cycle == measure_end:
                    self._flush_ejections()
                    ejected_after = network.total_ejected_flits()
                    injected_after = _injected_total(network)
                if cycle >= measure_end and not pending and total_buffered == 0:
                    stats.early_exit_cycle = cycle
                    break

                if prof is not None:
                    t_stage = perf_counter()
                bucket = pending.pop(cycle, None)
                if bucket is not None:
                    total_buffered += self._deliver(bucket, cycle, stats)
                if prof is not None:
                    t_now = perf_counter()
                    prof.add("deliver", t_now - t_stage)
                    t_stage = t_now

                if cycle < measure_end:
                    events = gen_buckets.pop(cycle, None)
                    if events is not None:
                        measured = cycle >= warmup_end
                        for (endpoint, endpoint_id, source_queue), destination in events:
                            source_queue.append(
                                Packet(
                                    next_packet_id(),
                                    endpoint_id,
                                    destination,
                                    packet_size,
                                    cycle,
                                    measured,
                                )
                            )
                            endpoint.created_packets += 1
                            active.add(endpoint_id)
                    if active:
                        for endpoint_id in sorted(active):
                            # Credit-starved endpoints cannot move a flit
                            # and stay active (their queues are non-empty
                            # by construction), so the call is skipped.
                            if not inj_credits[endpoint_id]:
                                continue
                            (
                                endpoint,
                                inject,
                                source_queue,
                                pending_flits,
                                credits_ep,
                                injection_vcs,
                                chan_index,
                                chan_latency,
                            ) = inject_rows[endpoint_id]
                            if fast_inject and not pending_flits:
                                # inject_pending, fused: pick the
                                # injection VC with the most credits
                                # (first wins ties; one exists because
                                # the credit total is positive), move
                                # the packet's only flit onto it and
                                # emit straight into the buckets.
                                best_vc = -1
                                best_credits = 0
                                for vc in injection_vcs:
                                    c = credits_ep[vc]
                                    if c > best_credits:
                                        best_credits = c
                                        best_vc = vc
                                packet = source_queue.popleft()
                                flit = Flit(packet, 0, True, True, best_vc)
                                credits_ep[best_vc] -= 1
                                inj_credits[endpoint_id] -= 1
                                fid = len(flit_objs)
                                flit_objs.append(flit)
                                reg_buf.append(flit)
                                arrival = cycle + chan_latency
                                bucket = pending.get(arrival)
                                if bucket is None:
                                    pending[arrival] = [(chan_index, fid)]
                                else:
                                    bucket.append((chan_index, fid))
                                endpoint.injected_flits += 1
                                packet.injection_cycle = cycle
                                if metrics is not None:
                                    metrics._inj += 1
                                if tracer is not None:
                                    tracer.inject(
                                        cycle,
                                        packet.packet_id,
                                        0,
                                        endpoint_id,
                                        best_vc,
                                    )
                            else:
                                inject(cycle)
                            if not source_queue and not pending_flits:
                                active.discard(endpoint_id)
                    stats.endpoint_steps += num_endpoints_total
                if prof is not None:
                    t_now = perf_counter()
                    prof.add("inject", t_now - t_stage)
                    t_stage = t_now

                if total_buffered:
                    occ = self._occ
                    small = len(occ) <= _SCALAR_MAX
                    if small:
                        occ_list = sorted(occ)
                        stats.router_steps += len(
                            {router_of_g_list[g] for g in occ_list}
                        )
                    else:
                        stats.router_steps += int(
                            np.count_nonzero(self._rcounts)
                        )
                        if len(occ) <= _ENUM_MAX:
                            occ_arr = np.fromiter(occ, np.int64, len(occ))
                            occ_arr.sort()
                        else:
                            occ_arr = None
                    if small:
                        self._allocate_small(cycle, occ_list)
                    else:
                        self._allocate(cycle, occ_arr)
                    if prof is not None:
                        t_now = perf_counter()
                        prof.add("va", t_now - t_stage)
                        t_stage = t_now
                    if small:
                        total_buffered -= self._switch_small(cycle, occ_list)
                    else:
                        total_buffered -= self._switch_and_forward(cycle, occ_arr)
                    if prof is not None:
                        prof.add("sa", perf_counter() - t_stage)

                if metrics is not None:
                    backlog = 0
                    for endpoint in endpoints:
                        backlog += endpoint.source_queue_length
                    metrics.record_cycle(
                        buffered=total_buffered,
                        vc_stalls=int(
                            np.count_nonzero(self._state == _VC_ALLOC)
                        ),
                        backlog=backlog,
                    )
                stats.cycles_executed += 1
                cycle += 1
        finally:
            # The flush must run while the tracer is still installed: it
            # emits the deferred eject events at their semantic cycles.
            if prof is not None:
                t_stage = perf_counter()
            self._flush_ejections()
            self._materialize()
            if prof is not None:
                prof.add("flush", perf_counter() - t_stage)
            self._mc = None
            self._tracer = None
            if metrics is not None or tracer is not None:
                for endpoint in self._endpoints:
                    endpoint.metrics = None
                    endpoint.tracer = None
        if metrics is not None:
            metrics.finalize(total_cycles)

        if int(self._qlen.sum()) != total_buffered:
            raise RuntimeError(
                "array kernel lost track of buffered flits: tables hold "
                f"{int(self._qlen.sum())}, counters say {total_buffered}"
            )
        if len(self._adaptive):
            expected = (
                self._owner_in.reshape(self._P, self._V)[:, self._adaptive]
                < 0
            ).sum(axis=1)
            drift = ~self._is_ej_port & (self._free_adapt != expected)
            if drift.any():
                raise RuntimeError(
                    "array kernel free-VC counters drifted from the owner "
                    f"table on ports {np.nonzero(drift)[0].tolist()}"
                )

        if config.drain_cycles == 0:
            ejected_after = network.total_ejected_flits()
            injected_after = _injected_total(network)

        return PhaseSnapshots(
            ejected_before_measurement=ejected_before,
            injected_before_measurement=injected_before,
            ejected_after_measurement=ejected_after,
            injected_after_measurement=injected_after,
            total_cycles=total_cycles,
            cycles_executed=stats.cycles_executed,
        ), stats

    # -- stage: channel deliveries -----------------------------------------

    def _deliver(self, bucket: list, now: int, stats: EngineStats) -> int:
        """Apply one cycle's channel arrivals to the flat state.

        Returns the change in buffered-flit count.  Delivery order within
        a cycle is immaterial here: every payload lands on a distinct
        target coordinate (a channel delivers at most one payload per
        cycle and distinct channels feed distinct ports / endpoints), so
        the vectorized scatters are conflict-free and equivalent to the
        object model's channel-registration-order replay.
        """
        array_chans: list[np.ndarray] = []
        array_payloads: list[np.ndarray] = []
        scalar_chans: list[int] = []
        scalar_payloads: list[int] = []
        for chan, payload in bucket:
            if isinstance(chan, np.ndarray):
                array_chans.append(chan)
                array_payloads.append(payload)
            else:
                scalar_chans.append(chan)
                scalar_payloads.append(payload)
        if not array_chans and len(scalar_chans) <= _SCALAR_MAX:
            return self._deliver_scalar(scalar_chans, scalar_payloads, now, stats)
        if scalar_chans:
            array_chans.append(np.asarray(scalar_chans, dtype=np.int64))
            array_payloads.append(np.asarray(scalar_payloads, dtype=np.int64))
        chans = array_chans[0] if len(array_chans) == 1 else np.concatenate(array_chans)
        payloads = (
            array_payloads[0]
            if len(array_payloads) == 1
            else np.concatenate(array_payloads)
        )
        stats.channel_deliveries += len(chans)

        kinds = self._chan_kind[chans]
        in_base = self._chan_in_base[chans]
        delta = 0

        mask = kinds == _CK_ROUTER_FLIT
        if mask.any():
            fids = payloads[mask]
            g = in_base[mask] + self._f_vc[fids]
            qlen = self._qlen
            if np.any(qlen[g] >= self._depth):
                self._raise_overflow(g[qlen[g] >= self._depth][0])
            self._q[g, (self._qhead[g] + qlen[g]) % self._depth] = fids
            qlen[g] += 1
            self._occ.update(g.tolist())
            self._f_arrival[fids] = now
            np.add.at(self._rcounts, self._router_of_g[g], 1)
            delta += len(g)
            if self._mc is not None:
                self._mc._link += len(g)
            if self._tracer is not None:
                self._trace_router_flits(
                    self._tracer.link_traverse, g.tolist(), fids.tolist(), now
                )

        mask = kinds == _CK_ROUTER_CREDIT
        if mask.any():
            gc = in_base[mask] + payloads[mask]
            self._credits[gc] += 1

        mask = kinds == _CK_ENDPOINT_FLIT
        if mask.any():
            fids = payloads[mask]
            self._eject_backlog.append((in_base[mask], fids, now))
            if self._mc is not None:
                # Ejections are *counted* at the delivery cycle (the cycle
                # the object model's endpoint would have accepted them);
                # only the Python-object bookkeeping is deferred.
                self._mc._link += len(fids)
                self._mc._ej += len(fids)

        mask = kinds == _CK_ENDPOINT_CREDIT
        if mask.any():
            endpoints = self._endpoints
            inj_credits = self._inj_credits
            for endpoint_id, vc in zip(
                in_base[mask].tolist(), payloads[mask].tolist()
            ):
                endpoints[endpoint_id].accept_credit(vc)
                inj_credits[endpoint_id] += 1
        return delta

    def _deliver_scalar(
        self,
        chans: list[int],
        payloads: list[int],
        now: int,
        stats: EngineStats,
    ) -> int:
        """Scalar replay of :meth:`_deliver` for a handful of events.

        Same conflict-free bookkeeping (processing order within a cycle
        is immaterial, see :meth:`_deliver`), Python-int arithmetic.
        """
        if self._rt_minp_list is None:
            self._build_scalar_tabs()
        stats.channel_deliveries += len(chans)
        chan_kind = self._chan_kind_list
        chan_in_base = self._chan_in_base_list
        router_of_g = self._router_of_g_list
        qlen = self._qlen
        qhead = self._qhead
        q = self._q
        credits = self._credits
        rcounts = self._rcounts
        occ = self._occ
        depth = self._depth
        delta = 0
        mc = self._mc
        tracer = self._tracer
        for chan, payload in zip(chans, payloads):
            kind = chan_kind[chan]
            in_base = chan_in_base[chan]
            if kind == _CK_ROUTER_FLIT:
                g = in_base + int(self._f_vc[payload])
                if qlen[g] >= depth:
                    self._raise_overflow(g)
                q[g, (int(qhead[g]) + int(qlen[g])) % depth] = payload
                qlen[g] += 1
                occ.add(g)
                self._f_arrival[payload] = now
                rcounts[router_of_g[g]] += 1
                delta += 1
                if mc is not None:
                    mc._link += 1
                if tracer is not None:
                    self._trace_router_flits(
                        tracer.link_traverse, (g,), (payload,), now
                    )
            elif kind == _CK_ROUTER_CREDIT:
                credits[in_base + payload] += 1
            elif kind == _CK_ENDPOINT_FLIT:
                self._eject_backlog.append((in_base, payload, now))
                if mc is not None:
                    mc._link += 1
                    mc._ej += 1
            else:
                self._endpoints[in_base].accept_credit(payload)
                self._inj_credits[in_base] += 1
        return delta

    def _raise_overflow(self, g: int) -> None:
        r = int(self._router_of_g[g])
        port = g // self._V - int(self._port_base[r])
        raise RuntimeError(
            f"router {self._routers[r].router_id}: input buffer overflow on "
            f"port {port} vc {g % self._V}; credit flow control is broken"
        )

    # -- telemetry emitters --------------------------------------------------

    def _trace_router_flits(self, emit, gs, fids, now: int) -> None:
        """Emit one tracer event per ``(input g, flit id)`` pair.

        ``emit`` is a bound :class:`~repro.telemetry.FlitTracer` method
        with the router signature (``link_traverse`` at delivery time,
        ``sa_grant`` at forward time); the port is the router-local input
        port and the VC the input VC, matching the object model's hooks.
        """
        V = self._V
        flit_objs = self._flit_objs
        router_of_g = self._router_of_g_list
        port_base = self._port_base_list
        routers = self._routers
        for g, fid in zip(gs, fids):
            flit = flit_objs[fid]
            r = router_of_g[g]
            emit(
                now,
                flit.packet.packet_id,
                flit.flit_index,
                routers[r].router_id,
                g // V - port_base[r],
                g % V,
            )

    def _trace_vc_grants(self, pairs, now: int) -> None:
        """Emit one ``vc_grant`` event per granted ``(input g, output g)``.

        Called at grant time, before the switch stage pops the head flit,
        so ``q[g, qhead[g]]`` is exactly the head the object model's
        ``_grant_output`` hook reports.
        """
        tracer = self._tracer
        q = self._q
        qhead = self._qhead
        V = self._V
        flit_objs = self._flit_objs
        router_of_g = self._router_of_g_list
        port_base = self._port_base_list
        routers = self._routers
        for g, cg in pairs:
            flit = flit_objs[int(q[g, qhead[g]])]
            r = router_of_g[g]
            tracer.vc_grant(
                now,
                flit.packet.packet_id,
                flit.flit_index,
                routers[r].router_id,
                cg // V - port_base[r],
                cg % V,
            )

    # -- stage: route computation + VC allocation ---------------------------

    def _allocate(
        self, now: int, occ_arr: np.ndarray | None = None
    ) -> None:
        state = self._state
        if occ_arr is None:
            qlen = self._qlen
            cand = np.nonzero((qlen > 0) & (state != _ACTIVE))[0]
        else:
            # Pre-enumerated occupied coordinates (sorted): a gather over
            # the handful of busy VCs replaces the O(G) masked scan.
            cand = occ_arr[state[occ_arr] != _ACTIVE]
        if not len(cand):
            return
        q = self._q

        # Route computation, hoisted: it is pure per-candidate state (no
        # cross-VC effects), so computing it for every idle candidate up
        # front is equivalent to the object model's lazy in-scan compute.
        idle = cand[state[cand] == _IDLE]
        if len(idle):
            heads = q[idle, self._qhead[idle]]
            if not np.all(self._f_head[heads]):
                self._raise_nonhead(int(idle[~self._f_head[heads]][0]))
            self._route_key[idle] = (
                self._router_of_g[idle] * self._E + self._f_dest[heads]
            )
            self._wait[idle] = 0
            # A fresh head means a fresh decision: drop any stale no-grant
            # verdict left behind by the VC's previous packet.
            self._blocked[idle] = False
            state[idle] = _VC_ALLOC

        self._va_rounds(cand, now)

    def _raise_nonhead(self, g: int) -> None:
        r = int(self._router_of_g[g])
        port = g // self._V - int(self._port_base[r])
        raise RuntimeError(
            f"router {self._routers[r].router_id}: non-head flit at the "
            f"front of an idle VC (port {port}, vc {g % self._V}); "
            "packet framing is broken"
        )

    def _allocate_small(self, now: int, occ: list[int]) -> None:
        """Scalar candidate enumeration for a near-idle cycle.

        ``occ`` is the sorted occupied-coordinate list; filtering it by
        state replaces :meth:`_allocate`'s O(G) masked scan, and the
        idle-VC route computation runs per candidate.  The allocation
        itself still funnels through :meth:`_va_rounds`, which takes its
        own scalar path at these sizes.
        """
        state = self._state
        cand = [g for g in occ if state[g] != _ACTIVE]
        if not cand:
            return
        qhead = self._qhead
        q = self._q
        route_key = self._route_key
        wait = self._wait
        blocked = self._blocked
        router_of_g = self._router_of_g_list
        E = self._E
        for g in cand:
            if state[g] == _IDLE:
                fid = int(q[g, qhead[g]])
                if not self._f_head[fid]:
                    self._raise_nonhead(g)
                route_key[g] = router_of_g[g] * E + int(self._f_dest[fid])
                wait[g] = 0
                blocked[g] = False
                state[g] = _VC_ALLOC
        self._va_rounds(np.asarray(cand, dtype=np.int64), now)

    def _switch_small(self, now: int, occ: list[int]) -> int:
        """Scalar switch-candidate enumeration for a near-idle cycle."""
        state = self._state
        act = [g for g in occ if state[g] == _ACTIVE]
        if not act:
            return 0
        return self._switch_scalar(act, now)

    def _va_rounds(self, unresolved: np.ndarray, now: int) -> None:
        """Sequential-order VC allocation (see module docstring).

        Ejection-bound candidates split off first: ejection-port VCs are
        disjoint from the router-port VCs the adaptive and escape paths
        allocate, so the two candidate classes never interact and the
        per-port sequential scan has the closed form of
        :meth:`_resolve_ejection` — which also removes the round-serial
        behaviour hot ejection ports would otherwise impose (one round
        per queued claimant).  The remaining candidates run the
        round-based fixpoint.
        """
        key = self._route_key[unresolved]
        ejb = self._rt_ej[key]
        is_ej = ejb >= 0
        if is_ej.any():
            self._resolve_ejection(unresolved[is_ej], ejb[is_ej], now)
            unresolved = unresolved[~is_ej]
            key = key[~is_ej]
        if not len(unresolved):
            return

        owner_in = self._owner_in
        credits = self._credits
        out_g = self._out_g
        state = self._state
        wait = self._wait
        adaptive = self._adaptive
        A = len(adaptive)
        patience = self._patience
        router_of_g = self._router_of_g
        scratch = self._scratch_g

        # Cross-cycle no-grant cache: candidates that last finalised as
        # no-grant re-finalise identically unless a relevant VC was freed
        # since (adaptive on a minimal port, or their escape VC) or the
        # patience crossing (``wait == patience``) happens; they then only
        # tick their counter, without re-entering the rounds.
        blocked = self._blocked
        freed_adapt = self._freed_adapt
        freed_esc = self._freed_esc
        free_adapt = self._free_adapt
        b = blocked[unresolved]
        if b.any():
            mpp = self._rt_minp_port[key]
            affected = (freed_adapt[mpp] & (mpp >= 0)).any(axis=1)
            affected |= freed_esc[self._rt_esc_port[key]]
            skip = b & ~affected & (wait[unresolved] != patience)
            if skip.any():
                wait[unresolved[skip]] += 1
                keep0 = ~skip
                unresolved = unresolved[keep0]
                key = key[keep0]
        freed_adapt[:] = False
        freed_esc[:] = False
        if not len(unresolved):
            return
        blocked[unresolved] = False

        if len(unresolved) <= _SCALAR_MAX:
            self._va_scalar(unresolved, key, now)
            return

        # Per-candidate static route data, gathered once and narrowed with
        # the unresolved set each round.
        u = unresolved
        esco_u = self._rt_esco[key]
        esc_gu = self._rt_esc[key]
        mp_u = self._rt_minp[key]
        valid_u = mp_u >= 0
        mp0_u = np.where(valid_u, mp_u, 0)
        mpp_u = mp0_u // self._V
        n = len(u)
        claim = np.full(n, -1, dtype=np.int64)
        escape_path = np.zeros(n, dtype=bool)
        # Rows whose decision must be (re)computed this round: initially
        # everyone; afterwards only the candidates whose claimed resource
        # was taken by a lower-g claimant.  A *blocked* winner (one that
        # merely has to wait for a lower-g loser to re-decide) keeps its
        # claim across rounds: by the invariance lemma its decision cannot
        # change while its own resource stays free, and if that resource
        # is stolen it shows up as a loser and recomputes.
        fresh = np.ones(n, dtype=bool)

        while len(u):
            rows = np.nonzero(fresh)[0]
            if len(rows):
                claim[rows] = -1
                escape_path[rows] = False
                if A:
                    # The adaptive path succeeds exactly when some valid
                    # minimal port has a free adaptive VC, so the per-VC
                    # credit compute below only runs for rows guaranteed
                    # to claim.
                    fam = valid_u[rows] & (free_adapt[mpp_u[rows]] > 0)
                    can_a = fam.any(axis=1) & ~esco_u[rows]
                    apos = np.nonzero(can_a)[0]
                else:
                    can_a = None
                    apos = ()
                if len(apos):
                    arows = rows[apos]
                    idx3 = mp0_u[arows][:, :, None] + adaptive[None, None, :]
                    cr = credits[idx3]
                    freevc = np.where(owner_in[idx3] < 0, cr, -1)
                    best_vc = freevc.argmax(axis=2)
                    score = np.where(fam[apos], cr.sum(axis=2), -1)
                    best_k = score.argmax(axis=1)
                    claim[arows] = (
                        mp0_u[arows, best_k]
                        + adaptive[best_vc[self._scratch_arange[: len(arows)], best_k]]
                    )
                    srows = rows[~can_a]
                elif can_a is not None:
                    srows = rows[~can_a]
                else:
                    srows = rows
                if len(srows):
                    escape_path[srows] = True
                    prospective = wait[u[srows]] + 1
                    esc_try = esco_u[srows] | (prospective > patience)
                    esc_g = esc_gu[srows]
                    esc_ok = esc_try & (owner_in[esc_g] < 0)
                    claim[srows[esc_ok]] = esc_g[esc_ok]

            # Conflict resolution over fresh and held claims together:
            # lowest-g claimant wins each output VC.  The reversed scatter
            # leaves the first (lowest-u) claimant's row in the scratch
            # entry; only entries written this round are read back, so the
            # scratch needs no clearing.
            claimants = np.nonzero(claim >= 0)[0]
            win_mask = np.zeros(len(u), dtype=bool)
            if len(claimants):
                cl = claim[claimants]
                scratch[cl[::-1]] = claimants[::-1]
                win_mask[claimants[scratch[cl] == claimants]] = True
            lose_rows = claimants[~win_mask[claimants]]

            # No-grant candidates always finalise; they are all on the
            # escape path (a found adaptive claim is never -1), so they
            # tick their patience counter and enter the no-grant cache.
            no_grant = claim < 0
            if no_grant.any():
                gng = u[no_grant]
                wait[gng] += 1
                blocked[gng] = True

            # Winners finalise unless a lower-g candidate of their router
            # is still unresolved.
            if len(lose_rows):
                losers = u[lose_rows]
                lr = router_of_g[losers]
                min_loser = self._scratch_router_min
                np.minimum.at(min_loser, lr, losers)
                final_win = win_mask & (u < min_loser[router_of_g[u]])
                min_loser[lr] = _BIG
            else:
                final_win = win_mask
            wrows = np.nonzero(final_win)[0]
            if len(wrows):
                g = u[wrows]
                cg = claim[wrows]
                owner_in[cg] = g
                out_g[g] = cg
                state[g] = _ACTIVE
                acg = cg[cg % self._V != self._escape_vc]
                if len(acg):
                    free_adapt -= np.bincount(acg // self._V, minlength=self._P)
                tick = escape_path[wrows]
                if tick.any():
                    wait[g[tick]] += 1
                if self._tracer is not None:
                    self._trace_vc_grants(zip(g.tolist(), cg.tolist()), now)

            kidx = np.nonzero(~(no_grant | final_win))[0]
            kept = len(kidx)
            if not kept:
                break
            if kept == len(u):  # pragma: no cover - progress guarantee
                raise RuntimeError("VC allocation failed to make progress")
            if kept <= _VA_TAIL_MAX:
                # Finish the tail sequentially: the survivors only need
                # the ascending-g sequential allocation the remaining
                # rounds would converge to (route keys are untouched
                # during allocation, so the route-key table still holds them).
                uk = u.take(kidx)
                self._va_scalar(uk, self._route_key[uk], now)
                return
            fresh = np.zeros(len(u), dtype=bool)
            fresh[lose_rows] = True
            fresh = fresh.take(kidx)
            u = u.take(kidx)
            esco_u = esco_u.take(kidx)
            esc_gu = esc_gu.take(kidx)
            mp0_u = mp0_u.take(kidx, axis=0)
            mpp_u = mpp_u.take(kidx, axis=0)
            valid_u = valid_u.take(kidx, axis=0)
            claim = claim.take(kidx)
            escape_path = escape_path.take(kidx)

    def _va_scalar(
        self, unresolved: np.ndarray, key: np.ndarray, now: int
    ) -> None:
        """Scalar sequential allocation for a handful of candidates.

        Ascending flat coordinate *is* the object model's scan order, so
        a plain loop that updates the owner table as it grants needs no
        conflict rounds at all: each candidate decides with full
        knowledge of every lower-g grant, which is exactly the
        sequential semantics the vectorized fixpoint reproduces.
        """
        if self._rt_minp_list is None:
            self._build_scalar_tabs()
        owner_in = self._owner_in
        credits = self._credits
        out_g = self._out_g
        state = self._state
        wait = self._wait
        blocked = self._blocked
        free_adapt = self._free_adapt
        adaptive = self._adaptive_list
        V = self._V
        escape_vc = self._escape_vc
        patience = self._patience
        rt_minp = self._rt_minp_list
        rt_esc = self._rt_esc_list
        rt_esco = self._rt_esco_list
        for g, k in zip(unresolved.tolist(), key.tolist()):
            claim = -1
            escape_path = False
            if adaptive and not rt_esco[k]:
                # Adaptive path: among the minimal ports with a free
                # adaptive VC, the first port with the strictly largest
                # adaptive-credit sum; within it the first free VC with
                # the strictly largest credit count.
                best_score = -1
                for mp0 in rt_minp[k]:
                    if free_adapt[mp0 // V] <= 0:
                        continue
                    score = 0
                    best_vc_credits = -1
                    best_vc_g = -1
                    for vc in adaptive:
                        gv = mp0 + vc
                        c = int(credits[gv])
                        score += c
                        if c > best_vc_credits and owner_in[gv] < 0:
                            best_vc_credits = c
                            best_vc_g = gv
                    if score > best_score:
                        best_score = score
                        claim = best_vc_g
            if claim < 0:
                escape_path = True
                if rt_esco[k] or wait[g] + 1 > patience:
                    eg = rt_esc[k]
                    if owner_in[eg] < 0:
                        claim = eg
            if claim >= 0:
                owner_in[claim] = g
                out_g[g] = claim
                state[g] = _ACTIVE
                if claim % V != escape_vc:
                    free_adapt[claim // V] -= 1
                if escape_path:
                    wait[g] += 1
                if self._tracer is not None:
                    self._trace_vc_grants(((g, claim),), now)
            else:
                wait[g] += 1
                blocked[g] = True

    def _resolve_ejection(
        self, e_u: np.ndarray, ejb: np.ndarray, now: int
    ) -> None:
        """Grant ejection-port claims exactly as the sequential scan would.

        Each sequential grant occupies the first still-free VC of the
        port, so per ejection port the k-th claimant (in ascending g)
        lands on the (k+1)-th free VC of the pre-allocation owner state;
        claimants past the free count get nothing this cycle (and, like
        the object model's ejection branch, never tick a patience
        counter).
        """
        owner_in = self._owner_in
        if len(e_u) <= _SCALAR_MAX:
            # Scalar path: ascending g with immediate owner updates is
            # the sequential scan itself.
            out_g = self._out_g
            state = self._state
            V = self._V
            for g, ejp in zip(e_u.tolist(), ejb.tolist()):
                for cg in range(ejp, ejp + V):
                    if owner_in[cg] < 0:
                        owner_in[cg] = g
                        out_g[g] = cg
                        state[g] = _ACTIVE
                        if self._tracer is not None:
                            self._trace_vc_grants(((g, cg),), now)
                        break
            return
        order = np.argsort(ejb, kind="stable")
        ejb_s = ejb[order]
        u_s = e_u[order]
        n = len(u_s)
        idx = self._scratch_arange[:n]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ejb_s[1:], ejb_s[:-1], out=first[1:])
        rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
        free = owner_in[ejb_s[:, None] + self._vrange[None, :]] < 0
        cum = free.cumsum(axis=1)
        has = cum[:, -1] > rank
        sel = (cum > rank[:, None]).argmax(axis=1)
        g = u_s[has]
        cg = ejb_s[has] + sel[has]
        owner_in[cg] = g
        self._out_g[g] = cg
        self._state[g] = _ACTIVE
        if self._tracer is not None:
            self._trace_vc_grants(zip(g.tolist(), cg.tolist()), now)

    # -- stage: switch allocation + forwarding ------------------------------

    def _switch_and_forward(
        self, now: int, occ_arr: np.ndarray | None = None
    ) -> int:
        """Nominate, arbitrate and forward; returns forwarded-flit count."""
        qlen = self._qlen
        state = self._state
        qhead = self._qhead
        q = self._q
        out_g_arr = self._out_g
        credits = self._credits
        V = self._V

        if occ_arr is None:
            act = np.nonzero((qlen > 0) & (state == _ACTIVE))[0]
        else:
            act = occ_arr[state[occ_arr] == _ACTIVE]
        if not len(act):
            return 0
        if len(act) <= _SCALAR_MAX:
            return self._switch_scalar(act.tolist(), now)
        heads = q[act, qhead[act]]
        ready = self._f_arrival[heads] + self._router_latency <= now
        og = out_g_arr[act]
        ej = self._is_ej_port[og // V]
        eligible = ready & (ej | (credits[og] > 0))
        act = act[eligible]
        if not len(act):
            return 0
        # Flits in flight on long-latency links leave few *eligible*
        # candidates even when many coordinates are buffered, so the
        # post-filter set is worth a second scalar check (the scalar
        # path's own eligibility re-test passes by construction).
        if len(act) <= _SCALAR_MAX:
            return self._switch_scalar(act.tolist(), now)

        # Per-port nomination: first eligible VC in ascending order (the
        # object model's VC pointers never advance).  The reversed scatter
        # leaves the lowest eligible g per port in the scratch entry.
        ports = act // V
        pbuf = self._scratch_nom
        pmask = self._scratch_port_mask
        pbuf[ports[::-1]] = act[::-1]
        pmask[ports] = True
        uports = np.nonzero(pmask)[0]
        pmask[uports] = False
        nom = pbuf[uports]

        # Round-robin output arbitration: per requested output port the
        # nomination with the smallest round-robin offset wins (offsets
        # are a permutation of a router's ports, so there are no ties, and
        # output ports of different routers never collide).
        routers = self._router_of_port[uports]
        local = uports - self._port_base[routers]
        sa = self._sa_ptr
        rr = (local - sa[routers]) % self._nports[routers]
        op_req = out_g_arr[nom] // V
        rrbuf = self._scratch_rr
        np.minimum.at(rrbuf, op_req, rr)
        winners = rr == rrbuf[op_req]
        rrbuf[op_req] = _BIG
        grants = nom[winners]

        rmask = self._scratch_router_mask
        rmask[routers] = True
        advanced = np.nonzero(rmask)[0]
        rmask[advanced] = False
        sa[advanced] = (sa[advanced] + 1) % self._nports[advanced]

        # Forward every grant: all bookkeeping is conflict-free fancy
        # indexing (input VCs and output VCs are unique per grant set).
        g = grants
        fids = q[g, qhead[g]]
        qhead[g] = (qhead[g] + 1) % self._depth
        qlen[g] -= 1
        emptied = g[qlen[g] == 0]
        if len(emptied):
            self._occ.difference_update(emptied.tolist())
        # One grant per router port at most, so a bincount covers both
        # per-router counters in two vector ops instead of two add.at's.
        per_router = np.bincount(self._router_of_g[g], minlength=self._R)
        self._rcounts -= per_router
        self._fwd += per_router
        og = out_g_arr[g]
        op = og // V
        ej = self._is_ej_port[op]
        non_ej = ~ej
        if non_ej.any():
            credits[og[non_ej]] -= 1
            self._f_hops[fids[non_ej]] += 1
        out_vc = og % V
        self._f_vc[fids] = out_vc
        if self._tracer is not None:
            # Input port / input VC, like the object model's forward hook.
            self._trace_router_flits(
                self._tracer.sa_grant, g.tolist(), fids.tolist(), now
            )

        chans = self._out_chan_of_port[op]
        if np.any(chans < 0):
            bad = int(g[chans < 0][0])
            r = int(self._router_of_g[bad])
            raise RuntimeError(
                f"router {self._routers[r].router_id}: no channel attached to "
                f"output port {int(op[chans < 0][0] - self._port_base[r])}"
            )
        self._emit(chans, fids, now)

        in_ports = g // V
        credit_chans = self._credit_chan_of_port[in_ports]
        has_credit = credit_chans >= 0
        if has_credit.any():
            self._emit(credit_chans[has_credit], (g % V)[has_credit], now)

        tails = self._f_tail[fids]
        if tails.any():
            gt = g[tails]
            freed = og[tails]
            self._owner_in[freed] = -1
            fp = op[tails]
            esc_freed = freed % V == self._escape_vc
            self._freed_esc[fp[esc_freed]] = True
            adapt_freed = fp[~esc_freed & ~ej[tails]]
            if len(adapt_freed):
                self._freed_adapt[adapt_freed] = True
                self._free_adapt += np.bincount(
                    adapt_freed, minlength=self._P
                )
            state[gt] = _IDLE
            out_g_arr[gt] = -1
            self._route_key[gt] = -1
        return len(g)

    def _switch_scalar(self, act: list[int], now: int) -> int:
        """Scalar replay of :meth:`_switch_and_forward` for a few VCs."""
        if self._rt_minp_list is None:
            self._build_scalar_tabs()
        V = self._V
        qlen = self._qlen
        qhead = self._qhead
        q = self._q
        state = self._state
        out_g_arr = self._out_g
        credits = self._credits
        f_arrival = self._f_arrival
        router_latency = self._router_latency
        is_ej = self._is_ej_list
        sa = self._sa_ptr
        router_of_port = self._router_of_port_list
        port_base = self._port_base_list
        nports = self._nports_list

        # Per-port nomination: first *eligible* VC in ascending order
        # (``act`` is ascending and a port's VCs are contiguous in g).
        nominated = []
        nom_port = -1
        for g in act:
            p = g // V
            if p == nom_port:
                continue
            fid = int(q[g, qhead[g]])
            if int(f_arrival[fid]) + router_latency > now:
                continue
            og = int(out_g_arr[g])
            if not is_ej[og // V] and credits[og] <= 0:
                continue
            nominated.append(g)
            nom_port = p
        if not nominated:
            return 0

        # Round-robin arbitration: per requested output port the
        # nomination with the smallest offset wins (no ties, see the
        # vectorized path); every nominating router's pointer advances.
        best: dict[int, tuple[int, int]] = {}
        advanced = set()
        for g in nominated:
            p = g // V
            r = router_of_port[p]
            advanced.add(r)
            rr = (p - port_base[r] - int(sa[r])) % nports[r]
            op = int(out_g_arr[g]) // V
            cur = best.get(op)
            if cur is None or rr < cur[0]:
                best[op] = (rr, g)
        for r in advanced:
            sa[r] = (int(sa[r]) + 1) % nports[r]

        # Forward the grants (conflict-free: distinct input VCs, distinct
        # output ports).
        depth = self._depth
        escape_vc = self._escape_vc
        pending = self._pending
        chan_lat = self._chan_lat_list
        out_chan = self._out_chan_list
        credit_chan = self._credit_chan_list
        router_of_g = self._router_of_g_list
        rcounts = self._rcounts
        fwd = self._fwd
        owner_in = self._owner_in
        freed_adapt = self._freed_adapt
        freed_esc = self._freed_esc
        free_adapt = self._free_adapt
        route_key = self._route_key
        f_vc = self._f_vc
        f_tail = self._f_tail
        occ = self._occ
        tracer = self._tracer
        for op, (_, g) in best.items():
            fid = int(q[g, qhead[g]])
            if tracer is not None:
                self._trace_router_flits(tracer.sa_grant, (g,), (fid,), now)
            qhead[g] = (int(qhead[g]) + 1) % depth
            qlen[g] -= 1
            if not qlen[g]:
                occ.discard(g)
            r = router_of_g[g]
            rcounts[r] -= 1
            fwd[r] += 1
            og = int(out_g_arr[g])
            ej = is_ej[op]
            if not ej:
                credits[og] -= 1
                self._f_hops[fid] += 1
            f_vc[fid] = og % V
            chan = out_chan[op]
            if chan < 0:
                raise RuntimeError(
                    f"router {self._routers[r].router_id}: no channel "
                    f"attached to output port {op - port_base[r]}"
                )
            arrival = now + chan_lat[chan]
            bucket = pending.get(arrival)
            if bucket is None:
                pending[arrival] = [(chan, fid)]
            else:
                bucket.append((chan, fid))
            cchan = credit_chan[g // V]
            if cchan >= 0:
                arrival = now + chan_lat[cchan]
                entry = (cchan, g % V)
                bucket = pending.get(arrival)
                if bucket is None:
                    pending[arrival] = [entry]
                else:
                    bucket.append(entry)
            if f_tail[fid]:
                owner_in[og] = -1
                if og % V == escape_vc:
                    freed_esc[op] = True
                elif not ej:
                    freed_adapt[op] = True
                    free_adapt[op] += 1
                state[g] = _IDLE
                out_g_arr[g] = -1
                route_key[g] = -1
        return len(best)

    def _emit(self, chans: np.ndarray, payloads: np.ndarray, now: int) -> None:
        """Append (channel, payload) event arrays grouped by arrival cycle.

        Arrival cycles within one call partition exactly by channel
        latency, and networks only have a handful of distinct latencies,
        so grouping iterates the precomputed latency values instead of
        sorting the arrivals (``np.unique``) every call.
        """
        pending = self._pending
        if len(chans) <= 8:
            # Small groups land as scalar entries (also keeping low-load
            # delivery buckets eligible for the scalar path).
            if self._rt_minp_list is None:
                self._build_scalar_tabs()
            chan_lat = self._chan_lat_list
            for chan, payload in zip(chans.tolist(), payloads.tolist()):
                arrival = now + chan_lat[chan]
                entry = (chan, payload)
                bucket = pending.get(arrival)
                if bucket is None:
                    pending[arrival] = [entry]
                else:
                    bucket.append(entry)
            return
        lat_values = self._chan_lat_values
        if len(lat_values) == 1:
            groups = [(now + lat_values[0], chans, payloads)]
        else:
            lats = self._chan_latency[chans]
            groups = []
            for lat in lat_values:
                mask = lats == lat
                if mask.any():
                    groups.append((now + lat, chans[mask], payloads[mask]))
        for arrival, chan_group, payload_group in groups:
            if len(chan_group) == 1:
                # Single-event groups land as scalar entries so low-load
                # delivery buckets stay eligible for the scalar path.
                entry = (int(chan_group[0]), int(payload_group[0]))
            else:
                entry = (chan_group, payload_group)
            bucket = pending.get(arrival)
            if bucket is None:
                pending[arrival] = [entry]
            else:
                bucket.append(entry)

    # -- ejection + materialisation ----------------------------------------

    def _flush_ejections(self) -> None:
        """Apply deferred endpoint-ejection bookkeeping, in delivery order."""
        if not self._eject_backlog:
            return
        self._flush_registry()
        endpoints = self._endpoints
        flit_objs = self._flit_objs
        tracer = self._tracer
        for endpoint_ids, fids, cycle in self._eject_backlog:
            if type(endpoint_ids) is int:
                # Scalar-delivery entry: one endpoint, one flit id.
                if self._f_dest[fids] != endpoint_ids:
                    raise RuntimeError(
                        f"endpoint {endpoint_ids} received a flit for "
                        f"endpoint {int(self._f_dest[fids])}; routing is "
                        "broken"
                    )
                endpoint = endpoints[endpoint_ids]
                endpoint.ejected_flits += 1
                if tracer is not None:
                    # The backlog entry carries the semantic delivery
                    # cycle, so the deferred event is timestamped exactly
                    # like the object model's eject hook.
                    flit = flit_objs[fids]
                    tracer.eject(
                        cycle,
                        flit.packet.packet_id,
                        flit.flit_index,
                        endpoint_ids,
                        int(self._f_vc[fids]),
                    )
                if self._f_tail[fids]:
                    flit = flit_objs[fids]
                    flit.packet.ejection_cycle = cycle
                    endpoint.ejected_packets.append(flit.packet)
                continue
            if np.any(self._f_dest[fids] != endpoint_ids):
                row = int(np.nonzero(self._f_dest[fids] != endpoint_ids)[0][0])
                raise RuntimeError(
                    f"endpoint {int(endpoint_ids[row])} received a flit for "
                    f"endpoint {int(self._f_dest[fids][row])}; routing is broken"
                )
            tails = self._f_tail[fids]
            for row, fid in enumerate(fids.tolist()):
                endpoint = endpoints[endpoint_ids[row]]
                endpoint.ejected_flits += 1
                if tracer is not None:
                    flit = flit_objs[fid]
                    tracer.eject(
                        cycle,
                        flit.packet.packet_id,
                        flit.flit_index,
                        int(endpoint_ids[row]),
                        int(self._f_vc[fid]),
                    )
                if tails[row]:
                    flit = flit_objs[fid]
                    flit.packet.ejection_cycle = cycle
                    endpoint.ejected_packets.append(flit.packet)
        self._eject_backlog.clear()

    def _sync_flit(self, fid: int) -> Flit:
        flit = self._flit_objs[fid]
        flit.vc = int(self._f_vc[fid])
        flit.arrival_cycle = int(self._f_arrival[fid])
        flit.hops = int(self._f_hops[fid])
        return flit

    def _materialize(self) -> None:
        """Write the flat state back into the object model.

        Refills the routers' own buffer deques in place, reconstructs the
        per-VC route fields from the route keys, rebuilds owner tuples,
        and re-homes still-in-flight bucket payloads into the real
        :class:`Channel` objects — after which the network is
        indistinguishable from one stepped by the legacy loop.
        """
        self._flush_registry()
        V, E = self._V, self._E
        depth = self._depth
        route_tab = self._route_tab
        buffers = self._buffers
        q = self._q
        qhead = self._qhead.tolist()
        qlen_arr = self._qlen
        state_arr = self._state
        out_arr = self._out_g
        owner_arr = self._owner_in
        qlen = qlen_arr.tolist()
        states = state_arr.tolist()
        credits = self._credits.tolist()
        owner_in = owner_arr.tolist()
        out_gs = out_arr.tolist()
        waits = self._wait.tolist()
        keys = self._route_key.tolist()
        router_of_g = self._router_of_g
        R = self._R

        for deck in buffers:
            if deck:
                deck.clear()

        # Most coordinates of a typical run are idle with default
        # fields, so the per-VC lists are bulk slices / constant fills
        # and only the busy coordinates (grouped by router, in ascending
        # order, consumed by cursor) are patched in.
        def by_router(rows: np.ndarray) -> tuple[list[int], list[int]]:
            return (
                rows.tolist(),
                np.bincount(router_of_g[rows], minlength=R).tolist(),
            )

        occ_rows, occ_counts = by_router(np.nonzero(qlen_arr > 0)[0])
        route_rows, route_counts = by_router(np.nonzero(state_arr != _IDLE)[0])
        out_rows, out_counts = by_router(np.nonzero(out_arr >= 0)[0])
        owner_rows, owner_counts = by_router(np.nonzero(owner_arr >= 0)[0])
        c_occ = c_route = c_out = c_owner = 0

        for r, router in enumerate(self._routers):
            base_r = int(self._base[r])
            count = router.num_ports * V
            end = base_r + count
            b_states = states[base_r:end]
            b_wait = waits[base_r:end]
            b_credits = credits[base_r:end]
            b_minp: list[tuple[int, ...]] = [()] * count
            b_escp: list[int | None] = [None] * count
            b_esco: list[bool] = [False] * count
            b_outp: list[int | None] = [None] * count
            b_outv: list[int | None] = [None] * count
            b_owner: list[tuple[int, int] | None] = [None] * count

            buffered = 0
            for g in occ_rows[c_occ : c_occ + occ_counts[r]]:
                deck = buffers[g]
                head = qhead[g]
                row = q[g]
                n = qlen[g]
                for k in range(n):
                    deck.append(self._sync_flit(int(row[(head + k) % depth])))
                buffered += n
            c_occ += occ_counts[r]

            for g in route_rows[c_route : c_route + route_counts[r]]:
                minimal, escape_port, escape_only = route_tab[r][keys[g] % E]
                idx = g - base_r
                b_minp[idx] = minimal
                b_escp[idx] = escape_port
                b_esco[idx] = escape_only
            c_route += route_counts[r]

            port_base = base_r // V
            for g in out_rows[c_out : c_out + out_counts[r]]:
                idx = g - base_r
                og = out_gs[g]
                b_outp[idx] = og // V - port_base
                b_outv[idx] = og % V
            c_out += out_counts[r]

            for g in owner_rows[c_owner : c_owner + owner_counts[r]]:
                owner = owner_in[g]
                b_owner[g - base_r] = ((owner - base_r) // V, owner % V)
            c_owner += owner_counts[r]

            router.import_state(
                RouterState(
                    buffers=buffers[base_r:end],
                    states=b_states,
                    minimal_ports=b_minp,
                    escape_ports=b_escp,
                    escape_only=b_esco,
                    out_ports=b_outp,
                    out_vcs=b_outv,
                    alloc_wait_cycles=b_wait,
                    owners=b_owner,
                    credits=b_credits,
                    sa_port_pointer=int(self._sa_ptr[r]),
                    buffered_flits=buffered,
                    forwarded_flits=int(self._fwd[r]),
                )
            )

        pending = self._pending
        if pending:
            # Undelivered payloads go back into the real channels, in
            # per-channel arrival order (bucket iteration is cycle-major).
            by_channel: dict[int, list] = {}
            flit_kinds = (_CK_ROUTER_FLIT, _CK_ENDPOINT_FLIT)
            for arrival in sorted(pending):
                for chan, payload in pending[arrival]:
                    if isinstance(chan, np.ndarray):
                        rows = zip(chan.tolist(), payload.tolist())
                    else:
                        rows = ((chan, payload),)
                    for index, event in rows:
                        if self._chan_kind[index] in flit_kinds:
                            item = (arrival, self._sync_flit(event))
                        else:
                            item = (arrival, event)
                        items = by_channel.get(index)
                        if items is None:
                            by_channel[index] = [item]
                        else:
                            items.append(item)
            for index, items in by_channel.items():
                self._channels[index].load(items)
            pending.clear()
