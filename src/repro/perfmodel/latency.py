"""Closed-form zero-load latency.

In an empty network a packet experiences no contention, so its latency is
fully determined by its path:

* one local (endpoint-to-router) channel traversal on injection and one
  (router-to-endpoint) on ejection,
* one router traversal per router on the path (``hops + 1`` routers),
* one inter-chiplet link traversal per hop, and
* the serialisation delay of its body flits.

Averaging over all ordered endpoint pairs — including the pairs that share
a chiplet and therefore traverse a single router — gives the value the
cycle-accurate simulator converges to at very low injection rates.

:func:`zero_load_latency_cycles` builds the neighbour lists once per call
and runs one BFS per source over them.  The weighted latency of a router
pair depends only on its hop count, so it is computed once per distinct
hop count, but it is still added once per pair, in BFS discovery order:
the float sum is bit for bit the one a pair-by-pair loop over
``bfs_distances`` gives, whatever the configuration.
"""

from __future__ import annotations

from repro.graphs.model import ChipGraph
from repro.noc.config import SimulationConfig


def packet_path_latency_cycles(hops: int, config: SimulationConfig) -> float:
    """Zero-load latency of a packet whose routers are ``hops`` links apart."""
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    routers_on_path = hops + 1
    return (
        2 * config.local_latency_cycles
        + routers_on_path * config.router_latency_cycles
        + hops * config.link_latency_cycles
        + (config.packet_size_flits - 1)
    )


def zero_load_latency_cycles(
    graph: ChipGraph, config: SimulationConfig | None = None
) -> float:
    """Average zero-load packet latency over all ordered endpoint pairs.

    Parameters
    ----------
    graph:
        Inter-chiplet topology (one router per chiplet).
    config:
        Simulation configuration supplying the latency components and the
        number of endpoints per chiplet.  Defaults to the paper's setup.
    """
    if config is None:
        config = SimulationConfig()
    num_routers = graph.num_nodes
    endpoints_per_chiplet = config.endpoints_per_chiplet
    num_endpoints = num_routers * endpoints_per_chiplet
    if num_endpoints < 2:
        raise ValueError("zero-load latency requires at least two endpoints")

    total_latency = 0.0
    total_pairs = 0

    # Pairs of endpoints sharing a chiplet: zero network hops.
    same_router_pairs = num_routers * endpoints_per_chiplet * (endpoints_per_chiplet - 1)
    if same_router_pairs:
        total_latency += same_router_pairs * packet_path_latency_cycles(0, config)
        total_pairs += same_router_pairs

    # Pairs on different chiplets: weight each router pair by the number of
    # endpoint pairs it carries.  A level-by-level BFS from each source
    # meets the destinations in ``bfs_distances`` order, and each one adds
    # the term of its hop count, so the float sum matches a pair-by-pair
    # loop bit for bit.
    pair_weight = endpoints_per_chiplet * endpoints_per_chiplet
    neighbours = {node: graph.neighbors(node) for node in graph.nodes()}
    # ``hop_terms[h]``: the weighted latency of one router pair ``h`` hops apart.
    hop_terms = [pair_weight * packet_path_latency_cycles(0, config)]
    for source in neighbours:
        seen = {source}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            if hops == len(hop_terms):
                hop_terms.append(pair_weight * packet_path_latency_cycles(hops, config))
            term = hop_terms[hops]
            reached = []
            for current in frontier:
                for neighbour in neighbours[current]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        reached.append(neighbour)
                        total_latency += term
            frontier = reached
        if len(seen) != num_routers:
            raise ValueError("zero-load latency is undefined for disconnected graphs")
    total_pairs += num_routers * (num_routers - 1) * pair_weight

    return total_latency / total_pairs
