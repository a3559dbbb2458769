"""Output checks against computations the benchmark makes itself.

Every check returns a list of failure messages; an empty list passes.
Hop counts come from the benchmark's own breadth-first search over each
arrangement's edge list and bisection cuts from the benchmark's own
sweep over the chiplet placement, so a fault in the program's graph or
partition code cannot hide itself.
"""

from __future__ import annotations

import math
from collections import deque

from repro.graphs.analytical import bisection_bandwidth_formula
from repro.perfmodel.latency import packet_path_latency_cycles
from repro.utils.mathutils import is_hexamesh_count

#: How far a point's measured ``average_hops`` may lie from the all-pairs
#: BFS mean.  Zero-load packets follow minimal routes, so only sampling
#: noise separates the two: the allowance is this many standard errors
#: of the mean over the measured packets.  At overload, the delivered
#: packets are a biased sample and some take the longer up*/down* routes
#: of the escape virtual channels, so a relative window applies instead.
ZERO_LOAD_HOPS_STANDARD_ERRORS = 6.0
OVERLOAD_HOPS_WINDOW = (-0.10, 0.30)

#: Relative tolerance for values the program computes in another
#: summation order than the benchmark.
FLOAT_TOLERANCE = 1e-9


def all_pairs_hops(num_nodes: int, edges) -> list[list[int]]:
    """Hop distance between every router pair, by breadth-first search."""
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    table = []
    for source in range(num_nodes):
        distance = [-1] * num_nodes
        distance[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if distance[neighbour] < 0:
                    distance[neighbour] = distance[node] + 1
                    queue.append(neighbour)
        if min(distance) < 0:
            raise ValueError("graph is disconnected")
        table.append(distance)
    return table


def endpoint_hops_moments(hops: list[list[int]], endpoints_per_chiplet: int):
    """Mean and standard deviation of router hops over all ordered pairs
    of distinct endpoints (uniform random traffic)."""
    k = endpoints_per_chiplet
    pairs = len(hops) * k * (len(hops) * k - 1)
    total = sum(sum(row) for row in hops) * k * k
    squares = sum(d * d for row in hops for d in row) * k * k
    mean = total / pairs
    return mean, math.sqrt(max(0.0, squares / pairs - mean * mean))


def mean_path_latency(hops: list[list[int]], config) -> float:
    """Mean ``packet_path_latency_cycles`` over all ordered endpoint pairs."""
    k = config.endpoints_per_chiplet
    num_endpoints = len(hops) * k
    total = len(hops) * k * (k - 1) * packet_path_latency_cycles(0, config)
    for row in hops:
        for source_hops in row:
            if source_hops:
                total += k * k * packet_path_latency_cycles(source_hops, config)
    return total / (num_endpoints * (num_endpoints - 1))


def balanced_bisection_cut(edges, centres) -> int:
    """Cut size of a balanced bisection, the smallest of straight-line sweeps.

    The chiplet centres are ordered along twelve directions (every 15
    degrees) and split into halves; the smallest cut found bounds the
    minimum bisection from above, which is all the ``4B/E`` check needs.
    On the Figure 7 arrangements at 16 and 37 chiplets it matches the
    exhaustive minimum (16) and the HexaMesh closed form (37).
    """
    edges = list(edges)
    num_nodes = len(centres)
    best = len(edges)
    for step in range(12):
        angle = math.pi * step / 12
        dx, dy = math.cos(angle), math.sin(angle)
        order = sorted(range(num_nodes),
                       key=lambda node: (centres[node][0] * dx + centres[node][1] * dy, node))
        for size in sorted({num_nodes // 2, (num_nodes + 1) // 2}):
            side = set(order[:size])
            best = min(best, sum(1 for u, v in edges if (u in side) != (v in side)))
    return best


def is_even_side_square(count: int) -> bool:
    side = math.isqrt(count)
    return side * side == count and side % 2 == 0


def check_fig7_sim(points, sims, *, config, topology) -> list[str]:
    """Checks of a simulated Figure 7 run.

    ``points`` are the :class:`Figure7Point` objects, ``sims`` maps
    ``(kind, count, rate)`` to the stored :class:`SimulationResult`, and
    ``topology`` maps ``(kind, count)`` to ``(hops table, balanced bisection cut)``.
    """
    errors = []
    k = config.endpoints_per_chiplet
    for (kind, count, rate), result in sorted(sims.items()):
        label = f"{kind}-{count}@{rate}"
        hops, cut = topology[(kind, count)]
        floor = packet_path_latency_cycles(result.average_hops, config)
        if result.packet_latency.mean < floor * (1.0 - FLOAT_TOLERANCE):
            errors.append(f"{label}: mean latency {result.packet_latency.mean} "
                          f"below the path latency {floor} of its mean hops")
        expected, deviation = endpoint_hops_moments(hops, k)
        gap = result.average_hops - expected
        if rate < 1.0:
            allowed = ZERO_LOAD_HOPS_STANDARD_ERRORS * deviation / math.sqrt(
                max(1, result.measured_packets_ejected))
            low, high = -allowed, allowed
        else:
            low, high = (bound * expected for bound in OVERLOAD_HOPS_WINDOW)
        if not low <= gap <= high:
            errors.append(f"{label}: average hops {result.average_hops} vs BFS mean "
                          f"{expected:.4f} outside [{low:+.4f}, {high:+.4f}]")
        if rate < 1.0:
            if result.measured_packets_ejected != result.measured_packets_created:
                errors.append(f"{label}: delivered {result.measured_packets_ejected} of "
                              f"{result.measured_packets_created} measured packets")
        else:
            accepted = result.accepted_flit_rate
            bound = 4.0 * cut / (len(hops) * k)
            if accepted > result.throughput.offered_flit_rate or accepted > rate:
                errors.append(f"{label}: accepted {accepted} exceeds the offered rate")
            if accepted > bound:
                errors.append(f"{label}: accepted {accepted} exceeds 4B/E = {bound}")
    for point in points:
        key = (point.kind.value, point.num_chiplets)
        zero_load = sims.get(key + (0.02,))
        overload = sims.get(key + (1.0,))
        if zero_load is None or overload is None:
            errors.append(f"{key}: simulation results missing from the store")
            continue
        if (point.zero_load_latency_cycles != zero_load.packet_latency.mean
                or point.saturation_fraction != overload.accepted_flit_rate):
            errors.append(f"{key}: Figure 7 point disagrees with its stored simulations")
    errors.extend(_hexamesh_beats_grid(points, every_count_throughput=True,
                                       throughput=lambda p: p.saturation_fraction))
    return errors


def check_fig7_analytical(points, *, config, hops_by_design) -> list[str]:
    """Checks of an analytical Figure 7 run.

    Every zero-load latency equals the mean path latency over all ordered
    endpoint pairs of the BFS table in ``hops_by_design``; at even-side
    square and centred-hexagonal counts, the saturation of the regular
    arrangement equals ``min(1, 4B/E)`` with ``B`` from the closed forms.
    """
    errors = []
    k = config.endpoints_per_chiplet
    for point in points:
        kind, count = point.kind.value, point.num_chiplets
        hops = hops_by_design[(kind, count)]
        expected = mean_path_latency(hops, config)
        if not math.isclose(point.zero_load_latency_cycles, expected,
                            rel_tol=FLOAT_TOLERANCE):
            errors.append(f"{kind}-{count}: zero-load latency "
                          f"{point.zero_load_latency_cycles} != {expected}")
        regular = point.regularity.value == "regular"
        closed_form = (kind in ("grid", "brickwall") and is_even_side_square(count)) or (
            kind == "hexamesh" and is_hexamesh_count(count))
        if regular and closed_form:
            bisection = bisection_bandwidth_formula(kind, count)
            expected_saturation = min(1.0, 4.0 * bisection / (count * k))
            if not math.isclose(point.saturation_fraction, expected_saturation,
                                rel_tol=FLOAT_TOLERANCE):
                errors.append(f"{kind}-{count}: saturation {point.saturation_fraction} "
                              f"!= min(1, 4B/E) = {expected_saturation}")
    errors.extend(_hexamesh_beats_grid(points, every_count_throughput=False,
                                       throughput=lambda p: p.saturation_throughput_tbps))
    return errors


def _hexamesh_beats_grid(points, *, every_count_throughput, throughput) -> list[str]:
    """HexaMesh has lower latency than the grid at every count and higher
    throughput at every count (simulation) or at every regular count and
    on average (analytical, where the link model's narrower HexaMesh links
    cost it throughput at some irregular counts, such as 25)."""
    errors = []
    by_design = {(p.kind.value, p.num_chiplets): p for p in points}
    ratios = []
    for (kind, count), hexamesh in sorted(by_design.items()):
        if kind != "hexamesh":
            continue
        grid = by_design.get(("grid", count))
        if grid is None:
            errors.append(f"no grid point at {count} chiplets")
            continue
        if hexamesh.zero_load_latency_cycles >= grid.zero_load_latency_cycles:
            errors.append(f"{count} chiplets: HexaMesh latency "
                          f"{hexamesh.zero_load_latency_cycles} not below grid "
                          f"{grid.zero_load_latency_cycles}")
        ratio = throughput(hexamesh) / throughput(grid)
        ratios.append(ratio)
        must_win = every_count_throughput or is_even_side_square(count) or (
            is_hexamesh_count(count))
        if must_win and ratio <= 1.0:
            errors.append(f"{count} chiplets: HexaMesh throughput "
                          f"{throughput(hexamesh)} not above grid {throughput(grid)}")
    if ratios and sum(ratios) / len(ratios) <= 1.0:
        errors.append("HexaMesh throughput not above the grid on average")
    return errors


def check_service(jobs, *, distinct_candidates: int) -> list[str]:
    """Checks of a service session.

    ``jobs`` is a list of dicts with ``final`` (the last response line),
    ``source`` (index of the cold job a warm job re-requests, or ``None``)
    and ``spec``.  Jobs that did not end ``done`` are failed operations,
    counted by the caller; the checks speak of the others, and the
    simulated-candidate count is checked only when every job is done.
    """
    errors = []
    done = [job["final"] is not None and job["final"].get("ok") for job in jobs]
    for index, job in enumerate(jobs):
        source = job["source"]
        if source is None or not (done[index] and done[source]):
            continue
        if job["final"]["result"]["rows"] != jobs[source]["final"]["result"]["rows"]:
            errors.append(f"job {index}: warm rows differ from cold job {source}")
    if all(done):
        simulated = sum(job["final"]["result"]["cache"]["simulated"] for job in jobs)
        if simulated != distinct_candidates:
            errors.append(f"{simulated} candidates simulated, but the job sequence "
                          f"holds {distinct_candidates} distinct ones")
    return errors
