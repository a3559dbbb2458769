"""Kernighan–Lin refinement of a balanced bisection.

The classic KL heuristic repeatedly finds a sequence of vertex *swaps*
(one vertex from each side) with maximum cumulative gain and applies the
best prefix of the sequence.  Because vertices are always exchanged in
pairs, the balance of the bisection is preserved exactly.

Each swap of a pass picks the first pair, in ``free A`` x ``free B`` set
iteration order, whose swap gain is maximal: exactly the pair (tie-breaks
included) that scanning every unlocked pair would pick, so the swap
sequence and the refined side equal those of the textbook O(n^2)-per-swap
search.  The search does not scan the pairs: with the free B nodes sorted
by descending gain, the best partner of an A node is the first
non-neighbour in that order or a neighbour before it (a shared edge costs
2), so one swap costs O(n log n + E) and a pass O(n^2 log n + n E) instead
of O(n^3).  After a swap only the unlocked neighbours of the swapped pair
change gain, by +-2 per incident edge.
"""

from __future__ import annotations

from repro.graphs.model import ChipGraph, Node
from repro.partition.common import complement, validate_partition


def _gain(neighbours: set[Node], own_side: set[Node]) -> int:
    """External minus internal degree of a node with respect to its side."""
    internal = len(neighbours & own_side)
    return len(neighbours) - 2 * internal


def _best_swap(
    adjacency: dict[Node, set[Node]],
    gains: dict[Node, int],
    free_a: set[Node],
    free_b: set[Node],
) -> tuple[Node, Node, int]:
    """The first pair of ``free_a`` x ``free_b`` with the largest swap gain."""
    by_gain = sorted(free_b, key=gains.__getitem__, reverse=True)
    top = gains[by_gain[0]]
    best_gain: int | None = None
    best_a: Node | None = None
    for node_a in free_a:
        own = gains[node_a]
        # No partner is worth more than ``top``: this node cannot strictly win.
        if best_gain is not None and own + top <= best_gain:
            continue
        neighbours = adjacency[node_a]
        partner = None
        for node_b in by_gain:
            shared = node_b in neighbours
            value = gains[node_b] - 2 * shared
            if partner is None or value > partner:
                partner = value
            if not shared:
                break
        if best_gain is None or own + partner > best_gain:
            best_gain = own + partner
            best_a = node_a
    # Ties between partners go to the first in ``free_b`` order, as in a pair scan.
    target = best_gain - gains[best_a]
    neighbours = adjacency[best_a]
    best_b = next(node for node in free_b if gains[node] - 2 * (node in neighbours) == target)
    return best_a, best_b, best_gain


def kernighan_lin_refine(
    graph: ChipGraph,
    part: set[Node],
    *,
    max_passes: int = 10,
) -> set[Node]:
    """Improve a balanced bisection with Kernighan–Lin passes.

    Parameters
    ----------
    graph:
        The graph to bisect.
    part:
        One side of the initial bisection (not modified).
    max_passes:
        Upper bound on the number of full KL passes; the refinement stops
        earlier as soon as a pass yields no improvement.

    Returns
    -------
    set
        The refined side with exactly ``len(part)`` nodes.
    """
    validate_partition(graph, set(part))
    side_a = set(part)
    side_b = complement(graph, side_a)
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}

    for _ in range(max_passes):
        gains = {node: _gain(adjacency[node], side_a) for node in side_a}
        gains.update({node: _gain(adjacency[node], side_b) for node in side_b})
        locked: set[Node] = set()
        swap_sequence: list[tuple[Node, Node, int]] = []
        work_a, work_b = set(side_a), set(side_b)

        # Build the swap sequence for this pass; every step starts with at
        # least one free node on each side.
        for _ in range(min(len(work_a), len(work_b))):
            best_swap = _best_swap(adjacency, gains, work_a - locked, work_b - locked)
            node_a, node_b, _ = best_swap
            swap_sequence.append(best_swap)
            locked.update((node_a, node_b))
            # Update gains as if the swap had been applied: node_a left A
            # and node_b joined it.
            work_a.discard(node_a)
            work_b.discard(node_b)
            work_a.add(node_b)
            work_b.add(node_a)
            for node in adjacency[node_a]:
                if node not in locked:
                    gains[node] += 2 if node in work_a else -2
            for node in adjacency[node_b]:
                if node not in locked:
                    gains[node] += -2 if node in work_a else 2

        if not swap_sequence:
            break

        # Apply the prefix of the swap sequence with the best cumulative gain.
        cumulative = 0
        best_cumulative = 0
        best_prefix = 0
        for index, (_, _, swap_gain) in enumerate(swap_sequence, start=1):
            cumulative += swap_gain
            if cumulative > best_cumulative:
                best_cumulative = cumulative
                best_prefix = index
        if best_prefix == 0:
            break
        for node_a, node_b, _ in swap_sequence[:best_prefix]:
            side_a.discard(node_a)
            side_a.add(node_b)
            side_b.discard(node_b)
            side_b.add(node_a)

    return side_a
