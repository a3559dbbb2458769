"""Kernighan–Lin refinement of a balanced bisection.

The classic KL heuristic repeatedly finds a sequence of vertex *swaps*
(one vertex from each side) with maximum cumulative gain and applies the
best prefix of the sequence.  Because vertices are always exchanged in
pairs, the balance of the bisection is preserved exactly.

Each swap of a pass picks the first pair, in ``free A`` x ``free B`` set
iteration order, whose swap gain is maximal: exactly the pair (tie-breaks
included) that scanning every unlocked pair would pick, so the swap
sequence and the refined side equal those of the textbook O(n^2)-per-swap
search.  The search does not scan the pairs.  With ``top`` the largest
free B gain, an A node's best partner is worth ``top`` if some free B node
at ``top`` is not its neighbour; otherwise ``top - 1`` if some
non-neighbour sits there, and ``top - 2`` (a shared edge costs 2) if not.
Both lookups are ``list.index`` searches over the free B gains in set
order, and the first hit is also the tie-winning B node.  An A node whose
gain plus ``top`` cannot beat the best so far is skipped after one
comparison, which is the fate of most of them.  After a swap only the
unlocked neighbours of the swapped pair change gain, by +-2 per incident
edge.
"""

from __future__ import annotations

from repro.graphs.model import ChipGraph, Node
from repro.partition.common import complement, validate_partition


def _gain(neighbours: set[Node], own_side: set[Node]) -> int:
    """External minus internal degree of a node with respect to its side."""
    internal = len(neighbours & own_side)
    return len(neighbours) - 2 * internal


def _first_outside(
    order: list[Node], values: list[int], value: int, excluded: set[Node]
) -> int | None:
    """Position of the first ``order`` entry at ``value`` not in ``excluded``."""
    position = -1
    try:
        while True:
            position = values.index(value, position + 1)
            if order[position] not in excluded:
                return position
    except ValueError:
        return None


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
            # Fresh sets each swap: their iteration order is the pair-scan
            # order, which decides ties.
            free_a = work_a - locked
            order_b = list(work_b - locked)
            gains_b = list(map(gains.__getitem__, order_b))
            top = max(gains_b)
            best_gain = None
            for node in free_a:
                own = gains[node]
                # No partner is worth more than ``top``: this node cannot strictly win.
                if best_gain is not None and own + top <= best_gain:
                    continue
                neighbours = adjacency[node]
                position = _first_outside(order_b, gains_b, top, neighbours)
                if position is not None:
                    value = own + top
                else:
                    # Every top-gain node is a neighbour (worth ``top - 2``);
                    # only a non-neighbour at ``top - 1`` beats that.
                    if best_gain is not None and own + top - 1 <= best_gain:
                        continue
                    position = _first_outside(order_b, gains_b, top - 1, neighbours)
                    value = own + top - (1 if position is not None else 2)
                if best_gain is None or value > best_gain:
                    best_gain = value
                    node_a = node
                    best_position = position
            if best_position is not None:
                node_b = order_b[best_position]
            else:
                # Partner worth ``top - 2``: a top-gain neighbour or a
                # non-neighbour two below the top, whichever comes first.
                target = top - 2
                neighbours = adjacency[node_a]
                node_b = next(
                    node for node in order_b if gains[node] - 2 * (node in neighbours) == target
                )
            swap_sequence.append((node_a, node_b, best_gain))
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
