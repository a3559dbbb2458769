"""Fiduccia–Mattheyses (FM) refinement with gain buckets.

FM moves one vertex at a time (instead of swapping pairs like
Kernighan–Lin), tracks per-vertex gains in bucket lists for O(1) selection
and allows a configurable balance tolerance.  One FM pass tentatively moves
every vertex once and then rolls back to the prefix of moves with the best
cumulative gain.  A node leaves the buckets when it moves, so the buckets
hold exactly the unlocked nodes; after a move each unlocked neighbour's
gain changes by +-2 (the shared edge flips between cut and uncut), which
is the value a from-scratch recount would give.
"""

from __future__ import annotations

from collections import defaultdict

from repro.graphs.model import ChipGraph, Node
from repro.partition.common import complement, validate_partition


class _GainBuckets:
    """Bucket structure mapping gain values to the unlocked nodes having them."""

    def __init__(self) -> None:
        self._buckets: dict[int, list[Node]] = defaultdict(list)
        self._gain_of: dict[Node, int] = {}

    def insert(self, node: Node, gain: int) -> None:
        self._buckets[gain].append(node)
        self._gain_of[node] = gain

    def remove(self, node: Node) -> None:
        gain = self._gain_of.pop(node)
        self._buckets[gain].remove(node)
        if not self._buckets[gain]:
            del self._buckets[gain]

    def update(self, node: Node, new_gain: int) -> None:
        self.remove(node)
        self.insert(node, new_gain)

    def pop_best(self) -> tuple[Node, int] | None:
        if not self._buckets:
            return None
        best_gain = max(self._buckets)
        node = self._buckets[best_gain][-1]
        self.remove(node)
        return node, best_gain

    def __contains__(self, node: Node) -> bool:
        return node in self._gain_of

    def gain(self, node: Node) -> int:
        return self._gain_of[node]


def _node_gain(neighbours: list[Node], own: int, side_of: dict[Node, int]) -> int:
    """Cut-size reduction achieved by moving a node off side ``own``."""
    internal = sum(1 for neighbour in neighbours if side_of[neighbour] == own)
    return len(neighbours) - 2 * internal


def fiduccia_mattheyses_refine(
    graph: ChipGraph,
    part: set[Node],
    *,
    max_passes: int = 10,
    balance_tolerance: int = 0,
) -> set[Node]:
    """Improve a balanced bisection with Fiduccia–Mattheyses passes.

    Parameters
    ----------
    graph:
        The graph to bisect.
    part:
        One side of the initial bisection (not modified).
    max_passes:
        Upper bound on the number of FM passes; refinement stops early when
        a pass yields no improvement.
    balance_tolerance:
        Additional allowed imbalance (in nodes) beyond the natural
        ``n mod 2``.  The default of 0 keeps the bisection perfectly
        balanced, which is what the bisection-bandwidth definition needs.

    Returns
    -------
    set
        The refined side; its size differs from ``len(part)`` by at most
        ``balance_tolerance``.
    """
    validate_partition(graph, set(part))
    total = graph.num_nodes
    min_side = total // 2 - balance_tolerance
    max_side = total - min_side

    side_a = set(part)
    side_b = complement(graph, side_a)
    # Neighbour lists in ``graph.neighbors`` order: the order of the gain
    # updates after a move decides the order inside a gain bucket.
    adjacency = {node: graph.neighbors(node) for node in graph.nodes()}

    for _ in range(max_passes):
        side_of: dict[Node, int] = {}
        for node in side_a:
            side_of[node] = 0
        for node in side_b:
            side_of[node] = 1
        sizes = [len(side_a), len(side_b)]

        buckets = _GainBuckets()
        for node in graph.nodes():
            buckets.insert(node, _node_gain(adjacency[node], side_of[node], side_of))

        moves: list[tuple[Node, int]] = []
        cumulative = 0
        best_cumulative = 0
        best_prefix = 0

        while True:
            # Choose the best unlocked node whose move keeps the balance legal.
            candidate: tuple[Node, int] | None = None
            skipped: list[tuple[Node, int]] = []
            while True:
                popped = buckets.pop_best()
                if popped is None:
                    break
                node, gain = popped
                source = side_of[node]
                if sizes[source] - 1 >= min_side and sizes[1 - source] + 1 <= max_side:
                    candidate = (node, gain)
                    break
                skipped.append((node, gain))
            for node, gain in skipped:
                buckets.insert(node, gain)
            if candidate is None:
                break

            node, gain = candidate
            source = side_of[node]
            side_of[node] = 1 - source
            sizes[source] -= 1
            sizes[1 - source] += 1
            moves.append((node, gain))
            cumulative += gain
            if cumulative > best_cumulative:
                best_cumulative = cumulative
                best_prefix = len(moves)
            # Update the gains of the unlocked neighbours: the shared edge
            # turns external (+2) for those left behind on the source side
            # and internal (-2) for those on the destination side.
            for neighbour in adjacency[node]:
                if neighbour in buckets:
                    delta = 2 if side_of[neighbour] == source else -2
                    buckets.update(neighbour, buckets.gain(neighbour) + delta)

        if best_prefix == 0:
            break

        # Apply the best prefix of moves to the real partition.
        for node, _ in moves[:best_prefix]:
            if node in side_a:
                side_a.discard(node)
                side_b.add(node)
            else:
                side_b.discard(node)
                side_a.add(node)

    return side_a
