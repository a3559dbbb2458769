"""Fiduccia–Mattheyses (FM) refinement with gain buckets.

FM moves one vertex at a time (instead of swapping pairs like
Kernighan–Lin), tracks per-vertex gains in bucket lists for O(1) selection
and allows a configurable balance tolerance.  One FM pass tentatively moves
every vertex once and then rolls back to the prefix of moves with the best
cumulative gain.  A node leaves the buckets when it moves, so the buckets
hold exactly the unlocked nodes; after a move each unlocked neighbour's
gain changes by +-2 (the shared edge flips between cut and uncut), which
is the value a from-scratch recount would give.

Nodes are indexed in ``graph.nodes()`` order and each gain has one list
of indices.  The textbook selection pops the last entry of the highest
bucket, skips it if moving it would break the balance, and re-inserts
every skipped node (appending it to its bucket) once a legal node is
found.  The order inside a bucket decides later ties, so that order is
re-created without the pops:

* when both sides may give a node, the first pop is legal: take the last
  entry of the highest bucket;
* when only side ``s`` may give, the pops walk the buckets from the
  highest gain down.  A bucket with no side-``s`` node is popped empty and
  refilled in pop order, i.e. reversed.  In the bucket whose last side-``s``
  node sits at index ``i``, the entries after ``i`` are popped and
  re-appended, so the bucket becomes ``L[:i] + reversed(L[i+1:])``;
* when neither side may give, the pass ends.  From a balanced start on an
  even node count at zero tolerance this holds before the first move, so
  the call returns the start without building any bucket.
"""

from __future__ import annotations

from repro.graphs.model import ChipGraph, Node
from repro.partition.common import validate_partition


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
    nodes = graph.nodes()
    total = len(nodes)
    min_side = total // 2 - balance_tolerance
    max_side = total - min_side

    side_a = set(part)
    index = {node: position for position, node in enumerate(nodes)}
    # Neighbour lists in ``graph.neighbors`` order: the order of the gain
    # updates after a move decides the order inside a gain bucket.
    adjacency = [[index[neighbour] for neighbour in graph.neighbors(node)] for node in nodes]
    # Gains lie in [-degree, degree]; bucket ``level`` holds gain ``level - offset``.
    offset = max(map(len, adjacency))

    for _ in range(max_passes):
        sizes = [len(side_a), total - len(side_a)]
        if not (
            sizes[0] - 1 >= min_side and sizes[1] + 1 <= max_side
            or sizes[1] - 1 >= min_side and sizes[0] + 1 <= max_side
        ):
            break
        side = [0 if node in side_a else 1 for node in nodes]
        gain = [0] * total
        buckets: list[list[int]] = [[] for _ in range(2 * offset + 1)]
        for node, neighbours in enumerate(adjacency):
            own = side[node]
            internal = sum(1 for neighbour in neighbours if side[neighbour] == own)
            gain[node] = len(neighbours) - 2 * internal
            buckets[gain[node] + offset].append(node)
        locked = [False] * total
        top = 2 * offset

        moves: list[int] = []
        cumulative = 0
        best_cumulative = 0
        best_prefix = 0

        while True:
            while top >= 0 and not buckets[top]:
                top -= 1
            if top < 0:
                break
            give_a = sizes[0] - 1 >= min_side and sizes[1] + 1 <= max_side
            give_b = sizes[1] - 1 >= min_side and sizes[0] + 1 <= max_side
            if give_a and give_b:
                node = buckets[top].pop()
            elif give_a or give_b:
                giver = 0 if give_a else 1
                node = -1
                for level in range(top, -1, -1):
                    bucket = buckets[level]
                    for position in range(len(bucket) - 1, -1, -1):
                        if side[bucket[position]] == giver:
                            node = bucket[position]
                            bucket[position:] = bucket[:position:-1]
                            break
                    else:
                        bucket.reverse()
                        continue
                    break
                if node < 0:
                    break
            else:
                break

            source = side[node]
            side[node] = 1 - source
            sizes[source] -= 1
            sizes[1 - source] += 1
            locked[node] = True
            moves.append(node)
            cumulative += gain[node]
            if cumulative > best_cumulative:
                best_cumulative = cumulative
                best_prefix = len(moves)
            # Update the gains of the unlocked neighbours: the shared edge
            # turns external (+2) for those left behind on the source side
            # and internal (-2) for those on the destination side.
            for neighbour in adjacency[node]:
                if not locked[neighbour]:
                    old = gain[neighbour]
                    new = old + 2 if side[neighbour] == source else old - 2
                    gain[neighbour] = new
                    buckets[old + offset].remove(neighbour)
                    buckets[new + offset].append(neighbour)
                    if new + offset > top:
                        top = new + offset

        if best_prefix == 0:
            break

        # Apply the best prefix of moves to the real partition.
        for node in moves[:best_prefix]:
            if nodes[node] in side_a:
                side_a.discard(nodes[node])
            else:
                side_a.add(nodes[node])

    return side_a
