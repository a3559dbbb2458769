"""Unit tests for the graph-bisection portfolio (the METIS substitute)."""

import json
import os
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrangements.factory import make_arrangement
from repro.graphs.analytical import bisection_bandwidth_formula
from repro.graphs.model import ChipGraph
from repro.partition.common import (
    balanced_target_size,
    complement,
    cut_size,
    is_balanced,
    validate_partition,
)
from repro.evaluation.performance import FIGURE7_KINDS
from repro.partition import estimator
from repro.partition.estimator import (
    BisectionResult,
    estimate_bisection_bandwidth,
    find_best_bisection,
)
from repro.partition.fiduccia_mattheyses import fiduccia_mattheyses_refine
from repro.partition.greedy import bfs_grow_partition, random_balanced_partition
from repro.partition.kernighan_lin import kernighan_lin_refine
from repro.partition.spectral import fiedler_vector, spectral_bisection


def _grid_graph(side):
    return make_arrangement("grid", side * side, "regular").graph


class TestCommonHelpers:
    def test_validate_partition_rejects_trivial_sides(self):
        graph = ChipGraph(edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            validate_partition(graph, set())
        with pytest.raises(ValueError):
            validate_partition(graph, {0, 1, 2})

    def test_validate_partition_rejects_unknown_nodes(self):
        graph = ChipGraph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            validate_partition(graph, {7})

    def test_cut_size(self):
        graph = ChipGraph(edges=[(0, 1), (1, 2), (2, 3)])
        assert cut_size(graph, {0, 1}) == 1
        assert cut_size(graph, {0, 2}) == 3

    def test_is_balanced(self):
        graph = ChipGraph(nodes=range(5), edges=[(0, 1)])
        assert is_balanced(graph, {0, 1})
        assert is_balanced(graph, {0, 1, 2})
        assert not is_balanced(graph, {0})

    def test_balanced_target_size(self):
        assert balanced_target_size(10) == 5
        assert balanced_target_size(11) == 5

    def test_complement(self):
        graph = ChipGraph(nodes=range(4))
        assert complement(graph, {0, 2}) == {1, 3}


class TestGreedy:
    def test_bfs_partition_size(self):
        graph = _grid_graph(4)
        part = bfs_grow_partition(graph, seed_node=0)
        assert len(part) == 8

    def test_bfs_partition_is_connected_region(self):
        graph = _grid_graph(4)
        part = bfs_grow_partition(graph, seed_node=0)
        sub = graph.subgraph(part)
        from repro.graphs.metrics import is_connected

        assert is_connected(sub)

    def test_unknown_seed_rejected(self):
        with pytest.raises(KeyError):
            bfs_grow_partition(_grid_graph(3), seed_node=99)

    def test_random_partition_is_balanced(self):
        graph = _grid_graph(5)
        part = random_balanced_partition(graph)
        assert len(part) == 12


class TestSpectral:
    def test_fiedler_vector_dimensions(self):
        graph = _grid_graph(3)
        nodes, vector = fiedler_vector(graph)
        assert len(nodes) == 9
        assert vector.shape == (9,)

    def test_spectral_bisection_is_balanced(self):
        graph = _grid_graph(4)
        part = spectral_bisection(graph)
        assert len(part) == 8

    def test_spectral_bisection_on_even_grid_is_reasonable(self):
        # The Fiedler eigenvalue of a square grid is degenerate (horizontal
        # and vertical cuts are equivalent), so the raw spectral cut may be a
        # rotated combination; it must still be close to the optimum of 4 and
        # the refined estimator (tested below) recovers the optimum exactly.
        graph = _grid_graph(4)
        part = spectral_bisection(graph)
        assert cut_size(graph, part) <= 8

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            spectral_bisection(ChipGraph(nodes=[0]))


class TestRefinement:
    def test_kl_never_worsens_the_cut(self):
        graph = _grid_graph(4)
        initial = random_balanced_partition(graph)
        refined = kernighan_lin_refine(graph, initial)
        assert cut_size(graph, refined) <= cut_size(graph, initial)
        assert len(refined) == len(initial)

    def test_fm_never_worsens_the_cut(self):
        graph = _grid_graph(4)
        initial = random_balanced_partition(graph)
        refined = fiduccia_mattheyses_refine(graph, initial)
        assert cut_size(graph, refined) <= cut_size(graph, initial)

    def test_fm_respects_balance(self):
        graph = _grid_graph(5)
        initial = random_balanced_partition(graph)
        refined = fiduccia_mattheyses_refine(graph, initial)
        assert abs(len(refined) - (graph.num_nodes - len(refined))) <= 1

    def test_kl_finds_optimal_cut_from_bad_start(self):
        graph = _grid_graph(4)
        # Deliberately poor starting partition: alternating columns.
        bad = {node for node in graph.nodes() if (node % 4) in (0, 2)}
        refined = kernighan_lin_refine(graph, bad)
        assert cut_size(graph, refined) <= cut_size(graph, bad)

    def test_refinement_input_not_modified(self):
        graph = _grid_graph(3)
        initial = bfs_grow_partition(graph, seed_node=0)
        snapshot = set(initial)
        kernighan_lin_refine(graph, initial)
        fiduccia_mattheyses_refine(graph, initial)
        assert initial == snapshot


class TestEstimator:
    def test_result_type(self):
        graph = _grid_graph(3)
        result = find_best_bisection(graph)
        assert isinstance(result, BisectionResult)
        assert result.cut_edges == result.bisection_bandwidth
        assert 0 < len(result.part) < graph.num_nodes

    @pytest.mark.parametrize("side", [2, 4, 6, 8, 10])
    def test_even_grid_matches_formula(self, side):
        graph = _grid_graph(side)
        estimate = estimate_bisection_bandwidth(graph)
        assert estimate == pytest.approx(bisection_bandwidth_formula("grid", side * side))

    @pytest.mark.parametrize("rings", [1, 2, 3])
    def test_hexamesh_matches_formula(self, rings):
        count = 1 + 3 * rings * (rings + 1)
        graph = make_arrangement("hexamesh", count, "regular").graph
        estimate = estimate_bisection_bandwidth(graph)
        assert estimate == pytest.approx(bisection_bandwidth_formula("hexamesh", count))

    @pytest.mark.parametrize("side", [4, 6])
    def test_brickwall_matches_formula(self, side):
        count = side * side
        graph = make_arrangement("brickwall", count, "regular").graph
        estimate = estimate_bisection_bandwidth(graph)
        assert estimate == pytest.approx(bisection_bandwidth_formula("brickwall", count))

    def test_odd_grid_estimate_close_to_formula(self):
        # For odd sides a perfectly balanced cut needs one extra link, so the
        # estimate may exceed the idealised formula by a small amount.
        graph = _grid_graph(5)
        estimate = estimate_bisection_bandwidth(graph)
        formula = bisection_bandwidth_formula("grid", 25)
        assert formula <= estimate <= formula + 2

    def test_single_node_graph(self):
        assert estimate_bisection_bandwidth(ChipGraph(nodes=[0])) == 0

    def test_two_node_graph(self):
        graph = ChipGraph(edges=[(0, 1)])
        assert estimate_bisection_bandwidth(graph) == 1

    def test_deterministic_for_fixed_seed(self):
        graph = make_arrangement("hexamesh", 24).graph
        first = estimate_bisection_bandwidth(graph, seed=3)
        second = estimate_bisection_bandwidth(graph, seed=3)
        assert first == second

    def test_estimate_never_below_true_minimum_on_path(self):
        # The minimum balanced cut of a path graph is exactly one edge.
        graph = ChipGraph(edges=[(i, i + 1) for i in range(9)])
        assert estimate_bisection_bandwidth(graph) == 1

    def test_matches_networkx_kernighan_lin_quality(self):
        import networkx as nx

        graph = make_arrangement("hexamesh", 40).graph
        ours = estimate_bisection_bandwidth(graph)
        nx_graph = graph.to_networkx()
        nx_cut = min(
            nx.cut_size(nx_graph, *nx.algorithms.community.kernighan_lin_bisection(nx_graph, seed=seed))
            for seed in range(3)
        )
        assert ours <= nx_cut + 2


class TestBisectNodes:
    """Node-subset bisection with fallbacks (repro.partition.recursive)."""

    def test_trivial_subsets(self):
        from repro.partition.recursive import bisect_nodes

        graph = _grid_graph(3)
        assert bisect_nodes(graph, []) == ([], [])
        assert bisect_nodes(graph, [4]) == ([4], [])
        assert bisect_nodes(graph, [7, 2]) == ([2], [7])

    def test_balanced_and_deterministic(self):
        from repro.partition.recursive import bisect_nodes

        graph = make_arrangement("hexamesh", 19).graph
        nodes = list(range(19))
        side_a, side_b = bisect_nodes(graph, nodes, seed=1)
        assert sorted(side_a + side_b) == nodes
        assert abs(len(side_a) - len(side_b)) <= 1
        assert side_a[0] == min(side_a + side_b)  # smallest node leads
        again = bisect_nodes(graph, set(nodes), seed=1)
        assert (side_a, side_b) == again

    def test_disconnected_and_edge_free_subsets(self):
        from repro.partition.recursive import bisect_nodes

        graph = _grid_graph(4)
        # Two far-apart corners plus isolated-in-subset nodes: the induced
        # subgraph is disconnected / edge-free but the split still balances.
        subset = [0, 3, 12, 15, 5, 10]
        side_a, side_b = bisect_nodes(graph, subset, seed=0)
        assert sorted(side_a + side_b) == sorted(subset)
        assert abs(len(side_a) - len(side_b)) <= 1


# -- Oracles: the textbook refinements the production code must reproduce ----
#
# Verbatim copies of the exhaustive Kernighan–Lin swap search (every unlocked
# pair per swap, gains recomputed from scratch) and of the FM pass that
# recomputes each neighbour's gain after a move.  The production functions
# must return the same side, set for set, from the same start.


def _oracle_gain(graph, node, own_side):
    external = 0
    internal = 0
    for neighbour in graph.neighbors(node):
        if neighbour in own_side:
            internal += 1
        else:
            external += 1
    return external - internal


def _oracle_kernighan_lin(graph, part, max_passes=10):
    side_a = set(part)
    side_b = complement(graph, side_a)
    for _ in range(max_passes):
        gains = {node: _oracle_gain(graph, node, side_a) for node in side_a}
        gains.update({node: _oracle_gain(graph, node, side_b) for node in side_b})
        locked = set()
        swap_sequence = []
        work_a, work_b = set(side_a), set(side_b)
        for _ in range(min(len(work_a), len(work_b))):
            best_swap = None
            best_gain = None
            for node_a in work_a - locked:
                for node_b in work_b - locked:
                    connection = 1 if graph.has_edge(node_a, node_b) else 0
                    swap_gain = gains[node_a] + gains[node_b] - 2 * connection
                    if best_gain is None or swap_gain > best_gain:
                        best_gain = swap_gain
                        best_swap = (node_a, node_b)
            if best_swap is None:
                break
            node_a, node_b = best_swap
            swap_sequence.append((node_a, node_b, int(best_gain)))
            locked.update(best_swap)
            work_a.discard(node_a)
            work_b.discard(node_b)
            work_a.add(node_b)
            work_b.add(node_a)
            for node in set(graph.neighbors(node_a)) | set(graph.neighbors(node_b)):
                if node in locked:
                    continue
                own_side = work_a if node in work_a else work_b
                gains[node] = _oracle_gain(graph, node, own_side)
        if not swap_sequence:
            break
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


class _OracleBuckets:
    def __init__(self):
        self._buckets = defaultdict(list)
        self._gain_of = {}

    def insert(self, node, gain):
        self._buckets[gain].append(node)
        self._gain_of[node] = gain

    def remove(self, node):
        gain = self._gain_of.pop(node)
        self._buckets[gain].remove(node)
        if not self._buckets[gain]:
            del self._buckets[gain]

    def update(self, node, new_gain):
        self.remove(node)
        self.insert(node, new_gain)

    def pop_best(self):
        if not self._buckets:
            return None
        best_gain = max(self._buckets)
        node = self._buckets[best_gain][-1]
        self.remove(node)
        return node, best_gain

    def __contains__(self, node):
        return node in self._gain_of


def _oracle_node_gain(graph, node, side_of):
    own = side_of[node]
    return sum(1 if side_of[n] != own else -1 for n in graph.neighbors(node))


def _oracle_fiduccia_mattheyses(graph, part, max_passes=10, balance_tolerance=0):
    total = graph.num_nodes
    min_side = total // 2 - balance_tolerance
    max_side = total - min_side
    side_a = set(part)
    side_b = complement(graph, side_a)
    for _ in range(max_passes):
        side_of = {node: 0 for node in side_a}
        side_of.update({node: 1 for node in side_b})
        sizes = [len(side_a), len(side_b)]
        buckets = _OracleBuckets()
        for node in graph.nodes():
            buckets.insert(node, _oracle_node_gain(graph, node, side_of))
        moves = []
        cumulative = 0
        best_cumulative = 0
        best_prefix = 0
        while True:
            candidate = None
            skipped = []
            while True:
                popped = buckets.pop_best()
                if popped is None:
                    break
                node, gain = popped
                source = side_of[node]
                legal = sizes[source] - 1 >= min_side and sizes[1 - source] + 1 <= max_side
                if legal:
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
            for neighbour in graph.neighbors(node):
                if neighbour in buckets:
                    buckets.update(neighbour, _oracle_node_gain(graph, neighbour, side_of))
        if best_prefix == 0 or best_cumulative <= 0:
            break
        for node, _ in moves[:best_prefix]:
            if node in side_a:
                side_a.discard(node)
                side_b.add(node)
            else:
                side_b.discard(node)
                side_a.add(node)
    return side_a


def _estimator_starts(graph, monkeypatch):
    """The spectral, BFS-grown and random starts the estimator refines."""
    starts = []

    def record(graph, part, **kwargs):
        starts.append(set(part))
        return set(part)

    monkeypatch.setattr(estimator, "kernighan_lin_refine", record)
    monkeypatch.setattr(estimator, "fiduccia_mattheyses_refine", lambda graph, part: set(part))
    find_best_bisection(graph)
    monkeypatch.undo()
    return starts


def _assert_refinements_match_oracles(graph, starts, balance_tolerance=0):
    for start in starts:
        assert kernighan_lin_refine(graph, start) == _oracle_kernighan_lin(graph, start)
        assert fiduccia_mattheyses_refine(
            graph, start, balance_tolerance=balance_tolerance
        ) == _oracle_fiduccia_mattheyses(graph, start, balance_tolerance=balance_tolerance)


def _figure7_designs(counts):
    return [(kind.value, count) for kind in FIGURE7_KINDS for count in counts]


class TestRefinementMatchesOracle:
    """KL / FM return exactly the side the textbook searches return."""

    @pytest.mark.parametrize("kind, count", _figure7_designs(range(2, 41)))
    def test_figure7_designs_up_to_40(self, kind, count, monkeypatch):
        graph = make_arrangement(kind, count).graph
        starts = _estimator_starts(graph, monkeypatch)
        assert len(starts) >= 3
        _assert_refinements_match_oracles(graph, starts)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind, count", _figure7_designs(range(41, 101)))
    def test_figure7_designs_up_to_100(self, kind, count, monkeypatch):
        graph = make_arrangement(kind, count).graph
        _assert_refinements_match_oracles(graph, _estimator_starts(graph, monkeypatch))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_random_connected_graphs(self, data):
        size = data.draw(st.integers(min_value=2, max_value=24), label="size")
        labels = data.draw(
            st.sampled_from(
                [
                    lambda i: i,
                    lambda i: f"c{i}",
                    lambda i: (i % 3, f"n{i}"),
                ]
            ),
            label="labels",
        )
        nodes = [labels(i) for i in range(size)]
        # A random spanning tree keeps the graph connected; extra edges
        # raise the degree past the arrangements' six.
        edges = [
            (nodes[i], nodes[data.draw(st.integers(0, i - 1), label="parent")])
            for i in range(1, size)
        ]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        edges += data.draw(st.lists(st.sampled_from(pairs), max_size=3 * size), label="extra")
        graph = ChipGraph(nodes=nodes, edges=edges)
        start = data.draw(
            st.sets(st.sampled_from(nodes), min_size=1, max_size=size - 1), label="start"
        )
        # A positive tolerance lets both sides give a node, so FM takes its
        # node straight off the top bucket instead of walking the buckets.
        tolerance = data.draw(st.integers(min_value=0, max_value=3), label="tolerance")
        _assert_refinements_match_oracles(graph, [start], balance_tolerance=tolerance)

    @pytest.mark.parametrize("kind, count", [("grid", 16), ("hexamesh", 36), ("brickwall", 2)])
    def test_fm_returns_even_balanced_start_unchanged(self, kind, count):
        # At zero tolerance neither side of an even, balanced bisection may
        # give a node, so no move is legal and the start is already final.
        graph = make_arrangement(kind, count).graph
        start = set(graph.nodes()[: count // 2])
        assert fiduccia_mattheyses_refine(graph, start) == start
        assert _oracle_fiduccia_mattheyses(graph, start) == start


# -- Pinned cuts: the portfolio's answer for every Figure 7 design -----------

_PINNED_CUTS_PATH = os.path.join(os.path.dirname(__file__), "goldens", "bisection_cuts.json")
with open(_PINNED_CUTS_PATH) as _handle:
    _PINNED_CUTS = json.load(_handle)["cuts"]


def _pinned(predicate):
    return [
        (kind, int(count), cut)
        for kind, by_count in _PINNED_CUTS.items()
        for count, cut in by_count.items()
        if predicate(int(count))
    ]


class TestPinnedCuts:
    """``estimate_bisection_bandwidth`` on every Figure 7 design (2-100)."""

    def test_table_covers_every_figure7_design(self):
        assert sorted(_PINNED_CUTS) == sorted(kind.value for kind in FIGURE7_KINDS)
        for by_count in _PINNED_CUTS.values():
            assert sorted(int(count) for count in by_count) == list(range(2, 101))

    @pytest.mark.parametrize("kind, count, cut", _pinned(lambda count: count <= 52))
    def test_cuts_up_to_52(self, kind, count, cut):
        assert estimate_bisection_bandwidth(make_arrangement(kind, count).graph) == cut

    @pytest.mark.slow
    @pytest.mark.parametrize("kind, count, cut", _pinned(lambda count: count > 52))
    def test_cuts_up_to_100(self, kind, count, cut):
        assert estimate_bisection_bandwidth(make_arrangement(kind, count).graph) == cut
