"""Fault injection: failed links and routers applied to a topology graph.

Real multi-chiplet packages ship with manufacturing defects (test escapes,
failed micro-bump bonds) and accumulate field failures over their
lifetime.  This module makes such faults first-class simulation inputs:

* :class:`FaultSet` describes which inter-chiplet links and which routers
  (chiplets) have failed, in a canonical, hashable, JSON-able form that
  plugs into the sweep cache keys and the SHA-256 seed derivation of
  :mod:`repro.core.parallel`.
* :meth:`FaultSet.apply` turns a healthy topology into a **degraded**
  :class:`~repro.graphs.model.ChipGraph`: failed routers disappear
  (together with their endpoints), failed links are cut, and the
  survivors are relabeled to the contiguous ``0 .. m-1`` ids the
  simulator requires.  Because the degraded graph is built *before*
  :class:`~repro.noc.routing.RoutingTables` construction, adaptive
  minimal routing and the up*/down* escape network rebuild automatically
  and every cycle-loop engine (vectorized, legacy) simulates
  the faulted topology bit-identically — no engine knows faults exist.
* Fault sets that would leave an unusable network (a disconnected
  topology, an isolated router whose endpoints could neither send nor
  receive, fewer than two surviving routers) are rejected with a
  :class:`FaultedTopologyError` carrying a precise message, so sweeps
  fail fast instead of producing deadlocked simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.metrics import bfs_distances
from repro.graphs.model import ChipGraph


class FaultedTopologyError(ValueError):
    """A fault set cannot be applied to (or simulated on) a topology.

    Subclasses :class:`ValueError` so existing CLI / sweep error handling
    reports it as a normal validation failure.
    """


def _check_router_id(value: object, *, role: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{role} must be an integer router id, got {value!r}")
    if value < 0:
        raise ValueError(f"{role} must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class FaultSet:
    """A set of failed inter-chiplet links and failed routers.

    Both fields are normalised at construction time — links are stored as
    sorted ``(low, high)`` pairs, duplicates collapse, and both tuples are
    sorted — so two fault sets describing the same physical failures
    always compare (and hash, and serialise) identically.

    Attributes
    ----------
    failed_links:
        Undirected router-to-router links that have failed; each link is
        cut in both directions.  Router-to-endpoint channels never fail
        individually — a chiplet whose local links are gone is a failed
        router.
    failed_routers:
        Routers (chiplets) that have failed entirely: all their links and
        all their endpoints are removed from the degraded topology.
    """

    failed_links: tuple[tuple[int, int], ...] = ()
    failed_routers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        links: set[tuple[int, int]] = set()
        for link in self.failed_links:
            try:
                first, second = link
            except (TypeError, ValueError):
                raise ValueError(
                    f"each failed link must be a (router, router) pair, got {link!r}"
                ) from None
            first = _check_router_id(first, role="failed link endpoint")
            second = _check_router_id(second, role="failed link endpoint")
            if first == second:
                raise ValueError(
                    f"a link connects two distinct routers; got the self-link "
                    f"({first}, {second})"
                )
            links.add((min(first, second), max(first, second)))
        routers = {
            _check_router_id(router, role="failed router") for router in self.failed_routers
        }
        object.__setattr__(self, "failed_links", tuple(sorted(links)))
        object.__setattr__(self, "failed_routers", tuple(sorted(routers)))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parse(cls, links: str = "", routers: str = "") -> "FaultSet":
        """Parse the CLI spellings: links ``"0-1,4-5"``, routers ``"3,8"``."""
        failed_links: list[tuple[int, int]] = []
        for part in links.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split("-")
            if len(pieces) != 2:
                raise ValueError(
                    f"failed link {part!r} must be written as <router>-<router>, "
                    'e.g. "0-1"'
                )
            failed_links.append((int(pieces[0]), int(pieces[1])))
        failed_routers = [int(part) for part in routers.split(",") if part.strip()]
        return cls(failed_links=tuple(failed_links), failed_routers=tuple(failed_routers))

    # -- basic queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the fault set describes a healthy network."""
        return not self.failed_links and not self.failed_routers

    @property
    def num_faults(self) -> int:
        """Total number of failed components (links plus routers)."""
        return len(self.failed_links) + len(self.failed_routers)

    @property
    def label(self) -> str:
        """Compact human-readable form, e.g. ``"2L+1R"`` (``"healthy"`` if empty)."""
        if self.is_empty:
            return "healthy"
        return f"{len(self.failed_links)}L+{len(self.failed_routers)}R"

    def key_dict(self) -> dict[str, list]:
        """Canonical JSON-able identity (for cache keys and seed derivation)."""
        return {
            "failed_links": [list(link) for link in self.failed_links],
            "failed_routers": list(self.failed_routers),
        }

    # -- application ----------------------------------------------------------

    def validate_against(self, graph: ChipGraph) -> None:
        """Raise :class:`FaultedTopologyError` for faults naming absent components."""
        for router in self.failed_routers:
            if not graph.has_node(router):
                raise FaultedTopologyError(
                    f"failed router {router} is not in the topology "
                    f"(router ids are 0 .. {graph.num_nodes - 1})"
                )
        for first, second in self.failed_links:
            if not graph.has_edge(first, second):
                raise FaultedTopologyError(
                    f"failed link {first}-{second} is not a link of the topology"
                )

    def apply(self, graph: ChipGraph) -> "DegradedTopology":
        """Build the degraded topology the surviving network operates on.

        Raises
        ------
        FaultedTopologyError
            If a fault names a component absent from ``graph``, if fewer
            than two routers survive, if a surviving router loses every
            link (its endpoints would be isolated), or if the surviving
            topology is disconnected.
        """
        self.validate_against(graph)
        dead_routers = set(self.failed_routers)
        dead_links = set(self.failed_links)
        survivors = [node for node in sorted(graph.nodes()) if node not in dead_routers]
        if len(survivors) < 2:
            raise FaultedTopologyError(
                f"fault set leaves {len(survivors)} surviving router(s); a network "
                "needs at least two routers to carry traffic"
            )
        adjacency: dict[int, list[int]] = {}
        for node in survivors:
            adjacency[node] = [
                neighbour
                for neighbour in graph.neighbors(node)
                if neighbour not in dead_routers
                and (min(node, neighbour), max(node, neighbour)) not in dead_links
            ]
        for node in survivors:
            if not adjacency[node]:
                raise FaultedTopologyError(
                    f"fault set isolates router {node}: every link of the router "
                    "failed, so its endpoints can neither send nor receive"
                )
        degraded = ChipGraph(nodes=survivors)
        for node, neighbours in adjacency.items():
            for neighbour in neighbours:
                degraded.add_edge(node, neighbour)
        reachable = bfs_distances(degraded, survivors[0])
        if len(reachable) != len(survivors):
            unreachable = sorted(set(survivors) - set(reachable))
            raise FaultedTopologyError(
                f"fault set disconnects the topology: routers {unreachable} are "
                f"unreachable from router {survivors[0]}"
            )
        relabel = {node: index for index, node in enumerate(survivors)}
        return DegradedTopology(
            graph=degraded.relabeled(relabel),
            surviving_routers=tuple(survivors),
            fault_set=self,
        )


@dataclass(frozen=True)
class DegradedTopology:
    """A topology with a fault set applied, relabeled for the simulator.

    Attributes
    ----------
    graph:
        The surviving topology with contiguous router ids ``0 .. m-1``
        (ready for :class:`~repro.noc.routing.RoutingTables` and
        :class:`~repro.noc.network.Network`).
    surviving_routers:
        Original router ids of the survivors, ascending; index ``i`` is
        the original id of degraded router ``i``.
    fault_set:
        The fault set that produced this topology.
    """

    graph: ChipGraph
    surviving_routers: tuple[int, ...]
    fault_set: FaultSet = field(default_factory=FaultSet)

    @property
    def num_routers(self) -> int:
        """Number of surviving routers."""
        return len(self.surviving_routers)

    def original_id(self, degraded_id: int) -> int:
        """Original router id of a degraded (relabeled) router id."""
        return self.surviving_routers[degraded_id]

    def degraded_id(self, original: int) -> int:
        """Degraded id of an original router; raises for failed routers."""
        try:
            return self.surviving_routers.index(original)
        except ValueError:
            raise KeyError(
                f"router {original} did not survive the fault set"
            ) from None

    def original_edge(self, first: int, second: int) -> tuple[int, int]:
        """Map a degraded link back to its original (sorted) router pair."""
        a = self.surviving_routers[first]
        b = self.surviving_routers[second]
        return (min(a, b), max(a, b))


def apply_faults(graph: ChipGraph, faults: FaultSet | None) -> DegradedTopology:
    """Apply ``faults`` to ``graph`` (``None`` / empty behaves as a no-op).

    Always returns a :class:`DegradedTopology`; with no faults the graph
    is passed through unchanged apart from the canonical relabeling (the
    identity for the contiguous ids the arrangement generators emit).
    """
    if faults is None:
        faults = FaultSet()
    return faults.apply(graph)
