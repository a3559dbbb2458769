"""A placement is a collection of chiplets positioned on the package.

The arrangement generators of :mod:`repro.arrangements` produce
:class:`ChipletPlacement` objects; they can also be constructed by hand to
analyse custom floorplans with the same tooling (adjacency extraction,
performance proxies, link model, simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.geometry.primitives import GEOMETRY_TOLERANCE, Point, Rect


@dataclass(frozen=True)
class PlacedChiplet:
    """One chiplet instance placed on the package.

    Parameters
    ----------
    chiplet_id:
        Dense integer identifier; doubles as the graph vertex id.
    rect:
        Footprint of the chiplet in package coordinates (mm).
    role:
        Free-form role tag; the paper distinguishes ``"compute"`` chiplets
        (the subject of the arrangement problem) from ``"io"`` chiplets
        placed on the perimeter.
    lattice_position:
        Optional integer lattice coordinates used by the generator
        (row/column for grids and brickwalls, axial hex coordinates for
        HexaMesh).  Useful for debugging and for lattice-exact adjacency.
    """

    chiplet_id: int
    rect: Rect
    role: str = "compute"
    lattice_position: tuple[int, int] | None = None

    @property
    def center(self) -> Point:
        """Centre of the chiplet footprint."""
        return self.rect.center

    @property
    def area(self) -> float:
        """Footprint area in mm²."""
        return self.rect.area


#: Footprints spanning more grid cells than this on either axis are kept
#: out of the grid and checked against every new chiplet.
_MAX_CELL_SPAN = 4


class _FootprintIndex:
    """Chiplet ids and a uniform-grid index of the footprints of a placement.

    A footprint is filed under every cell ``(floor(x / cell), floor(y /
    cell))`` its bounds touch.  Two footprints whose cell ranges are
    disjoint on an axis cannot overlap: ``floor`` and the division by a
    positive cell size are monotone, so disjoint ranges mean one
    rectangle's upper bound lies strictly below the other's lower bound,
    and ``Rect.overlaps`` then sees a negative extent.  Candidates from the
    shared cells are checked with ``Rect.overlaps`` itself, so the index
    only skips pairs that cannot overlap.
    """

    def __init__(self) -> None:
        self.ids: set[int] = set()
        self.count = 0
        self._cell: float | None = None
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._wide: list[int] = []

    def _span(self, rect: Rect) -> tuple[int, int, int, int] | None:
        """Cell ranges of ``rect``, or ``None`` if it is too wide to file."""
        if self._cell is None:
            self._cell = max(rect.width, rect.height)
        cell = self._cell
        try:
            span = (
                math.floor(rect.x / cell),
                math.floor(rect.x_max / cell),
                math.floor(rect.y / cell),
                math.floor(rect.y_max / cell),
            )
        except (OverflowError, ValueError):
            return None
        if span[1] - span[0] >= _MAX_CELL_SPAN or span[3] - span[2] >= _MAX_CELL_SPAN:
            return None
        return span

    def catch_up(self, chiplets: list[PlacedChiplet]) -> None:
        """File the chiplets appended since the last call."""
        for position in range(self.count, len(chiplets)):
            chiplet = chiplets[position]
            self.ids.add(chiplet.chiplet_id)
            span = self._span(chiplet.rect)
            if span is None:
                self._wide.append(position)
                continue
            x_lo, x_hi, y_lo, y_hi = span
            for column in range(x_lo, x_hi + 1):
                for row in range(y_lo, y_hi + 1):
                    self._cells.setdefault((column, row), []).append(position)
        self.count = len(chiplets)

    def first_overlap(
        self, chiplets: list[PlacedChiplet], rect: Rect
    ) -> PlacedChiplet | None:
        """The first-inserted chiplet whose footprint overlaps ``rect``."""
        span = self._span(rect)
        if span is None:
            candidates: Iterable[int] = range(len(chiplets))
        else:
            found = set(self._wide)
            x_lo, x_hi, y_lo, y_hi = span
            for column in range(x_lo, x_hi + 1):
                for row in range(y_lo, y_hi + 1):
                    found.update(self._cells.get((column, row), ()))
            candidates = sorted(found)
        for position in candidates:
            if chiplets[position].rect.overlaps(rect):
                return chiplets[position]
        return None


@dataclass
class ChipletPlacement:
    """An ordered collection of placed chiplets.

    Chiplet ids must be unique; they do not have to be contiguous, although
    the generators always produce ids ``0 .. n-1``.
    """

    chiplets: list[PlacedChiplet] = field(default_factory=list)
    _index: _FootprintIndex = field(
        default_factory=_FootprintIndex, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ids = [c.chiplet_id for c in self.chiplets]
        if len(ids) != len(set(ids)):
            raise ValueError("chiplet ids in a placement must be unique")

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.chiplets)

    def __iter__(self) -> Iterator[PlacedChiplet]:
        return iter(self.chiplets)

    def __getitem__(self, chiplet_id: int) -> PlacedChiplet:
        for chiplet in self.chiplets:
            if chiplet.chiplet_id == chiplet_id:
                return chiplet
        raise KeyError(f"no chiplet with id {chiplet_id}")

    # -- construction ---------------------------------------------------------

    def add(self, chiplet: PlacedChiplet) -> None:
        """Append a chiplet, enforcing id uniqueness and non-overlap."""
        index = self._index
        index.catch_up(self.chiplets)
        if chiplet.chiplet_id in index.ids:
            raise ValueError(f"duplicate chiplet id {chiplet.chiplet_id}")
        existing = index.first_overlap(self.chiplets, chiplet.rect)
        if existing is not None:
            raise ValueError(
                f"chiplet {chiplet.chiplet_id} overlaps chiplet {existing.chiplet_id}"
            )
        self.chiplets.append(chiplet)

    @classmethod
    def from_rects(
        cls, rects: Iterable[Rect], *, role: str = "compute"
    ) -> "ChipletPlacement":
        """Build a placement from rectangles, assigning ids ``0 .. n-1``."""
        placement = cls()
        for index, rect in enumerate(rects):
            placement.add(PlacedChiplet(chiplet_id=index, rect=rect, role=role))
        return placement

    # -- queries --------------------------------------------------------------

    @property
    def chiplet_ids(self) -> list[int]:
        """All chiplet ids in insertion order."""
        return [c.chiplet_id for c in self.chiplets]

    def compute_chiplets(self) -> list[PlacedChiplet]:
        """Only the compute chiplets (the subject of the arrangement problem)."""
        return [c for c in self.chiplets if c.role == "compute"]

    def bounding_box(self) -> Rect:
        """The smallest axis-aligned rectangle containing every chiplet."""
        if not self.chiplets:
            raise ValueError("cannot compute the bounding box of an empty placement")
        bounds = self.chiplets[0].rect
        for chiplet in self.chiplets[1:]:
            bounds = bounds.union_bounds(chiplet.rect)
        return bounds

    def total_chiplet_area(self) -> float:
        """Sum of all chiplet footprint areas in mm²."""
        return sum(c.area for c in self.chiplets)

    def utilization(self) -> float:
        """Fraction of the bounding box covered by chiplets (0..1]."""
        return self.total_chiplet_area() / self.bounding_box().area

    def has_overlaps(self, *, tolerance: float = GEOMETRY_TOLERANCE) -> bool:
        """Return ``True`` if any two chiplets overlap (which is invalid)."""
        chiplets = self.chiplets
        for i, first in enumerate(chiplets):
            for second in chiplets[i + 1 :]:
                if first.rect.overlaps(second.rect, tolerance=tolerance):
                    return True
        return False

    def translated(self, dx: float, dy: float) -> "ChipletPlacement":
        """Return a copy of the placement shifted by ``(dx, dy)``."""
        moved = [
            PlacedChiplet(
                chiplet_id=c.chiplet_id,
                rect=c.rect.translated(dx, dy),
                role=c.role,
                lattice_position=c.lattice_position,
            )
            for c in self.chiplets
        ]
        return ChipletPlacement(moved)

    def normalized(self) -> "ChipletPlacement":
        """Return a copy translated so the bounding box starts at the origin."""
        bounds = self.bounding_box()
        return self.translated(-bounds.x, -bounds.y)
