"""Unit tests for repro.geometry.placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.placement import ChipletPlacement, PlacedChiplet
from repro.geometry.primitives import GEOMETRY_TOLERANCE, Rect


def _chiplet(chiplet_id, x, y, w=1.0, h=1.0, role="compute"):
    return PlacedChiplet(chiplet_id=chiplet_id, rect=Rect(x, y, w, h), role=role)


class TestPlacedChiplet:
    def test_center_and_area(self):
        chiplet = _chiplet(0, 1, 1, 2, 4)
        assert chiplet.center.x == pytest.approx(2.0)
        assert chiplet.center.y == pytest.approx(3.0)
        assert chiplet.area == pytest.approx(8.0)

    def test_lattice_position_defaults_to_none(self):
        assert _chiplet(0, 0, 0).lattice_position is None


class TestChipletPlacement:
    def test_add_and_lookup(self):
        placement = ChipletPlacement()
        placement.add(_chiplet(0, 0, 0))
        placement.add(_chiplet(1, 1, 0))
        assert len(placement) == 2
        assert placement[1].rect.x == pytest.approx(1.0)

    def test_lookup_missing_id_raises(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0)])
        with pytest.raises(KeyError):
            placement[7]

    def test_duplicate_ids_rejected_on_add(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            placement.add(_chiplet(0, 5, 5))

    def test_duplicate_ids_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unique"):
            ChipletPlacement([_chiplet(0, 0, 0), _chiplet(0, 2, 2)])

    def test_overlapping_chiplets_rejected(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0)])
        with pytest.raises(ValueError, match="overlaps"):
            placement.add(_chiplet(1, 0.5, 0.5))

    def test_touching_chiplets_allowed(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0)])
        placement.add(_chiplet(1, 1.0, 0.0))
        assert len(placement) == 2

    def test_from_rects_assigns_sequential_ids(self):
        placement = ChipletPlacement.from_rects([Rect(0, 0, 1, 1), Rect(2, 0, 1, 1)])
        assert placement.chiplet_ids == [0, 1]

    def test_bounding_box(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0), _chiplet(1, 2, 3)])
        bounds = placement.bounding_box()
        assert (bounds.x, bounds.y) == (0, 0)
        assert bounds.x_max == pytest.approx(3.0)
        assert bounds.y_max == pytest.approx(4.0)

    def test_bounding_box_of_empty_placement_raises(self):
        with pytest.raises(ValueError):
            ChipletPlacement().bounding_box()

    def test_total_area_and_utilization(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0), _chiplet(1, 1, 0)])
        assert placement.total_chiplet_area() == pytest.approx(2.0)
        assert placement.utilization() == pytest.approx(1.0)

    def test_utilization_with_gaps(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0), _chiplet(1, 3, 0)])
        assert placement.utilization() == pytest.approx(0.5)

    def test_has_overlaps_false_for_valid_placement(self):
        placement = ChipletPlacement([_chiplet(0, 0, 0), _chiplet(1, 1, 0)])
        assert not placement.has_overlaps()

    def test_compute_chiplets_filters_roles(self):
        placement = ChipletPlacement(
            [_chiplet(0, 0, 0), _chiplet(1, 1, 0, role="io")]
        )
        assert [c.chiplet_id for c in placement.compute_chiplets()] == [0]

    def test_translated_and_normalized(self):
        placement = ChipletPlacement([_chiplet(0, 5, 5), _chiplet(1, 6, 5)])
        normalized = placement.normalized()
        bounds = normalized.bounding_box()
        assert bounds.x == pytest.approx(0.0)
        assert bounds.y == pytest.approx(0.0)
        # The original placement is unchanged.
        assert placement[0].rect.x == pytest.approx(5.0)

    def test_iteration_preserves_order(self):
        placement = ChipletPlacement([_chiplet(2, 0, 0), _chiplet(5, 1, 0)])
        assert [c.chiplet_id for c in placement] == [2, 5]

    def test_index_stays_out_of_repr_and_equality(self):
        added = ChipletPlacement()
        added.add(_chiplet(0, 0, 0))
        added.add(_chiplet(1, 1, 0))
        built = ChipletPlacement([_chiplet(0, 0, 0), _chiplet(1, 1, 0)])
        assert added == built
        assert repr(added) == repr(built)
        assert "index" not in repr(added)


# Coordinates on a half-millimetre lattice, nudged by less than the
# tolerance, so edges often touch exactly or within the tolerance.
_coordinate = st.builds(
    lambda step, nudge: step * 0.5 + nudge,
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([0.0, GEOMETRY_TOLERANCE / 2, -GEOMETRY_TOLERANCE / 2]),
)
# Mixed sizes: the first footprint sets the index's cell size, and later
# ones may be far smaller or span many cells.
_size = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 12.0, 40.0])


class TestAddMatchesBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 30), _coordinate, _coordinate, _size, _size),
            min_size=1,
            max_size=40,
        )
    )
    def test_add_raises_exactly_when_a_scan_finds_a_conflict(self, entries):
        placement = ChipletPlacement()
        accepted = []
        for chiplet_id, x, y, width, height in entries:
            chiplet = PlacedChiplet(chiplet_id=chiplet_id, rect=Rect(x, y, width, height))
            if any(existing.chiplet_id == chiplet_id for existing in accepted):
                expected = f"duplicate chiplet id {chiplet_id}"
            else:
                first = next(
                    (existing for existing in accepted if existing.rect.overlaps(chiplet.rect)),
                    None,
                )
                expected = (
                    None
                    if first is None
                    else f"chiplet {chiplet_id} overlaps chiplet {first.chiplet_id}"
                )
            if expected is None:
                placement.add(chiplet)
                accepted.append(chiplet)
            else:
                with pytest.raises(ValueError) as raised:
                    placement.add(chiplet)
                assert str(raised.value) == expected
        assert placement.chiplets == accepted
        assert not placement.has_overlaps()

    def test_edges_touching_within_tolerance_pass(self):
        placement = ChipletPlacement([_chiplet(0, 0.0, 0.0)])
        placement.add(_chiplet(1, 1.0 - GEOMETRY_TOLERANCE / 2, 0.0))
        placement.add(_chiplet(2, 0.0, 1.0 - GEOMETRY_TOLERANCE / 2))
        with pytest.raises(ValueError, match="chiplet 3 overlaps chiplet 0"):
            placement.add(_chiplet(3, 1.0 - 2 * GEOMETRY_TOLERANCE, -0.5))

    def test_overlap_names_the_first_inserted_chiplet(self):
        # Chiplet 0 sets a 0.5 mm index cell, so chiplet 1 (20 mm wide) is
        # too wide to file; the newcomer overlaps both 1 and 2 and the
        # message names 1, the earlier of the two.
        placement = ChipletPlacement()
        placement.add(_chiplet(0, 0.0, 0.0, 0.5, 0.5))
        placement.add(_chiplet(1, 5.0, 5.0, 20.0, 0.5))
        placement.add(_chiplet(2, 6.0, 4.0, 0.5, 0.5))
        with pytest.raises(ValueError, match="chiplet 3 overlaps chiplet 1$"):
            placement.add(_chiplet(3, 5.9, 4.2, 0.4, 1.0))

    def test_overlap_names_the_earliest_of_several_filed_chiplets(self):
        # Chiplets 1 and 8 share grid cells with the newcomer, which
        # overlaps both; the message names 1 whatever order the index
        # yields them in.
        placement = ChipletPlacement([_chiplet(0, 0.0, 0.0), _chiplet(1, 10.0, 10.0)])
        for chiplet_id in range(2, 8):
            placement.add(_chiplet(chiplet_id, 20.0 + 2 * chiplet_id, 0.0))
        placement.add(_chiplet(8, 11.0, 10.0))
        with pytest.raises(ValueError, match="chiplet 9 overlaps chiplet 1$"):
            placement.add(_chiplet(9, 10.5, 10.0))
