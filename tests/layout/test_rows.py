"""Unit + property tests for row occupancy."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LayoutError
from repro.geometry import Interval
from repro.layout.layout import Layout, Placement
from repro.layout.rows import CoreRow, RowOccupancy
from repro.netlist.netlist import Netlist
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like


@pytest.fixture()
def row():
    return RowOccupancy(CoreRow(index=0, origin_x=0.0, y=0.0, num_sites=50))


class TestPlacement:
    def test_place_and_query(self, row):
        row.place("a", 5, 3)
        assert row.occupant_at(5).name == "a"
        assert row.occupant_at(7).name == "a"
        assert row.occupant_at(8) is None
        assert row.used_sites() == 3

    def test_overlap_rejected(self, row):
        row.place("a", 5, 3)
        with pytest.raises(LayoutError):
            row.place("b", 7, 2)
        assert row.can_place(8, 2)
        assert not row.can_place(4, 2)

    def test_out_of_row_rejected(self, row):
        with pytest.raises(LayoutError):
            row.place("a", 48, 5)
        with pytest.raises(LayoutError):
            row.place("b", -1, 2)

    def test_remove(self, row):
        row.place("a", 5, 3)
        removed = row.remove("a")
        assert removed.start == 5
        assert row.used_sites() == 0
        with pytest.raises(LayoutError):
            row.remove("a")

    def test_move(self, row):
        row.place("a", 5, 3)
        row.place("b", 20, 3)
        row.move("a", 10)
        assert row.occupant_at(10).name == "a"
        assert row.occupant_at(5) is None

    def test_move_collision_restores(self, row):
        row.place("a", 5, 3)
        row.place("b", 10, 3)
        with pytest.raises(LayoutError):
            row.move("a", 9)
        # a must still be in place after the failed move
        assert row.occupant_at(5).name == "a"
        assert not list(row.findings())


class TestRewrite:
    def test_shifts_cells_in_place_and_bumps_version_once(self, row):
        a = row.place("a", 5, 3)
        row.place("b", 20, 3)
        version = row.version
        row.rewrite([0, 3])
        assert row.starts == [0, 3]
        assert [(p.name, p.start) for p in row] == [("a", 0), ("b", 3)]
        assert row.placements[0] is a
        assert row.version == version + 1
        assert not list(row.findings())

    @pytest.mark.parametrize("starts", [
        [5, 7],      # b overlaps a
        [20, 5],     # order swapped
        [-1, 20],    # left of the row
        [5, 48],     # past the row's end
        [5],         # one start short
        [5, 20, 30],
    ])
    def test_rejected_rewrite_leaves_the_row(self, row, starts):
        row.place("a", 5, 3)
        row.place("b", 20, 3)
        version = row.version
        with pytest.raises(LayoutError):
            row.rewrite(starts)
        assert row.starts == [5, 20]
        assert [(p.name, p.start) for p in row] == [("a", 5), ("b", 20)]
        assert row.version == version
        assert not list(row.findings())


class TestLayoutRewriteRow:
    @pytest.fixture()
    def layout(self):
        netlist = Netlist("rewrite", nangate45_library())
        layout = Layout(netlist, nangate45_like(), 2, 30)
        for name, row, start in (
            ("a", 0, 2), ("b", 1, 4), ("c", 0, 10), ("d", 0, 20),
        ):
            netlist.add_instance(name, "BUF_X1")
            layout.place(name, row, start)
        return layout

    def test_rewrite_keeps_the_placement_order(self, layout):
        layout.rewrite_row(0, [0, 3, 27])
        assert list(layout.placements.items()) == [
            ("a", Placement(0, 0)), ("b", Placement(1, 4)),
            ("c", Placement(0, 3)), ("d", Placement(0, 27)),
        ]
        assert layout.cell_center("d") == layout.cell_rect("d").center
        layout.validate()

    @pytest.mark.parametrize("starts", [
        [2, 12, 20],  # moves the fixed cell c
        [9, 10, 20],  # a overlaps c
        [2, 10, 28],  # d leaves the row
        [2, 10],      # one start short
    ])
    def test_rejected_rewrite_changes_nothing(self, layout, starts):
        layout.fixed.add("c")
        occ = layout.occupancy[0]
        version = occ.version
        before = list(layout.placements.items())
        with pytest.raises(LayoutError):
            layout.rewrite_row(0, starts)
        assert occ.starts == [2, 10, 20]
        assert occ.version == version
        assert list(layout.placements.items()) == before
        layout.validate()

    def test_reorder_fixed_first(self, layout):
        layout.fixed.update({"b", "d"})
        layout.reorder_fixed_first()
        assert list(layout.placements) == ["b", "d", "a", "c"]
        layout.fixed.clear()
        layout.reorder_fixed_first()
        assert list(layout.placements) == ["b", "d", "a", "c"]


class TestNeighborQueries:
    def test_cell_right_of(self, row):
        row.place("a", 5, 3)
        row.place("b", 20, 3)
        assert row.cell_right_of(0).name == "a"
        assert row.cell_right_of(8).name == "b"
        assert row.cell_right_of(30) is None

    def test_cell_left_of(self, row):
        row.place("a", 5, 3)
        row.place("b", 20, 3)
        assert row.cell_left_of(20).name == "a"
        assert row.cell_left_of(40).name == "b"
        assert row.cell_left_of(5) is None

    def test_cell_left_of_adjacent(self, row):
        row.place("a", 5, 3)
        assert row.cell_left_of(8).name == "a"


class TestFreeIntervals:
    def test_empty_row(self, row):
        assert row.free_intervals() == [Interval(0, 50)]
        assert row.largest_gap() == 50

    def test_gaps_between_cells(self, row):
        row.place("a", 5, 3)
        row.place("b", 20, 5)
        assert row.free_intervals() == [
            Interval(0, 5),
            Interval(8, 20),
            Interval(25, 50),
        ]
        assert row.free_sites() == 50 - 8

    def test_full_row(self, row):
        row.place("a", 0, 50)
        assert row.free_intervals() == []
        assert row.largest_gap() == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 45), st.integers(1, 5)),
        max_size=12,
    )
)
def test_property_no_overlap_after_any_placement_sequence(ops):
    """Placing whenever legal keeps the row consistent and gap math exact."""
    row = RowOccupancy(CoreRow(index=0, origin_x=0.0, y=0.0, num_sites=50))
    placed = 0
    for k, (start, width) in enumerate(ops):
        if row.can_place(start, width):
            row.place(f"c{k}", start, width)
            placed += width
    assert not list(row.findings())
    assert row.used_sites() == placed
    assert sum(len(g) for g in row.free_intervals()) == 50 - placed
