"""Tests for the Layout class."""

import pytest

from repro.errors import LayoutError
from repro.geometry import Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout


class TestGeometry:
    def test_core_dimensions(self, small_layout, tech):
        core = small_layout.core
        assert core.width == pytest.approx(60 * tech.site_width)
        assert core.height == pytest.approx(4 * tech.row_height)
        assert small_layout.total_sites == 240

    def test_site_rect(self, small_layout, tech):
        r = small_layout.site_rect(1, 2)
        assert r.xlo == pytest.approx(2 * tech.site_width)
        assert r.ylo == pytest.approx(tech.row_height)

    def test_point_to_site_clamps(self, small_layout):
        assert small_layout.point_to_site(Point(-5, -5)) == (0, 0)
        row, site = small_layout.point_to_site(Point(1e9, 1e9))
        assert row == 3 and site == 59


class TestPlacementOps:
    def test_place_unplace(self, chain_netlist, tech):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        layout.place("inv0", 0, 3)
        assert layout.is_placed("inv0")
        pl = layout.unplace("inv0")
        assert pl.row == 0 and pl.start == 3
        assert not layout.is_placed("inv0")

    def test_double_place_rejected(self, chain_netlist, tech):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        layout.place("inv0", 0, 3)
        with pytest.raises(LayoutError):
            layout.place("inv0", 1, 3)

    def test_fixed_cell_cannot_move(self, chain_netlist, tech):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        layout.place("inv0", 0, 3)
        layout.fixed.add("inv0")
        with pytest.raises(LayoutError):
            layout.move_in_row("inv0", 10)
        with pytest.raises(LayoutError):
            layout.unplace("inv0")

    def test_move_to_other_row(self, chain_netlist, tech):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        layout.place("inv0", 0, 3)
        layout.move_to("inv0", 1, 7)
        assert layout.placement("inv0").row == 1

    @pytest.mark.parametrize("row", [-1, 2])
    def test_move_to_row_outside_core_rejected(self, chain_netlist, tech, row):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        layout.place("inv0", 0, 3)
        with pytest.raises(LayoutError, match="out of range"):
            layout.move_to("inv0", row, 0)
        assert layout.placement("inv0").row == 0
        assert [p.name for p in layout.occupancy[1]] == []
        layout.validate()

    def test_cell_rect_and_center(self, small_layout, tech):
        rect = small_layout.cell_rect("inv0")
        assert rect.width == pytest.approx(2 * tech.site_width)  # INV_X1
        assert small_layout.cell_center("inv0") == rect.center

    def test_unplaced_queries_raise(self, chain_netlist, tech):
        layout = Layout(chain_netlist, tech, num_rows=2, sites_per_row=30)
        with pytest.raises(LayoutError):
            layout.placement("inv0")
        with pytest.raises(LayoutError):
            layout.cell_rect("inv0")


class TestAreaQueries:
    def test_utilization(self, small_layout):
        used = 4 * 2  # four INV_X1
        assert small_layout.utilization() == pytest.approx(used / 240)

    def test_instances_in_rect(self, small_layout):
        rect = small_layout.cell_rect("inv0").inflated(0.01)
        assert "inv0" in small_layout.instances_in_rect(rect)

    def test_region_density_full_core(self, small_layout):
        dens = small_layout.region_density(small_layout.core)
        assert dens == pytest.approx(small_layout.utilization())

    def test_rect_to_row_span(self, small_layout, tech):
        spans = small_layout.rect_to_row_span(
            Rect(0, 0, 10 * tech.site_width, tech.row_height)
        )
        assert len(spans) == 1
        row, iv = spans[0]
        assert row == 0 and (iv.lo, iv.hi) == (0, 10)

    def test_net_pin_points(self, small_layout):
        pts = small_layout.net_pin_points("n0")  # inv0 -> inv1
        assert len(pts) == 2


class TestBlockages:
    def test_add_and_density_cap(self, small_layout):
        small_layout.add_blockage(
            PlacementBlockage("b", Rect(0, 0, 5, 2), max_density=0.4)
        )
        assert small_layout.blockage_density_cap(0, 1) == 0.4
        assert small_layout.blockage_density_cap(3, 50) == 1.0

    def test_duplicate_blockage_rejected(self, small_layout):
        small_layout.add_blockage(
            PlacementBlockage("b", Rect(0, 0, 5, 2), max_density=0.4)
        )
        with pytest.raises(LayoutError):
            small_layout.add_blockage(
                PlacementBlockage("b", Rect(0, 0, 1, 1), max_density=0.9)
            )

    def test_clear_blockages(self, small_layout):
        small_layout.add_blockage(
            PlacementBlockage("b", Rect(0, 0, 5, 2), max_density=0.0)
        )
        small_layout.clear_blockages()
        assert not small_layout.blockages


class TestCloneAndValidate:
    def test_clone_is_independent(self, small_layout):
        clone = small_layout.clone()
        clone.move_in_row("inv0", 0)
        assert small_layout.placement("inv0").start == 5
        assert clone.placement("inv0").start == 0
        small_layout.validate()
        clone.validate()

    def test_clone_shares_netlist(self, small_layout):
        clone = small_layout.clone()
        assert clone.netlist is small_layout.netlist

    def test_validate_catches_corruption(self, small_layout):
        # Desynchronize the placement map on purpose.
        small_layout._placements["inv0"] = type(
            small_layout.placement("inv1")
        )(row=3, start=55)
        with pytest.raises(LayoutError):
            small_layout.validate()

    @pytest.mark.parametrize("slot", ["_cx", "_cy"])
    def test_validate_catches_a_stale_position_slot(self, small_layout, slot):
        i = small_layout._index["inv2"]
        getattr(small_layout, slot)[i] += 1
        with pytest.raises(LayoutError, match="'inv2'"):
            small_layout.validate()

    def test_gap_graph_total_weight(self, small_layout):
        total_free = small_layout.total_sites - small_layout.used_sites()
        graph = small_layout.gap_graph()
        assert sum(c.weight for c in graph.components()) == total_free
