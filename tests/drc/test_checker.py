"""Tests for the DRC checker."""

import pytest

from repro.drc.checker import DrcReport, DrcViolation, check_drc
from repro.geometry import Rect
from repro.layout.blockage import PlacementBlockage


class TestReport:
    def test_counts(self):
        rep = DrcReport(
            violations=[
                DrcViolation("placement", "x"),
                DrcViolation("congestion", "y"),
                DrcViolation("congestion", "z"),
            ]
        )
        assert rep.count == 3
        assert rep.count_of("congestion") == 2
        assert rep.count_of("pin_access") == 0


class TestPlacementChecks:
    def test_clean_layout_no_placement_violations(self, tiny_design):
        rep = check_drc(tiny_design["layout"])
        assert rep.count_of("placement") == 0

    def test_hard_blockage_violation_detected(self, tiny_design):
        layout = tiny_design["layout"].clone()
        name = next(iter(layout.placements))
        rect = layout.cell_rect(name)
        layout.add_blockage(PlacementBlockage("hard", rect, max_density=0.0))
        rep = check_drc(layout)
        assert rep.count_of("placement") == 1

    def test_partial_blockage_not_a_violation(self, tiny_design):
        layout = tiny_design["layout"].clone()
        layout.add_blockage(
            PlacementBlockage("soft", layout.core, max_density=0.1)
        )
        rep = check_drc(layout)
        assert rep.count_of("placement") == 0

    def test_overlap_detected(self, small_layout):
        # Forge an overlap directly in the occupancy structure.
        occ = small_layout.occupancy[0]
        occ._starts.append(5)
        from repro.layout.rows import RowPlacement

        occ._items.append(RowPlacement(name="ghost", start=5, width=4))
        rep = check_drc(small_layout)
        assert rep.count_of("placement") == 1


class TestCongestionChecks:
    def test_clean_routing_no_congestion(self, tiny_design):
        rep = check_drc(tiny_design["layout"], tiny_design["routing"])
        assert rep.count_of("congestion") == 0

    def test_forced_overflow_detected(self, tiny_design):
        import copy

        routing = tiny_design["routing"]
        saved = routing.grid.usage.copy()
        try:
            routing.grid.usage[2, 0, 0] = routing.grid.capacity[2, 0, 0] * 3 + 20
            rep = check_drc(tiny_design["layout"], routing)
            assert rep.count_of("congestion") == 1
        finally:
            routing.grid.usage[:] = saved

    def test_mild_overflow_absorbed(self, tiny_design):
        routing = tiny_design["routing"]
        saved = routing.grid.usage.copy()
        try:
            routing.grid.usage[2, 0, 0] = routing.grid.capacity[2, 0, 0] + 1.0
            rep = check_drc(tiny_design["layout"], routing)
            assert rep.count_of("congestion") == 0
        finally:
            routing.grid.usage[:] = saved

    def test_baseline_suite_calibration(self, present_design):
        rep = check_drc(present_design.layout, present_design.routing)
        assert rep.count == 0
