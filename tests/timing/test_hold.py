"""Tests for min-delay (hold) analysis."""

import pytest

from repro.timing.corners import DEFAULT_CORNERS
from repro.timing.sta import run_hold_sta, run_sta


class TestHold:
    def test_clean_design_meets_hold(self, misty_design):
        d = misty_design
        result = run_hold_sta(d.layout, d.constraints, routing=d.routing)
        assert result.endpoints
        assert result.tns == 0.0  # ideal clock: no hold violations

    def test_min_arrival_below_max_arrival(self, misty_design):
        d = misty_design
        hold = run_hold_sta(d.layout, d.constraints, routing=d.routing)
        setup = run_sta(d.layout, d.constraints, routing=d.routing)
        hold_by_name = {e.name: e.required for e in hold.endpoints}
        for e in setup.endpoints:
            if e.kind == "ff_d" and e.name in hold_by_name:
                assert hold_by_name[e.name] <= e.arrival

    def test_huge_hold_time_violates(self, misty_design):
        d = misty_design
        result = run_hold_sta(
            d.layout, d.constraints, routing=d.routing, hold_time=10.0
        )
        assert result.tns < 0

    def test_fast_corner_hold(self, misty_design):
        """The intended usage: check hold at the fast corner."""
        d = misty_design
        fast = {c.name: c for c in DEFAULT_CORNERS}["fast"]
        result = run_hold_sta(
            d.layout, d.constraints, routing=d.routing, corner=fast
        )
        typical = run_hold_sta(d.layout, d.constraints, routing=d.routing)
        assert result.tns == 0.0
        assert min(e.required for e in result.endpoints) < min(
            e.required for e in typical.endpoints
        )
