"""Tests for min-delay (hold) analysis."""

import pytest

from repro.timing.delay import DelayCalculator
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
        """The intended usage: check hold with a fast-corner calculator."""
        d = misty_design
        dc = DelayCalculator(
            d.layout, d.routing, cell_derate=0.88, wire_derate=0.92
        )
        result = run_hold_sta(
            d.layout, d.constraints, routing=d.routing, delay_calc=dc
        )
        assert result.tns == 0.0
