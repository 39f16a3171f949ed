"""Tests for multi-corner (MMMC-style) analysis."""

import pytest

from repro.timing.corners import (
    DEFAULT_CORNERS,
    Corner,
    run_multi_corner_sta,
)
from repro.timing.sta import run_sta


class TestCorners:
    def test_default_set_ordering(self):
        names = [c.name for c in DEFAULT_CORNERS]
        assert names == ["slow", "typical", "fast"]

    def test_slow_corner_is_worst(self, misty_design):
        d = misty_design
        result = run_multi_corner_sta(
            d.layout, d.constraints, routing=d.routing
        )
        tns = result.tns_by_corner()
        assert tns["slow"] <= tns["typical"] <= tns["fast"]
        assert result.worst_tns == tns["slow"]
        assert result.worst_corner == "slow" or tns["slow"] == tns["typical"]

    def test_typical_matches_single_corner(self, misty_design):
        d = misty_design
        result = run_multi_corner_sta(
            d.layout, d.constraints, routing=d.routing
        )
        typical = result.results["typical"]
        assert typical == d.sta
        assert typical.load.tolist() == d.sta.load.tolist()

    @pytest.mark.parametrize("corner", DEFAULT_CORNERS, ids=lambda c: c.name)
    def test_each_corner_matches_run_sta(self, misty_design, corner):
        d = misty_design
        result = run_multi_corner_sta(
            d.layout, d.constraints, routing=d.routing
        ).results[corner.name]
        single = run_sta(d.layout, d.constraints, routing=d.routing, corner=corner)
        assert result == single
        assert result.load.tolist() == single.load.tolist()

    def test_derates_scale_arrivals(self, misty_design):
        d = misty_design
        heavy = Corner("very_slow", cell_derate=2.0, wire_derate=2.0)
        result = run_multi_corner_sta(
            d.layout, d.constraints, corners=(heavy,), routing=d.routing
        )
        sta = result.results["very_slow"]
        # Arrival at every endpoint roughly doubles -> slack collapses.
        assert sta.tns <= d.sta.tns
        worst = sta.worst_endpoint
        base = d.sta.worst_endpoint
        assert worst.arrival > base.arrival * 1.5

    def test_tight_design_fails_slow_corner(self):
        """A design calibrated to barely miss typical must miss slow worse."""
        from repro.bench.designs import build_design

        d = build_design("openMSP430_2")
        result = run_multi_corner_sta(
            d.layout, d.constraints, routing=d.routing
        )
        assert result.tns_by_corner()["slow"] < d.sta.tns
