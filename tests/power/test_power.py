"""Tests for the power model."""

import pytest

from repro.errors import TimingError
from repro.power.power import analyze_power
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import run_sta


def _power(layout, constraints, routing=None, **kwargs):
    """Power of ``layout`` from its own STA, as the flow computes it."""
    sta = run_sta(layout, constraints, routing=routing)
    return analyze_power(layout, constraints, sta, **kwargs)


class TestPowerComponents:
    def test_all_components_positive(self, tiny_design):
        p = analyze_power(
            tiny_design["layout"],
            tiny_design["constraints"],
            tiny_design["sta"],
        )
        assert p.leakage > 0
        assert p.internal > 0
        assert p.switching > 0
        assert p.total == pytest.approx(p.leakage + p.internal + p.switching)

    def test_faster_clock_more_dynamic_power(self, tiny_design):
        slow = _power(tiny_design["layout"], TimingConstraints(clock_period=10.0))
        fast = _power(tiny_design["layout"], TimingConstraints(clock_period=1.0))
        assert fast.internal > slow.internal
        assert fast.switching > slow.switching
        assert fast.leakage == pytest.approx(slow.leakage)

    def test_activity_scales_switching(self, tiny_design):
        args = (
            tiny_design["layout"],
            tiny_design["constraints"],
            tiny_design["sta"],
        )
        low = analyze_power(*args, data_activity=0.05)
        high = analyze_power(*args, data_activity=0.4)
        assert high.switching > low.switching

    def test_more_cells_more_leakage(self, library, tech, tiny_design):
        """Adding filler cells increases leakage but not internal power."""
        layout = tiny_design["layout"].clone()
        netlist = layout.netlist.copy()
        layout.netlist = netlist
        base = _power(layout, tiny_design["constraints"])
        k = 0
        for row in range(layout.num_rows):
            for gap in layout.occupancy[row].free_intervals():
                if len(gap) >= 4:
                    k += 1
                    netlist.add_instance(f"fill{k}", "FILLCELL_X4")
                    layout.place(f"fill{k}", row, gap.lo)
                    break
        filled = _power(layout, tiny_design["constraints"])
        assert filled.leakage > base.leakage
        assert filled.internal == pytest.approx(base.internal)

    def test_routed_vs_estimated_similar_magnitude(self, tiny_design):
        est = _power(tiny_design["layout"], tiny_design["constraints"])
        routed = analyze_power(
            tiny_design["layout"],
            tiny_design["constraints"],
            tiny_design["sta"],
        )
        assert routed.total == pytest.approx(est.total, rel=0.5)

    def test_benchmark_power_in_mw_range(self, present_design):
        p = analyze_power(
            present_design.layout,
            present_design.constraints,
            present_design.sta,
        )
        assert 0.05 < p.total < 50.0


class TestStaInput:
    def test_sta_of_another_netlist_raises(self, small_layout, tiny_design):
        """Loads of another netlist fail loudly, not as a truncated sum."""
        sta = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        with pytest.raises(TimingError, match="rerun STA") as raised:
            analyze_power(
                tiny_design["layout"], tiny_design["constraints"], sta
            )
        message = str(raised.value)
        assert "\n" not in message
        assert f"loads for {small_layout.netlist.num_nets} nets" in message
