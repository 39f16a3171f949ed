"""Tests for parasitics and the delay model the STA kernel computes."""

import pytest

from repro.errors import TimingError
from repro.kernels.sta import (
    arc_delay,
    arc_variants,
    parasitic_arrays,
    timing_structure,
    wire_and_load,
)
from repro.route.router import global_route
from repro.timing.constraints import TimingConstraints
from repro.timing.corners import DEFAULT_CORNERS
from repro.timing.sta import run_sta

from tests.oracles.sta import ScalarDelay, net_parasitics


def _rc(layout, net_name, routing=None, wire_derate=1.0):
    """The kernel's (R, C) of one net."""
    s = timing_structure(layout.netlist)
    r, c = parasitic_arrays(s, layout, routing, wire_derate)
    k = s.names.index(net_name)
    return float(r[k]), float(c[k])


class TestEstimates:
    def test_estimate_scales_with_length(self, small_layout):
        # inv0->inv1 (short) vs in->inv0 (port at boundary)
        r1, c1 = _rc(small_layout, "n0")
        assert r1 > 0 and c1 > 0
        small_layout.move_in_row("inv1", 50)  # stretch n0
        r2, c2 = _rc(small_layout, "n0")
        assert r2 > r1 and c2 > c1

    def test_zero_for_coincident_pins(self, library, tech):
        from repro.layout.layout import Layout
        from tests.conftest import make_inverter_chain

        nl = make_inverter_chain(library, length=2, name="co")
        layout = Layout(nl, tech, num_rows=1, sites_per_row=20)
        layout.place("inv0", 0, 0)
        layout.place("inv1", 0, 2)  # abutted: centres ~0.38 µm apart
        r, c = _rc(layout, "n0")
        assert r < 1.0
        assert (r, c) == net_parasitics(layout, "n0")

    @pytest.mark.parametrize("corner", DEFAULT_CORNERS, ids=lambda c: c.name)
    def test_wire_derate_scales_last(self, small_layout, corner):
        r, c = _rc(small_layout, "n0")
        d = corner.wire_derate
        assert _rc(small_layout, "n0", wire_derate=d) == (r * d, c * d)


def _kernel_model(layout):
    """The kernel's per-net wire delay and load, keyed by net name."""
    s = timing_structure(layout.netlist)
    wire, load = wire_and_load(*parasitic_arrays(s, layout), s.csink)
    return dict(zip(s.names, wire.tolist())), dict(zip(s.names, load.tolist()))


class TestDelayCalculator:
    """The delay model on the kernel's outputs and on the oracle's model.

    (The per-net calculator these tests once read is now the oracle's
    :func:`~tests.oracles.sta.net_parasitics`.)
    """

    def test_net_load_includes_pins_and_wire(self, small_layout, library):
        net = small_layout.netlist.net("n0")
        sta = run_sta(small_layout, TimingConstraints(clock_period=10.0))
        load = sta.load[[n.name for n in small_layout.netlist.nets].index("n0")]
        _, c_wire = net_parasitics(small_layout, "n0")
        pin_cap = library.cell("INV_X1").pin("A").timing.capacitance
        assert load == c_wire + pin_cap
        assert load == _kernel_model(small_layout)[1]["n0"]
        assert load == ScalarDelay(small_layout).net_load(net)

    def test_wire_delay_positive_and_monotone(self, small_layout):
        n0 = small_layout.netlist.net("n0")
        wire = _kernel_model(small_layout)[0]["n0"]
        assert wire >= 0
        assert wire == ScalarDelay(small_layout).wire_delay(n0)
        small_layout.move_in_row("inv1", 50)  # stretch n0
        assert _kernel_model(small_layout)[0]["n0"] > wire

    def test_arc_delay_uses_output_load(self, small_layout, library):
        variants = arc_variants(library.cell("INV_X1"), "A", "ZN")
        load = _kernel_model(small_layout)[1]["n0"]
        d = arc_delay(variants, load, 1.0)
        assert d > 0.012  # at least the intrinsic
        assert d > arc_delay(variants, 0.0, 1.0)
        model = ScalarDelay(small_layout)
        assert d == model.arc_delay("inv0", "A", "ZN")

    def test_missing_arc_zero(self, small_layout, library):
        assert arc_variants(library.cell("INV_X1"), "ZN", "A") == []
        assert arc_delay([], 5.0, 1.0) == 0.0
        model = ScalarDelay(small_layout)
        assert model.arc_delay("inv0", "ZN", "A") == 0.0

    def test_routing_of_another_netlist_raises(self, small_layout):
        from repro.layout.layout import Layout

        routing = global_route(small_layout)
        other = Layout(
            small_layout.netlist.copy(),
            small_layout.technology,
            num_rows=small_layout.num_rows,
            sites_per_row=small_layout.sites_per_row,
        )
        for name, pl in small_layout.placements.items():
            other.place(name, pl.row, pl.start)
        with pytest.raises(TimingError, match="another netlist"):
            run_sta(other, TimingConstraints(clock_period=10.0), routing)
        # a clone shares the netlist, so it may time on the routing
        run_sta(small_layout.clone(), TimingConstraints(10.0), routing)

    def test_routed_beats_estimate_consistency(self, small_layout):
        routing = global_route(small_layout)
        r, c = _rc(small_layout, "n0", routing)
        assert r > 0 and c > 0
        assert (r, c) == net_parasitics(small_layout, "n0", routing)
