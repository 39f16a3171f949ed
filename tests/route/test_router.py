"""Tests for the global router."""

import numpy as np
import pytest

from repro.bench.designs import build_design
from repro.errors import RoutingError
from repro.geometry import Point, half_perimeter_wirelength
from repro.kernels.routegrid import spanning_pairs
from repro.layout.pins import pin_table
from repro.route.ndr import NonDefaultRule
from repro.route.router import (
    RoutePlan,
    assign_layer_tier,
    global_route,
)

from tests.golden.test_route_digest import route_digest


def _spanning_pairs(points):
    """The kernel's pairs of one net with pins ``points``."""
    return spanning_pairs(
        np.array([p.x for p in points], dtype=float),
        np.array([p.y for p in points], dtype=float),
        np.array([len(points)]),
    )


class TestSpanningPairs:
    def test_two_points_one_pair(self):
        pairs = _spanning_pairs([Point(0, 0), Point(5, 5)])
        assert len(pairs) == 1

    def test_n_points_n_minus_1_pairs(self):
        pts = [Point(i, i % 3) for i in range(8)]
        assert len(_spanning_pairs(pts)) == 7

    def test_large_fanout_chain(self):
        pts = [Point(i % 10, i // 10) for i in range(40)]
        pairs = _spanning_pairs(pts)
        assert len(pairs) == 39

    def test_single_point_empty(self):
        assert len(_spanning_pairs([Point(0, 0)])) == 0


class TestLayerTier:
    def test_short_nets_low(self):
        h, v = assign_layer_tier(1.0, False, 10, core_scale=100.0)
        assert (h, v) == (1, 2)

    def test_long_nets_high(self):
        h, v = assign_layer_tier(90.0, False, 10, core_scale=100.0)
        assert (h, v) == (9, 10)

    def test_clock_on_top(self):
        assert assign_layer_tier(5.0, True, 10, core_scale=100.0) == (9, 10)

    def test_scale_invariance(self):
        small = assign_layer_tier(5.0, False, 10, core_scale=50.0)
        large = assign_layer_tier(50.0, False, 10, core_scale=500.0)
        assert small == large

    def test_thin_stack_clamped(self):
        h, v = assign_layer_tier(90.0, False, 4, core_scale=100.0)
        assert h <= 4 and v <= 4


class TestGlobalRoute:
    def test_routes_every_multi_pin_net(self, small_layout):
        result = global_route(small_layout)
        for net in small_layout.netlist.nets:
            if len(small_layout.net_pin_points(net.name)) >= 2:
                assert net.name in result.routes

    def test_wirelength_lower_bounded_by_hpwl(self, small_layout):
        result = global_route(small_layout)
        for name, route in result.routes.items():
            hpwl = half_perimeter_wirelength(
                small_layout.net_pin_points(name)
            )
            assert route.wirelength >= hpwl - 1e-6

    def test_parasitics_positive(self, small_layout):
        result = global_route(small_layout)
        _, r, c = result.wire_rc()
        assert len(r) == len(result.routes)
        assert (r >= 0).all() and (c >= 0).all()

    def test_unrouted_net_parasitics_zero(self, small_layout):
        """Only plan nets have R/C; STA estimates every other net."""
        result = global_route(small_layout)
        ids, _, _ = result.wire_rc()
        index = pin_table(small_layout.netlist).net_index
        assert ids.tolist() == [index[name] for name in result.plan.nets]
        assert "ghost" not in result.plan.position
        assert result.congestion_factor("ghost") == 1.0

    def test_usage_conservation(self, tiny_design, tech):
        """Total committed usage equals the sum over route segments."""
        layout = tiny_design["layout"]
        result = global_route(layout)
        expected = 0.0
        for route in result.routes.values():
            for seg in route.segments:
                expected += len(seg.gcells) * seg.demand
        assert result.grid.usage.sum() == pytest.approx(expected)

    def test_ndr_mismatch_rejected(self, small_layout):
        with pytest.raises(RoutingError):
            global_route(small_layout, ndr=NonDefaultRule.default(3))

    def test_wider_ndr_consumes_more_tracks(self, tiny_design):
        layout = tiny_design["layout"]
        base = global_route(layout)
        wide = global_route(
            layout, ndr=NonDefaultRule.from_list([1.5] * 10)
        )
        assert wide.grid.usage.sum() > base.grid.usage.sum() * 1.2

    def test_wider_ndr_lowers_resistance(self, tiny_design):
        layout = tiny_design["layout"]
        base = global_route(layout)
        wide = global_route(layout, ndr=NonDefaultRule.from_list([1.5] * 10))
        total_r_base = sum(r.resistance for r in base.routes.values())
        total_r_wide = sum(r.resistance for r in wide.routes.values())
        assert total_r_wide < total_r_base

    def test_deterministic(self, tiny_design):
        layout = tiny_design["layout"]
        a = global_route(layout)
        b = global_route(layout)
        assert a.total_wirelength == pytest.approx(b.total_wirelength)
        assert (a.grid.usage == b.grid.usage).all()

    def test_congestion_factor_bounds(self, tiny_design):
        result = tiny_design["routing"]
        for name in list(result.routes)[:50]:
            k = result.congestion_factor(name)
            assert 1.0 <= k < 2.0


class TestRoutePlan:
    def test_result_carries_the_plan_it_built(self, tiny_design):
        layout = tiny_design["layout"]
        result = global_route(layout)
        plan = result.plan
        assert isinstance(plan, RoutePlan) and plan.layout is layout
        assert list(result.routes) == plan.nets
        assert len(plan.base_tiers) == len(plan.nets)
        assert plan.offsets[-1] == len(plan.pairs)

    def test_plan_reuse_is_bitwise(self, tiny_design):
        layout = tiny_design["layout"]
        ndr = NonDefaultRule.from_list([1.5] * 10)
        fresh = global_route(layout, ndr=ndr)
        reused = global_route(layout, ndr=ndr, plan=global_route(layout).plan)
        assert reused.plan is not fresh.plan
        assert route_digest(reused) == route_digest(fresh)

    def test_plan_of_another_layout_rejected(self, tiny_design):
        layout = tiny_design["layout"]
        plan = global_route(layout).plan
        with pytest.raises(RoutingError, match="another layout"):
            global_route(layout.clone(), plan=plan)

    def test_plan_is_stale_after_a_move(self):
        """A cell moved in place after the build makes the plan stale.

        Routing it would route the old pin positions: a fresh plan's
        pairs differ.
        """
        layout = build_design("PRESENT").layout.clone()
        plan = RoutePlan.build(layout)
        name = "kctl_1"
        placement = layout.placement(name)
        width = layout.netlist.instance(name).width_sites
        occ = layout.occupancy[placement.row]
        start = next(
            s for s in range(layout.sites_per_row)
            if s != placement.start and occ.can_place(s, width)
        )
        layout.move_in_row(name, start)
        assert plan.is_stale()
        assert RoutePlan.build(layout).pairs.tobytes() != plan.pairs.tobytes()
        with pytest.raises(RoutingError, match="stale"):
            global_route(layout, plan=plan)

    def test_plan_is_stale_after_a_netlist_change(self, small_layout):
        plan = RoutePlan.build(small_layout)
        assert not plan.is_stale()
        global_route(small_layout, plan=plan)
        small_layout.netlist.add_net("extra")
        assert plan.is_stale()
        with pytest.raises(RoutingError, match="stale"):
            global_route(small_layout, plan=plan)
