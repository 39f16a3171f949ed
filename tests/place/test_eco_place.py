"""Tests for the blockage-driven incremental ECO placer."""

import pytest

from repro import obs
from repro.geometry import Rect
from repro.layout.blockage import PlacementBlockage
from repro.place.budget import build_budgets
from repro.place.eco_place import connected_median, eco_place


class TestConnectedMedian:
    def test_median_between_neighbors(self, small_layout):
        m = connected_median(small_layout, "inv1")
        xs = [small_layout.cell_center(f"inv{i}").x for i in (0, 1, 2)]
        assert min(xs) <= m.x <= max(xs)

    def test_unconnected_cell_none(self, library, tech):
        from repro.layout.layout import Layout
        from repro.netlist.netlist import Netlist

        nl = Netlist("solo", library)
        nl.add_instance("f", "FILLCELL_X4")
        layout = Layout(nl, tech, num_rows=1, sites_per_row=20)
        layout.place("f", 0, 0)
        assert connected_median(layout, "f") is None


class TestEcoPlace:
    def test_noop_without_blockages(self, tiny_design):
        layout = tiny_design["layout"].clone()
        report = eco_place(layout)
        assert report.num_moved == 0

    def test_resolves_over_budget_tile(self, tiny_design, tech):
        layout = tiny_design["layout"].clone()
        core = layout.core
        # Cap the left half of the core well below its current density.
        rect = Rect(0, 0, core.width / 2, core.height)
        current = layout.region_density(rect)
        layout.add_blockage(
            PlacementBlockage("cap", rect, max_density=current * 0.8)
        )
        report = eco_place(layout)
        layout.validate()
        assert report.num_moved > 0
        budgets = build_budgets(layout)
        # Budget resolved (or at least materially improved).
        b = budgets.budgets[0]
        assert b.used <= b.max_used or not report.unresolved_blockages

    def test_fixed_cells_never_move(self, tiny_design):
        layout = tiny_design["layout"].clone()
        core = layout.core
        rect = Rect(0, 0, core.width, core.height / 2)
        fixed_names = list(layout.placements)[:10]
        before = {n: layout.placement(n) for n in fixed_names}
        layout.fixed.update(fixed_names)
        layout.add_blockage(PlacementBlockage("cap", rect, max_density=0.2))
        eco_place(layout)
        for n in fixed_names:
            assert layout.placement(n) == before[n]

    def test_netlist_untouched(self, tiny_design):
        layout = tiny_design["layout"].clone()
        sig = layout.netlist.signature()
        core = layout.core
        layout.add_blockage(
            PlacementBlockage(
                "cap", Rect(0, 0, core.width / 2, core.height), max_density=0.3
            )
        )
        eco_place(layout)
        assert layout.netlist.signature() == sig

    def test_report_displacement_positive_when_moved(self, tiny_design):
        layout = tiny_design["layout"].clone()
        core = layout.core
        layout.add_blockage(
            PlacementBlockage(
                "cap", Rect(0, 0, core.width / 2, core.height), max_density=0.25
            )
        )
        report = eco_place(layout)
        if report.num_moved:
            assert report.total_displacement_um > 0

    def test_relocation_counters(self, tiny_design):
        # The left half's cap is out of reach and the right half has
        # little room: some relocations find no legal spot at all.
        layout = tiny_design["layout"].clone()
        core = layout.core
        half = core.width / 2
        layout.add_blockage(
            PlacementBlockage(
                "left", Rect(0, 0, half, core.height), max_density=0.25
            )
        )
        layout.add_blockage(
            PlacementBlockage(
                "right", Rect(half, 0, core.width, core.height),
                max_density=0.7,
            )
        )
        obs.disable()
        obs.get_metrics().reset()
        obs.enable()
        try:
            report = eco_place(layout)
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable()
            obs.get_metrics().reset()
        tried = snapshot["place.eco.relocations"]["value"]
        failed = snapshot["place.eco.failed_relocations"]["value"]
        assert (tried, failed) == (
            report.relocations, report.failed_relocations
        )
        assert 0 < failed < tried
        assert report.num_moved + failed <= tried
