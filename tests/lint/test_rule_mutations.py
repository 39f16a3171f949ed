"""Mutation tests for the layout lint rules.

Each case corrupts a fresh small design in exactly one way and asserts
that exactly the expected rule id fires — and nothing else.  Cascade
suppression is what makes single-id attribution possible: structural
corruption would otherwise also fail the derived gap-accounting and
DEF-round-trip rules.
"""

import json

import pytest

from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout, Placement
from repro.layout.rows import CoreRow
from repro.lint import Severity, run_lint
from repro.place.global_place import assign_port_positions
from repro.route.router import global_route
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like

from tests.conftest import make_inverter_chain


def fresh_design():
    """A fresh 4-inverter chain on a 4x60 core (nothing shared)."""
    library = nangate45_library()
    tech = nangate45_like(num_layers=10)
    netlist = make_inverter_chain(library)
    layout = Layout(netlist, tech, num_rows=4, sites_per_row=60)
    for i in range(4):
        layout.place(f"inv{i}", i % 2, 5 + 8 * i)
    assign_port_positions(layout)
    return layout


def rule_ids(report):
    """Distinct rule ids in the report, via the JSON surface."""
    payload = json.loads(report.to_json())
    return {v["rule_id"] for v in payload["violations"]}


# --------------------------------------------------------------------- #
# the mutation catalog: (name, corrupt(layout) -> lint kwargs, expected)
# --------------------------------------------------------------------- #


def _overlap(layout):
    occ = layout.occupancy[0]
    first = occ.placements[0]
    second = occ.placements[1]
    new_start = first.end - 1
    occ.starts[1] = new_start
    second.start = new_start
    layout.placements[second.name] = Placement(row=0, start=new_start)
    return {}


def _index_desync(layout):
    layout.occupancy[0].starts[0] += 1
    return {}


def _ghost_entry(layout):
    layout.placements["phantom"] = Placement(row=0, start=50)
    return {}


def _index_short(layout):
    layout.occupancy[0].starts.pop()
    return {}


def _ghost_behind_duplicate(layout):
    # The duplicate record makes the row records as many as the map
    # entries, so only a name-by-name check finds the ghost.
    width = layout.netlist.instance("inv1").width_sites
    layout.occupancy[2].place("inv1", 40, width)
    layout.placements["phantom"] = Placement(row=0, start=50)
    return {}


def _out_of_row(layout):
    occ = layout.occupancy[0]
    last = occ.placements[-1]
    new_start = occ.row.num_sites  # fully past the row end
    occ.starts[-1] = new_start
    last.start = new_start
    layout.placements[last.name] = Placement(row=0, start=new_start)
    return {}


def _negative_start(layout):
    occ = layout.occupancy[0]
    first = occ.placements[0]
    occ.starts[0] = first.start = -2
    layout.placements[first.name] = Placement(row=0, start=-2)
    return {}


def _width_mismatch(layout):
    layout.occupancy[0].placements[0].width += 1
    return {}


def _hard_blockage_breach(layout):
    rect = layout.cell_rect("inv0")
    layout.add_blockage(PlacementBlockage("keepout", rect, 0.0))
    return {}


def _asset_unplaced(layout):
    layout.unplace("inv0")
    return {"assets": ["inv0"]}


def _frozen_moved(layout):
    ref = {"inv0": layout.placement("inv0")}
    layout.fixed.add("inv0")
    occ = layout.occupancy[0]
    occ.move("inv0", 50, start_hint=ref["inv0"].start)
    layout.placements["inv0"] = Placement(row=0, start=50)
    return {"reference_placements": ref}


def _row_geometry_desync(layout):
    old = layout.rows[0]
    layout.rows[0] = CoreRow(
        index=old.index, origin_x=old.origin_x, y=old.y,
        num_sites=old.num_sites + 10,
    )
    return {}


def _no_sinks(layout):
    net = layout.netlist.net("n0")
    net.sink_pins.clear()
    return {}


def _no_driver(layout):
    layout.netlist.net("n0").driver_pin = None
    return {}


def _multi_driven(layout):
    layout.netlist.net("n0").driver_port = "in"
    return {}


def _unconnected_pin(layout):
    del layout.netlist.instance("inv1").connections["A"]
    return {}


def _unparsable_blockage_name(layout):
    # A name with a space breaks DEF tokenization: the writer emits it
    # verbatim, the parser splits on whitespace — no longer a fixed point.
    from repro.geometry import Rect

    layout.add_blockage(
        PlacementBlockage("bad name", Rect(0.0, 0.0, 0.5, 0.5), 0.5)
    )
    return {}


MUTATIONS = [
    ("overlap", _overlap, "L001"),
    ("index-desync", _index_desync, "L001"),
    ("ghost-entry", _ghost_entry, "L001"),
    ("index-short", _index_short, "L001"),
    ("ghost-behind-duplicate", _ghost_behind_duplicate, "L001"),
    ("out-of-row", _out_of_row, "L002"),
    ("negative-start", _negative_start, "L002"),
    ("width-mismatch", _width_mismatch, "L002"),
    ("hard-blockage-breach", _hard_blockage_breach, "L003"),
    ("asset-unplaced", _asset_unplaced, "L004"),
    ("frozen-moved", _frozen_moved, "L004"),
    ("row-geometry-desync", _row_geometry_desync, "L005"),
    ("no-sinks", _no_sinks, "N001"),
    ("no-driver", _no_driver, "N001"),
    ("multi-driven", _multi_driven, "N002"),
    ("unconnected-pin", _unconnected_pin, "N002"),
    ("unparsable-blockage-name", _unparsable_blockage_name, "S001"),
]


class TestCleanDesign:
    def test_no_violations(self):
        report = run_lint(fresh_design())
        assert report.is_clean
        assert rule_ids(report) == set()

    def test_routing_rule_skipped_without_routing(self):
        report = run_lint(fresh_design())
        assert "R001" in report.rules_skipped
        assert "R001" not in report.rules_run

    def test_clean_with_routing_runs_all_rules(self):
        layout = fresh_design()
        routing = global_route(layout)
        report = run_lint(layout, routing=routing)
        assert report.is_clean
        assert set(report.rules_run) == {
            "L001", "L002", "L003", "L004", "L005",
            "N001", "N002", "R001", "S001",
        }

    def test_exit_code_zero(self):
        assert run_lint(fresh_design()).exit_code(Severity.WARNING) == 0


class TestMutations:
    @pytest.mark.parametrize(
        "name,corrupt,expected",
        MUTATIONS,
        ids=[m[0] for m in MUTATIONS],
    )
    def test_exactly_one_rule_fires(self, name, corrupt, expected):
        layout = fresh_design()
        kwargs = corrupt(layout)
        report = run_lint(layout, **kwargs)
        assert rule_ids(report) == {expected}, report.format_text(verbose=True)
        assert report.errors >= 1
        assert report.exit_code(Severity.ERROR) == 1

    def test_ghost_behind_a_duplicate_is_named(self):
        layout = fresh_design()
        _ghost_behind_duplicate(layout)
        payload = json.loads(run_lint(layout).to_json())
        assert any(
            v["location"].get("instance") == "phantom"
            and "ghost" in v["message"]
            for v in payload["violations"]
        ), payload

    def test_track_overflow_beyond_margin_is_error(self):
        layout = fresh_design()
        routing = global_route(layout)
        grid = routing.grid
        grid.usage[0, 0, 0] = grid.capacity[0, 0, 0] * 2.0 + 20.0
        report = run_lint(layout, routing=routing)
        assert rule_ids(report) == {"R001"}
        payload = json.loads(report.to_json())
        assert payload["violations"][0]["severity"] == "error"

    def test_soft_blockage_over_density_is_warning(self):
        layout = fresh_design()
        rect = layout.cell_rect("inv0")
        layout.add_blockage(PlacementBlockage("softcap", rect, 0.01))
        report = run_lint(layout)
        assert rule_ids(report) == {"L003"}
        assert report.errors == 0 and report.warnings >= 1


class TestCascadeSuppression:
    def test_overlap_suppresses_derived_rules(self):
        layout = fresh_design()
        _overlap(layout)
        report = run_lint(layout)
        assert "L005" in report.rules_skipped
        assert "S001" in report.rules_skipped
        assert "L001" in report.rules_skipped["L005"]

    def test_violation_payload_shape(self):
        layout = fresh_design()
        _overlap(layout)
        payload = json.loads(run_lint(layout).to_json())
        v = payload["violations"][0]
        assert v["rule_id"] == "L001"
        assert v["severity"] == "error"
        assert v["message"]
        assert v["hint"]
        assert isinstance(v["location"], dict)
