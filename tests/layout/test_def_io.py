"""Round-trip tests for the DEF-like serialization."""

import pytest

from repro.errors import SerializationError
from repro.geometry import Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.def_io import (
    layout_from_def,
    layout_to_def,
    load_def,
    save_def,
)


class TestRoundTrip:
    def test_simple_round_trip(self, small_layout, tech):
        small_layout.fixed.add("inv1")
        small_layout.add_blockage(
            PlacementBlockage("blk", Rect(0.0, 0.0, 3.0, 2.8), max_density=0.5)
        )
        text = layout_to_def(small_layout)
        back = layout_from_def(text, small_layout.netlist, tech)
        assert back.placements == small_layout.placements
        assert back.fixed == {"inv1"}
        assert "blk" in back.blockages
        assert back.blockages["blk"].max_density == 0.5
        assert back.port_positions == small_layout.port_positions

    def test_file_round_trip(self, small_layout, tech, tmp_path):
        path = tmp_path / "test.def"
        save_def(small_layout, path)
        back = load_def(path, small_layout.netlist, tech)
        assert back.placements == small_layout.placements

    def test_generated_design_round_trip(self, tiny_design, tech):
        layout = tiny_design["layout"]
        back = layout_from_def(layout_to_def(layout), layout.netlist, tech)
        assert back.placements == layout.placements
        back.validate()


class TestErrors:
    def test_wrong_design_name(self, small_layout, tech, library):
        from repro.netlist.netlist import Netlist

        other = Netlist("other", library)
        with pytest.raises(SerializationError):
            layout_from_def(layout_to_def(small_layout), other, tech)

    def test_missing_header(self, small_layout, tech):
        with pytest.raises(SerializationError):
            layout_from_def("garbage", small_layout.netlist, tech)

    def test_malformed_core(self, small_layout, tech):
        with pytest.raises(SerializationError):
            layout_from_def(
                "DESIGN chain\nCORE ROWS x SITES y\n", small_layout.netlist, tech
            )

    def test_unknown_record(self, small_layout, tech):
        text = "DESIGN chain\nCORE ROWS 4 SITES 60\nBOGUS x\nEND DESIGN"
        with pytest.raises(SerializationError):
            layout_from_def(text, small_layout.netlist, tech)


class TestRejectedRecords:
    """Records that used to load and poison later stages.

    A PIN at ``inf`` timed PRESENT to TNS = −inf; one at ``nan`` read as
    an unplaced pin, so the router dropped it; an infinite blockage and a
    PIN for a port the netlist lacks loaded silently.  Each now fails
    with a ``SerializationError`` naming the line.
    """

    @pytest.mark.parametrize(
        "record, reason",
        [
            ("PIN {port} AT inf 3", "non-finite number 'inf'"),
            ("PIN {port} AT nan 3", "non-finite number 'nan'"),
            ("BLOCKAGE bx RECT 1 1 inf 5 DENSITY 0.5", "non-finite number"),
            ("PIN nosuchport AT 1 3", "unknown port 'nosuchport'"),
        ],
        ids=["pin-inf", "pin-nan", "blockage-inf", "unknown-port"],
    )
    def test_record_rejected(self, present_design, record, reason):
        d = present_design
        port = sorted(d.layout.port_positions)[0]
        lines = layout_to_def(d.layout).splitlines()
        lines.insert(len(lines) - 1, record.format(port=port))
        with pytest.raises(SerializationError, match=reason) as raised:
            layout_from_def("\n".join(lines), d.netlist, d.technology)
        assert str(raised.value).startswith(f"line {len(lines) - 1}: ")
        assert "\n" not in str(raised.value)


class TestRejectedPlacements:
    """Records the layout refuses fail as one-line ``SerializationError``.

    A PIN far outside the core used to load and time PRESENT to TNS
    −427,590 ns; a COMPONENT the layout cannot place raised the layout's
    own error without naming the line.
    """

    @staticmethod
    def _load(d, edit):
        lines = layout_to_def(d.layout).splitlines()
        number = edit(lines)
        with pytest.raises(SerializationError) as raised:
            layout_from_def("\n".join(lines), d.netlist, d.technology)
        message = str(raised.value)
        assert message.startswith(f"line {number}: ")
        assert "\n" not in message
        return message

    @pytest.mark.parametrize(
        "where", ["AT 1e9 3", "AT -0.5 3", "AT 3 -1e-9", "AT 3 1e9"]
    )
    def test_pin_outside_core_rejected(self, present_design, where):
        d = present_design
        port = sorted(d.layout.port_positions)[0]

        def edit(lines):
            lines.insert(len(lines) - 1, f"PIN {port} {where}")
            return len(lines) - 1

        assert "outside the core" in self._load(d, edit)

    def test_pin_on_core_edges_loads(self, present_design):
        d = present_design
        core = d.layout.core
        ports = sorted(d.layout.port_positions)[:2]
        lines = layout_to_def(d.layout).splitlines()
        lines[-1:-1] = [
            f"PIN {ports[0]} AT {core.xlo} {core.ylo}",
            f"PIN {ports[1]} AT {core.xhi} {core.yhi}",
        ]
        back = layout_from_def("\n".join(lines), d.netlist, d.technology)
        assert back.port_positions[ports[1]] == Point(core.xhi, core.yhi)

    def test_every_port_of_a_design_is_inside_the_core(self, present_design):
        layout = present_design.layout
        back = layout_from_def(
            layout_to_def(layout), layout.netlist, layout.technology
        )
        assert back.port_positions == layout.port_positions

    def test_unknown_component_rejected(self, present_design):
        def edit(lines):
            lines.insert(2, "COMPONENT nosuchcell ROW 0 SITE 0")
            return 3

        assert "nosuchcell" in self._load(present_design, edit)

    def test_duplicate_component_rejected(self, present_design):
        def edit(lines):
            lines.insert(3, lines[2])
            return 4

        assert "already placed" in self._load(present_design, edit)

    def test_component_row_out_of_range_rejected(self, present_design):
        def edit(lines):
            name = lines[2].split()[1]
            lines[2] = f"COMPONENT {name} ROW 99999 SITE 0"
            return 3

        assert "out of range" in self._load(present_design, edit)

    def test_overlapping_component_rejected(self, present_design):
        def edit(lines):
            # the second component lands on the first one's spot
            first = lines[2].split()
            name = lines[3].split()[1]
            lines[3] = f"COMPONENT {name} ROW {first[3]} SITE {first[5]}"
            return 4

        self._load(present_design, edit)
