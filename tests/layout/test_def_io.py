"""Round-trip tests for the DEF-like serialization."""

import pytest

from repro.errors import SerializationError
from repro.geometry import Rect
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
