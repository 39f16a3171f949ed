"""One table of placement-legality defects across the three entry points.

``Layout.validate``, lint L001–L003 and the #DRC placement count all read
the layout's legality scans (``Layout.findings`` and
``Layout.hard_blockage_hits``).  Each case below corrupts a fresh small
design in one way and pins what every entry point reports for it.
"""

import pytest

from repro.drc.checker import PLACEMENT_KINDS, check_drc, placement_drc_delta
from repro.errors import LayoutError
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Placement
from repro.layout.rows import FINDING_KINDS
from repro.lint import run_lint
from repro.lint.rules import FINDING_RULES

from tests.lint.test_rule_mutations import (
    _ghost_behind_duplicate,
    _ghost_entry,
    _hard_blockage_breach,
    _index_desync,
    _index_short,
    _negative_start,
    _out_of_row,
    _overlap,
    _width_mismatch,
    fresh_design,
    rule_ids,
)


def _index_surplus(layout):
    layout.occupancy[0].starts.append(59)
    return {}


def _map_desync(layout):
    layout.placements["inv0"] = Placement(row=0, start=6)
    return {}


def _unknown_cell(layout):
    layout.occupancy[2].place("stranger", 10, 2)
    layout.placements["stranger"] = Placement(row=2, start=10)
    return {}


def _empty_width(layout):
    layout.occupancy[0].placements[0].width = 0
    return {}


# (name, corrupt, validate raises, lint rule ids, #DRC placement, the
# one row the corruption touches or None)
CASES = [
    ("overlap", _overlap, True, {"L001"}, 1, 0),
    ("past-row-end", _out_of_row, True, {"L002"}, 1, 0),
    ("negative-start", _negative_start, True, {"L002"}, 1, 0),
    ("index-desync", _index_desync, True, {"L001"}, 0, 0),
    ("index-short", _index_short, True, {"L001"}, 0, 0),
    ("index-surplus", _index_surplus, True, {"L001"}, 0, 0),
    ("map-desync", _map_desync, True, {"L001"}, 0, None),
    ("ghost-entry", _ghost_entry, True, {"L001"}, 0, None),
    ("ghost-behind-duplicate", _ghost_behind_duplicate, True, {"L001"}, 0,
     None),
    ("unknown-cell", _unknown_cell, True, {"L002"}, 0, None),
    ("width-mismatch", _width_mismatch, True, {"L002"}, 0, 0),
    ("empty-width", _empty_width, True, {"L002"}, 0, 0),
    ("hard-blockage", _hard_blockage_breach, False, {"L003"}, 1, None),
]


def placement_count(layout):
    return check_drc(layout).count_of("placement")


def test_clean_design_has_no_findings():
    layout = fresh_design()
    assert not list(layout.findings())
    assert not list(layout.hard_blockage_hits())
    layout.validate()
    assert placement_count(layout) == 0


@pytest.mark.parametrize(
    "name,corrupt,raises,rules,drc,row", CASES, ids=[c[0] for c in CASES]
)
def test_entry_points_agree(name, corrupt, raises, rules, drc, row):
    layout = fresh_design()
    corrupt(layout)
    if raises:
        first = next(iter(layout.findings()))
        with pytest.raises(LayoutError) as err:
            layout.validate()
        assert str(err.value) == first.message
    else:
        layout.validate()
    assert rule_ids(run_lint(layout)) == rules
    assert placement_count(layout) == drc
    if row is not None:
        clean = fresh_design()
        assert placement_drc_delta(clean, {row: layout.occupancy[row]}) == (
            drc - placement_count(clean)
        )


def test_every_finding_kind_is_reported():
    assert set(FINDING_RULES) == set(FINDING_KINDS)
    assert PLACEMENT_KINDS <= set(FINDING_KINDS)
    seen = set()
    for _, corrupt, *_ in CASES:
        layout = fresh_design()
        corrupt(layout)
        seen.update(finding.kind for finding in layout.findings())
    assert seen == set(FINDING_KINDS)


def test_delta_counts_hard_blockage_hits_in_substitute_rows():
    clean = fresh_design()
    clean.add_blockage(
        PlacementBlockage("keepout", clean.span_rect(2, 30, 10), 0.0)
    )
    inside = clean.occupancy[2].copy()
    inside.place("implant", 32, 2)
    outside = clean.occupancy[2].copy()
    outside.place("implant", 50, 2)
    assert placement_drc_delta(clean, {2: inside}) == 1
    assert placement_drc_delta(clean, {2: outside}) == 0
    swapped = clean.clone()
    swapped.occupancy[2] = inside
    assert [
        (b.name, cell) for b, cell in swapped.hard_blockage_hits()
    ] == [("keepout", "implant")]
    assert placement_count(swapped) - placement_count(clean) == 1
