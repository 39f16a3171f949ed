"""Property-based legalizer invariants on randomized target sets.

The legalizer is load-bearing for every ECO path: the operators and the
flow's ``layout.validate()`` assume placements are always legal, so
``legalize`` must never produce overlaps, off-grid sites, or out-of-core
rows — for *any* target cloud Hypothesis can dream up.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist
from repro.place.legalize import legalize
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like

LIB = nangate45_library()
TECH = nangate45_like()

NUM_ROWS = 6
SITES_PER_ROW = 50

MASTERS = ["INV_X1", "NAND2_X1", "BUF_X1", "DFF_X1"]

targets_strategy = st.lists(
    st.tuples(
        st.floats(0.0, SITES_PER_ROW * TECH.site_width, allow_nan=False),
        st.floats(0.0, NUM_ROWS * TECH.row_height, allow_nan=False),
        st.sampled_from(MASTERS),
    ),
    min_size=1,
    max_size=25,
)


def _build(targets, pre_placed=0):
    nl = Netlist("legal_prop", LIB)
    layout = Layout(nl, TECH, num_rows=NUM_ROWS, sites_per_row=SITES_PER_ROW)
    for k in range(pre_placed):
        name = f"fix{k}"
        nl.add_instance(name, "DFF_X1")
        width = nl.instance(name).width_sites
        row = k % NUM_ROWS
        start = (k // NUM_ROWS) * (width + 2)
        if layout.occupancy[row].can_place(start, width):
            layout.place(name, row, start)
            layout.fixed.add(name)
    wanted = {}
    for k, (x, y, master) in enumerate(targets):
        name = f"m{k}"
        nl.add_instance(name, master)
        wanted[name] = Point(x, y)
    return layout, wanted


def _assert_legal(layout):
    """No overlaps, aligned to rows/sites, inside the core."""
    seen = [[] for _ in range(layout.num_rows)]
    for name, placement in layout.placements.items():
        width = layout.netlist.instance(name).width_sites
        assert 0 <= placement.row < layout.num_rows
        assert isinstance(placement.start, int)
        assert 0 <= placement.start
        assert placement.start + width <= layout.sites_per_row
        seen[placement.row].append((placement.start, placement.start + width))
    for intervals in seen:
        intervals.sort()
        for (_, prev_hi), (lo, _) in zip(intervals, intervals[1:]):
            assert lo >= prev_hi, "overlapping placements in one row"


@settings(max_examples=40, deadline=None)
@given(targets_strategy)
def test_legalize_no_overlap_and_aligned(targets):
    layout, wanted = _build(targets)
    result = legalize(layout, wanted)
    assert set(result) == set(wanted)
    assert set(wanted) <= set(layout.placements)
    _assert_legal(layout)


@settings(max_examples=40, deadline=None)
@given(targets_strategy, st.integers(1, 8))
def test_legalize_respects_fixed_obstacles(targets, pre_placed):
    layout, wanted = _build(targets, pre_placed=pre_placed)
    before = {
        name: layout.placements[name] for name in layout.fixed
    }
    legalize(layout, wanted)
    _assert_legal(layout)
    for name, placement in before.items():
        assert layout.placements[name] == placement, (
            f"legalize moved fixed cell {name!r}"
        )
