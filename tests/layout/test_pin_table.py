"""The pin table and the layout's position lists against the object path.

:meth:`Layout.net_pin_points` and :func:`connected_median` gather cell
centres from flat lists that every placement mutation keeps in step with
``_placements``.  These tests drive random mutation sequences, netlist
growth (fillers, implants) and netlist rebinding, and require after each
step that ``validate()`` passes and that both reads equal the object-path
oracle in ``tests/oracles/pin_geometry.py`` with float ``==``.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generators import GeneratorParams, generate_design
from repro.errors import LayoutError
from repro.geometry import Point
from repro.layout.layout import Layout
from repro.layout.pins import pin_table
from repro.netlist.netlist import Netlist, PortDirection
from repro.place.eco_place import _Medians, connected_median
from repro.place.fillers import insert_fillers
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.security.assets import annotate_key_assets
from repro.security.trojan import attempt_insertion, materialize_implant
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like

from tests.oracles import pin_geometry as oracle

SEEDS = (7, 19)
OPS = ("place", "unplace", "move_in_row", "move_to", "clone")


@functools.lru_cache(maxsize=None)
def _base(seed: int) -> Layout:
    """A small generated design, globally placed (never mutated)."""
    params = GeneratorParams(
        n_state=8, n_key=6, cone_inputs=3, cone_depth=2,
        n_inputs=6, n_outputs=6, seed=seed,
    )
    netlist = generate_design(f"pins{seed}", nangate45_library(), params)
    assets = annotate_key_assets(netlist)
    return global_place(
        netlist,
        nangate45_like(num_layers=10),
        GlobalPlacementSpec(
            target_utilization=0.6, seed=seed, clustered=tuple(assets)
        ),
    )


def _same(fast, slow, same_message: bool) -> None:
    """Both calls return equal values, or both raise ``LayoutError``."""
    try:
        expected = slow()
    except LayoutError as exc:
        with pytest.raises(LayoutError) as got:
            fast()
        if same_message:
            assert str(got.value) == str(exc)
        return
    assert fast() == expected


def assert_matches_oracle(layout: Layout) -> None:
    layout.validate()
    for net in layout.netlist.nets:
        _same(
            lambda: layout.net_pin_points(net.name),
            lambda: oracle.net_pin_points(layout, net.name),
            same_message=True,
        )
    for inst in layout.netlist.instances:
        # The oracle walks a set of nets, so with several unplaced pins
        # it may name another one of them first.
        _same(
            lambda: connected_median(layout, inst.name),
            lambda: oracle.connected_median(layout, inst.name),
            same_message=False,
        )


def _free_start(layout: Layout, row: int, width: int, data) -> int:
    """A drawn start of a free ``width``-site window in ``row``."""
    gaps = [g for g in layout.occupancy[row].free_intervals() if len(g) >= width]
    if not gaps:
        return data.draw(
            st.integers(0, layout.sites_per_row - width), label="start"
        )
    gap = data.draw(st.sampled_from(gaps), label="gap")
    return data.draw(st.integers(gap.lo, gap.hi - width), label="start")


def _step(layout: Layout, data, names) -> Layout:
    """One drawn mutation; a refused one must leave the layout as it was."""
    op = data.draw(st.sampled_from(OPS), label="op")
    if op == "clone":
        return layout.clone()
    name = data.draw(st.sampled_from(names), label="instance")
    width = layout.netlist.instance(name).width_sites
    try:
        if op == "unplace":
            layout.unplace(name)
        elif op == "move_in_row":
            row = layout.placement(name).row
            layout.move_in_row(name, _free_start(layout, row, width, data))
        else:
            row = data.draw(st.integers(0, layout.num_rows - 1), label="row")
            start = _free_start(layout, row, width, data)
            if op == "place":
                layout.place(name, row, start)
            else:
                layout.move_to(name, row, start)
    except LayoutError:
        pass
    return layout


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from(SEEDS), data=st.data())
def test_random_mutations_keep_slots_and_reads_equal(seed, data):
    layout = _base(seed).clone()
    names = layout.netlist.instance_names()
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        layout = _step(layout, data, names)
        assert_matches_oracle(layout)


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from(SEEDS), data=st.data())
def test_pass_medians_follow_the_moves_they_are_told_of(seed, data):
    """One ECO pass's median memo against the oracle across cell moves.

    The memo keeps each net's sorted pin coordinates until it is told
    that a cell on the net moved; after every move, every cell's median
    must equal the oracle's on the layout as it is.
    """
    layout = _base(seed).clone()
    names = layout.netlist.instance_names()
    medians = _Medians(layout)
    for name in names:
        assert medians.of(name) == oracle.connected_median(layout, name)
    for _ in range(data.draw(st.integers(1, 12), label="moves")):
        name = data.draw(st.sampled_from(names), label="instance")
        width = layout.netlist.instance(name).width_sites
        row = data.draw(st.integers(0, layout.num_rows - 1), label="row")
        try:
            layout.move_to(name, row, _free_start(layout, row, width, data))
        except LayoutError:
            continue
        medians.moved(name)
        for other in names:
            assert medians.of(other) == oracle.connected_median(layout, other)


def test_benchmark_design_matches_oracle(present_design):
    assert_matches_oracle(present_design.layout)


def test_fillers_grow_the_slots(misty_design):
    layout = misty_design.layout.clone()
    layout.netlist = misty_design.netlist.copy()
    before = len(pin_table(layout.netlist).names)
    assert insert_fillers(layout).cells_added > 0
    assert len(pin_table(layout.netlist).names) > before
    assert_matches_oracle(layout)


def test_implant_grows_the_slots(present_design):
    d = present_design
    report = attempt_insertion(d.layout, d.sta, d.assets)
    assert report.success
    implanted = materialize_implant(d.layout, report)
    assert implanted.netlist.num_instances > d.netlist.num_instances
    assert_matches_oracle(implanted)


def test_rebinding_the_netlist_rekeys_the_slots(present_design):
    layout = present_design.layout.clone()
    netlist = Netlist("reordered", layout.netlist.library)
    for inst in reversed(list(layout.netlist.instances)):
        netlist.add_instance(inst.name, inst.master)
    layout.netlist = netlist
    layout.validate()
    for name in layout.placements:
        assert layout.cell_center(name) == oracle.cell_center(layout, name)


@pytest.fixture()
def shared_net_layout(library, tech):
    """A NAND2 with both inputs on one net, left of its three sinks.

    Net ``a`` (driver ``d``) reaches ``g`` twice; net ``y`` (driver
    ``g``) feeds ``h0``–``h2`` and the output port.  Counting ``a`` once
    puts ``g``'s median x halfway between ``h1`` and ``h2``; counting it
    once per pin of ``g`` would move it onto ``h2``.
    """
    nl = Netlist("shared", library)
    nl.add_port("in", PortDirection.INPUT)
    nl.add_port("out", PortDirection.OUTPUT)
    for net in ("in", "a", "y", "z0", "z1", "z2"):
        nl.add_net(net)
    nl.connect_port("in", "in")
    nl.add_instance("d", "INV_X1")
    nl.connect("d", "A", "in")
    nl.connect("d", "ZN", "a")
    nl.add_instance("g", "NAND2_X1")
    nl.connect("g", "A1", "a")
    nl.connect("g", "A2", "a")
    nl.connect("g", "ZN", "y")
    for k in range(3):
        nl.add_instance(f"h{k}", "INV_X1")
        nl.connect(f"h{k}", "A", "y")
        nl.connect(f"h{k}", "ZN", f"z{k}")
    nl.connect_port("out", "y")
    layout = Layout(nl, tech, num_rows=2, sites_per_row=80)
    layout.place("d", 0, 0)
    layout.place("g", 0, 60)
    for k in range(3):
        layout.place(f"h{k}", 1, 20 + 4 * k)
    layout.port_positions["in"] = Point(0.0, 0.0)
    layout.port_positions["out"] = Point(0.0, 2.8)
    return layout


class TestSharedNet:
    def test_each_net_counts_once(self, shared_net_layout):
        layout = shared_net_layout
        m = connected_median(layout, "g")
        assert m == oracle.connected_median(layout, "g")
        c = layout.cell_center
        assert m.x == (c("h1").x + c("h2").x) / 2.0

    def test_pin_point_order(self, shared_net_layout):
        layout = shared_net_layout
        c = layout.cell_center
        assert layout.net_pin_points("in") == [
            layout.port_positions["in"], c("d")
        ]
        assert layout.net_pin_points("y") == [
            c("g"), c("h0"), c("h1"), c("h2"), layout.port_positions["out"]
        ]
        assert_matches_oracle(layout)

    def test_unplaced_pin_raises_like_the_oracle(self, shared_net_layout):
        layout = shared_net_layout
        layout.unplace("h1")
        with pytest.raises(LayoutError, match="'h1' is not placed"):
            layout.net_pin_points("y")
        with pytest.raises(LayoutError, match="'h1' is not placed"):
            connected_median(layout, "g")
        assert_matches_oracle(layout)
