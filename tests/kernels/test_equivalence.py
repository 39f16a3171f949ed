"""Property tests: each ``repro.kernels`` function == its scalar oracle.

The kernels promise *bitwise* equality with the per-element Python
readings kept in ``tests/oracles/``.  These tests call the production
function and its oracle side by side on generated designs and randomized
inputs and compare every observable output exactly — no tolerances:

* STA: every net's wire R/C (routed, estimated, left at (0, 0) by the
  router, with ports lacking a position and with unplaced pins), setup
  arrival/required times, endpoint slacks, TNS/WNS and per-net loads,
  and hold arrivals and endpoints, at the typical, slow and fast
  corners; the power report from the setup loads;
* exploitable-site scanning: the distance-filtered intervals per row and
  the resulting region sets;
* cell shift: the gap graph grown row by row (below-row component
  weights, exploitable counts and components), and whole re-space runs;
* legalizer start search, the whole window-then-core position search,
  and the ECO receiving-target choice;
* the density map's per-bin used area;
* routing: grid usage and the ratio grid commits keep, shape scores,
  per-net congestion factors, rip-up victim scans, the pair router over
  every candidate tier list, route plans, R/C by plan position, and
  whole router runs on 10-, 6- and 3-layer stacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.designs import build_design
from repro.bench.generators import GeneratorParams, generate_design
from repro.core.cell_shift import (
    CellShiftReport,
    _dp_gap_layout,
    _exploitable_sites,
    _plan_gaps,
    _simulate_plan,
    cell_shift,
)
from repro.core.local_density import asset_density_caps
from repro.errors import LayoutError
from repro.geometry import Point, Rect
from repro.kernels import routegrid as rk
from repro.kernels.exploitable import filtered_row_intervals
from repro.kernels.legalize import (
    best_start_in_row,
    find_spot,
    receiving_target,
)
from repro.kernels.sta import parasitic_arrays, timing_structure
from repro.layout.blockage import PlacementBlockage
from repro.layout.gaps import GapGraph
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist, PortDirection
from repro.place.budget import build_budgets
from repro.place.density import DensityMap
from repro.place.fillers import insert_fillers
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.power.power import analyze_power
from repro.route import router
from repro.route.grid import RoutingGrid
from repro.route.ndr import NonDefaultRule
from repro.route.router import (
    RoutePlan,
    RouteSegment,
    _PairTables,
    _route_pair,
    assign_layer_tier,
    global_route,
)
from repro.security.assets import SecurityAssets, annotate_key_assets
from repro.security.exploitable import (
    exploitable_distance,
    find_exploitable_regions,
)
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like
from repro.timing.constraints import TimingConstraints
from repro.timing.corners import DEFAULT_CORNERS
from repro.timing.sta import run_hold_sta, run_sta

from tests.core.test_cell_shift_property import build_random_layout
from tests.oracles import cell_shift as oracle_cs
from tests.oracles import density as oracle_dm
from tests.oracles import exploitable as oracle_ex
from tests.oracles import gaps as oracle_gaps
from tests.oracles import legalize as oracle_lg
from tests.oracles import power as oracle_pw
from tests.oracles import routegrid as oracle_rg
from tests.oracles import router as oracle_rt
from tests.oracles import sta as oracle_sta

#: Independent generator seeds, matching the operator-memo test's designs.
DESIGN_SEEDS = (7, 19, 31)

THRESH_ER = 5
CLOCK_PERIOD = 0.9

#: Core of the standalone grids: ~22 × 21 gcells, so candidate pieces
#: run from one gcell to the whole grid.
GRID_CORE = Rect(0.0, 0.0, 100.0, 90.0)

_FIXTURE_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _build(seed: int, num_layers: int = 10):
    library = nangate45_library()
    tech = nangate45_like(num_layers=num_layers)
    params = GeneratorParams(
        n_state=12, n_key=8, cone_inputs=3, cone_depth=3,
        n_inputs=8, n_outputs=8, seed=seed,
    )
    netlist = generate_design(f"kern{seed}", library, params)
    assets = annotate_key_assets(netlist)
    layout = global_place(
        netlist,
        tech,
        GlobalPlacementSpec(
            target_utilization=0.6, seed=seed, clustered=tuple(assets)
        ),
    )
    return {
        "netlist": netlist,
        "tech": tech,
        "layout": layout,
        "assets": assets,
        "constraints": TimingConstraints(clock_period=CLOCK_PERIOD),
    }


@pytest.fixture(scope="module", params=DESIGN_SEEDS)
def design(request):
    return _build(request.param)


@pytest.fixture(scope="module")
def routed(design):
    return global_route(design["layout"])


@pytest.fixture(scope="module")
def one_design():
    """One design carrying a deterministic mix of soft/hard blockages.

    ``build_budgets`` only sees blockages registered on the layout (the
    LDA stage normally adds them), so the fixture plants a grid of its
    own: soft density caps for the receiving-target/headroom paths plus a
    couple of hard keep-outs for the forbidden-start masking.
    """
    d = _build(DESIGN_SEEDS[0])
    layout = d["layout"]
    core = layout.core
    w = (core.xhi - core.xlo) / 4.0
    h = (core.yhi - core.ylo) / 3.0
    idx = 0
    for i in range(4):
        for j in range(3):
            density = 0.0 if (i + j) % 4 == 0 else 0.5 + 0.1 * ((i + j) % 3)
            layout.add_blockage(
                PlacementBlockage(
                    name=f"kernblk{idx}",
                    rect=Rect(
                        core.xlo + i * w,
                        core.ylo + j * h,
                        core.xlo + (i + 1) * w,
                        core.ylo + (j + 1) * h,
                    ),
                    max_density=density,
                )
            )
            idx += 1
    return d


#: Nets :func:`_with_degenerate_nets` adds to a plan.
COINCIDENT_NET = "~coincident"
TWICE_NET = "~twice"


def _with_degenerate_nets(plan: RoutePlan) -> RoutePlan:
    """``plan`` with two nets routed before the others.

    :data:`COINCIDENT_NET` has two pin pairs whose pins coincide, so it
    routes no segment.  :data:`TWICE_NET` repeats one pin pair whose pins
    sit in one gcell row far apart, so its cells cross bins twice: the
    second pair repeats the first's row on the same tier, and the
    pair's first Z-shape crosses its middle column twice.
    """
    core = plan.layout.core
    x1 = core.xlo + 0.1 * core.width
    x2 = core.xlo + 0.9 * core.width
    y = core.ylo + 0.5 * core.height
    extra = np.array([
        (x1, y, x1, y),
        (x1, y, x1, y),
        (x1, y, x2, y + 1e-6),
        (x1, y, x2, y + 1e-6),
    ])
    return RoutePlan(
        plan.layout,
        [COINCIDENT_NET, TWICE_NET, *plan.nets],
        bytes([0, 0]) + plan.base_tiers,
        np.concatenate([extra, plan.pairs]),
        np.concatenate([[0, 2], plan.offsets + 4]),
    )


@pytest.fixture(scope="module")
def one_plan(one_design):
    """The design's route plan with the degenerate nets in front."""
    return _with_degenerate_nets(RoutePlan.build(one_design["layout"]))


@pytest.fixture(scope="module")
def one_initial(one_design, one_plan):
    """A route after its initial pass, and the nets' routes read from it.

    The twice-routed net must really cross a bin twice.
    """
    layout = one_design["layout"]
    ndr = NonDefaultRule.default(layout.technology.num_layers)
    route = router._Route(RoutingGrid(layout.technology, layout.core), ndr, one_plan)
    route.initial()
    routes = route.result().routes
    assert routes[COINCIDENT_NET].segments == []
    cells = [(s.layer, c) for s in routes[TWICE_NET].segments for c in s.gcells]
    assert len(set(cells)) < len(cells)
    return route, routes


@pytest.fixture(scope="module")
def filler_layout():
    """Rows mixing free gaps and filler spans (fillers count as exploitable).

    Every gap is filled, then every third filler is removed again.
    """
    layout = _build(DESIGN_SEEDS[1])["layout"]
    before = set(layout.placements)
    insert_fillers(layout)
    fillers = sorted(set(layout.placements) - before)
    for name in fillers[::3]:
        layout.unplace(name)
    return layout


def _sta_key(sta):
    return (
        sorted(sta.arrival.items()),
        sorted(sta.required.items()),
        sorted((e.kind, e.name, e.arrival, e.required) for e in sta.endpoints),
        sta.tns,
        sta.wns,
        sta.load.tolist(),
    )


def _region_key(regions):
    """Every region in order: its gaps in order, free tracks and sites."""
    return [
        (
            [(g.row, g.lo, g.hi) for g in r.component.gaps],
            r.free_tracks,
            r.num_sites,
        )
        for r in regions
    ]


def _segs_key(segments):
    return [(s.layer, list(s.gcells), s.length_um, s.demand) for s in segments]


def _rng(data) -> np.random.Generator:
    seed = data.draw(st.integers(0, 2**32 - 1), label="rng_seed")
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------- #
# STA
# ---------------------------------------------------------------------- #


#: The default corners by name.
CORNERS = {c.name: c for c in DEFAULT_CORNERS}


def _outcome(fn, *args):
    """``fn(*args)`` as lists, or the ``LayoutError`` text it raises."""
    try:
        r, c = fn(*args)
    except LayoutError as exc:
        return ("LayoutError", str(exc))
    return (list(r), list(c))


def _parasitics_equal(layout, routing=None, corner="typical"):
    """Every net's R/C == the per-net oracle's, bitwise, or the same error."""
    derate = CORNERS[corner].wire_derate
    s = timing_structure(layout.netlist)
    kernel = _outcome(parasitic_arrays, s, layout, routing, derate)
    oracle = _outcome(oracle_sta.parasitic_lists, layout, routing, derate)
    assert kernel == oracle
    return kernel


def _timing_equal(layout, constraints, routing=None, corner="typical"):
    """Parasitics, setup, hold and power == their oracles, bitwise.

    Hold is compared with ``==`` (endpoint order included) and its loads
    apart, since ``STAResult`` leaves ``load`` out of ``==``.  Power reads
    the setup result at the typical corner, as the flow does.
    """
    _parasitics_equal(layout, routing, corner)
    c = CORNERS[corner]
    setup = run_sta(layout, constraints, routing=routing, corner=c)
    oracle = oracle_sta._run_sta(layout, constraints, routing=routing, corner=c)
    assert _sta_key(setup) == _sta_key(oracle)
    hold = run_hold_sta(layout, constraints, routing=routing, corner=c)
    oracle = oracle_sta._run_hold_sta(
        layout, constraints, routing=routing, corner=c
    )
    assert hold == oracle
    assert hold.load.tolist() == oracle.load.tolist()
    if corner == "typical":
        power = analyze_power(layout, constraints, setup)
        assert power == oracle_pw.analyze_power(layout, constraints, routing)


def test_sta_estimate_path_bitwise_equal(design):
    _timing_equal(design["layout"], design["constraints"])


def test_sta_routed_path_bitwise_equal(design, routed):
    _timing_equal(design["layout"], design["constraints"], routing=routed)


@pytest.mark.parametrize("corner", ["slow", "fast"])
def test_sta_corner_bitwise_equal(design, routed, corner):
    for routing in (None, routed):
        _timing_equal(design["layout"], design["constraints"], routing, corner)


@pytest.mark.parametrize("name", ["PRESENT", "MISTY"])
def test_sta_benchmark_bitwise_equal(name):
    """Benchmark designs, estimated and routed, at every corner."""
    d = build_design(name)
    for routing in (None, d.routing):
        for corner in CORNERS:
            _timing_equal(d.layout, d.constraints, routing, corner)


def test_parasitics_congested_route_equal(one_design):
    """A triple-width route: congestion factors above 1.0 scale R and C."""
    layout = one_design["layout"]
    tech = layout.technology
    routing = global_route(
        layout, ndr=NonDefaultRule(scales=(3.0,) * tech.num_layers)
    )
    assert max(routing.congestion_factor(n) for n in routing.plan.nets) > 1.0
    for corner in CORNERS:
        _parasitics_equal(layout, routing, corner)


def test_parasitics_coincident_net_equal(design):
    """A net the router leaves at (0, 0) takes its HPWL estimate.

    The plan collapses one real net's pin pairs onto its first pin, so
    the route commits no segment for it, while its pins stay apart.
    """
    layout = design["layout"]
    plan = RoutePlan.build(layout)
    i = len(plan.nets) - 1  # the longest net
    lo, hi = plan.offsets[i], plan.offsets[i + 1]
    pairs = plan.pairs.copy()
    pairs[lo:hi] = np.tile(pairs[lo, :2], 2)
    plan = RoutePlan(layout, plan.nets, plan.base_tiers, pairs, plan.offsets)
    routing = global_route(layout, plan=plan)
    name = plan.nets[i]
    assert routing.routes[name].segments == []
    k = list(timing_structure(layout.netlist).names).index(name)
    r, c = _parasitics_equal(layout, routing)
    assert r[k] > 0.0 and c[k] > 0.0
    _timing_equal(layout, design["constraints"], routing)


def test_parasitics_port_without_position_equal(design, routed):
    """Ports without a position are left out of their nets' estimates."""
    layout = _without_some_ports(design["layout"])
    for routing in (None, routed):
        _timing_equal(layout, design["constraints"], routing)


def test_parasitics_unplaced_pin_raises_equal(design, routed):
    """An unplaced pin instance raises the oracle's ``LayoutError``.

    Estimated, the first net in netlist order with an unplaced pin names
    its first such pin; routed, only the nets the router did not route
    are read, so the same cells may raise nothing.
    """
    layout = design["layout"].clone()
    names = [n for n in layout.placements if n not in layout.fixed]
    for name in (names[len(names) // 2], names[len(names) // 3]):
        layout.unplace(name)
    kind, _ = _parasitics_equal(layout)
    assert kind == "LayoutError"
    _parasitics_equal(layout, routed)


def test_sta_with_fillers_bitwise_equal(filler_layout):
    """Fillers are instances without pins: leakage only, never timed."""
    constraints = TimingConstraints(clock_period=CLOCK_PERIOD)
    _timing_equal(filler_layout, constraints)
    _timing_equal(filler_layout, constraints, routing=global_route(filler_layout))


def _place(netlist):
    return global_place(
        netlist,
        nangate45_like(num_layers=10),
        GlobalPlacementSpec(target_utilization=0.5, seed=1),
    )


def _tapped_chain():
    """Endpoint nets that also fan out, which generated designs lack.

    ``n0`` drives the output port ``tap`` and the rest of an inverter
    chain; ``n1`` feeds a flip-flop D pin and the chain.  Their required
    times are the min of an endpoint seed and the fanout-derived value.
    """
    nl = Netlist("tapped", nangate45_library())
    for net in ("clk", "in", "n0", "n1", "n2", "out", "q0", "n9"):
        nl.add_net(net)
    nl.add_port("clk", PortDirection.INPUT, is_clock=True)
    nl.connect_port("clk", "clk")
    nl.add_port("in", PortDirection.INPUT)
    nl.connect_port("in", "in")
    for inst, a, zn in (
        ("inv0", "in", "n0"),
        ("inv1", "n0", "n1"),
        ("inv2", "n1", "n2"),
        ("inv3", "n2", "out"),
        ("inv4", "q0", "n9"),
    ):
        nl.add_instance(inst, "INV_X1")
        nl.connect(inst, "A", a)
        nl.connect(inst, "ZN", zn)
    nl.add_instance("ff0", "DFF_X1")
    for pin, net in (("D", "n1"), ("CK", "clk"), ("Q", "q0")):
        nl.connect("ff0", pin, net)
    for port, net in (("tap", "n0"), ("out", "out"), ("out2", "n9")):
        nl.add_port(port, PortDirection.OUTPUT)
        nl.connect_port(port, net)
    nl.validate()
    return nl


@pytest.mark.parametrize("output_delay", [0.0, 0.85])
def test_sta_seeded_fanout_nets_equal(output_delay):
    """Required = min(endpoint seed, fanout), whichever side binds.

    The netlist then grows one more stage: the kernel's per-netlist graph
    cache must follow the edit.
    """
    netlist = _tapped_chain()
    constraints = TimingConstraints(
        clock_period=CLOCK_PERIOD, output_delay=output_delay, ff_setup=0.3
    )
    for grow in (False, True):
        if grow:
            netlist.add_instance("inv_tail", "INV_X1")
            netlist.add_net("tail")
            netlist.connect("inv_tail", "A", "n9")
            netlist.connect("inv_tail", "ZN", "tail")
            netlist.add_port("out3", PortDirection.OUTPUT)
            netlist.connect_port("out3", "tail")
        _timing_equal(_place(netlist), constraints)


def test_sta_sinkless_net_bitwise_equal():
    """A gate output with no sinks: timed, left out of power."""
    netlist = _tapped_chain()
    netlist.add_instance("inv_open", "INV_X1")
    netlist.add_net("open")
    netlist.connect("inv_open", "A", "n2")
    netlist.connect("inv_open", "ZN", "open")
    assert netlist.net("open").num_sinks == 0
    layout = _place(netlist)
    constraints = TimingConstraints(clock_period=CLOCK_PERIOD)
    assert "open" in run_sta(layout, constraints).arrival
    _timing_equal(layout, constraints)
    _timing_equal(layout, constraints, routing=global_route(layout))


# ---------------------------------------------------------------------- #
# exploitable-site scanning
# ---------------------------------------------------------------------- #


def test_exploitable_report_equal(design, routed):
    layout = design["layout"]
    sta = run_sta(layout, design["constraints"])
    kernel = find_exploitable_regions(
        layout, sta, design["assets"], thresh_er=THRESH_ER, routing=routed
    )
    distances = {
        name: exploitable_distance(layout, sta, name)
        for name in design["assets"]
    }
    rects = [
        (layout.cell_rect(name), distances[name])
        for name in design["assets"]
        if layout.is_placed(name)
    ]
    filtered = [
        oracle_ex._filtered_row_intervals(layout, rects, row)
        for row in range(layout.num_rows)
    ]
    oracle = oracle_ex._regions_from_filtered(
        filtered, THRESH_ER, layout, routed
    )
    assert _region_key(oracle) == _region_key(kernel.regions)
    assert distances == kernel.distances


@settings(max_examples=40, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_filtered_row_intervals_equal(one_design, filler_layout, data):
    """Random (rect, distance) asset lists filter identically per row.

    Some assets reach the row exactly (distance == vertical gap), the
    boundary where the reach is still a non-empty run.
    """
    layout = data.draw(
        st.sampled_from([one_design["layout"], filler_layout]),
        label="layout",
    )
    t = layout.technology
    core_w = layout.sites_per_row * t.site_width
    core_h = layout.num_rows * t.row_height
    row = data.draw(
        st.integers(min_value=0, max_value=layout.num_rows - 1), label="row"
    )
    row_ylo = row * t.row_height
    row_yhi = row_ylo + t.row_height
    n = data.draw(st.integers(min_value=0, max_value=4), label="n_assets")
    rects = []
    for i in range(n):
        x = data.draw(
            st.floats(0.0, core_w, allow_nan=False), label=f"x{i}"
        )
        y = data.draw(
            st.floats(0.0, core_h, allow_nan=False), label=f"y{i}"
        )
        w = data.draw(st.floats(0.1, 10.0, allow_nan=False), label=f"w{i}")
        h = data.draw(st.floats(0.1, 5.0, allow_nan=False), label=f"h{i}")
        rect = Rect(x, y, x + w, y + h)
        dy = max(0.0, rect.ylo - row_yhi, row_ylo - rect.yhi)
        if dy > 0 and data.draw(st.booleans(), label=f"exact{i}"):
            dist = dy
        else:
            dist = data.draw(
                st.floats(-1.0, 30.0, allow_nan=False), label=f"d{i}"
            )
        rects.append((rect, dist))
    layout = layout.clone()
    for edit in range(2):
        if edit:
            # Free one cell of the row: the scan must read its new free bits.
            cells = [p.name for p in layout.occupancy[row]]
            if not cells:
                break
            layout.unplace(
                cells[data.draw(st.integers(0, len(cells) - 1), label="cut")]
            )
        oracle = oracle_ex._filtered_row_intervals(layout, rects, row)
        kernel = filtered_row_intervals(layout, rects, row)
        assert [(iv.lo, iv.hi) for iv in oracle] == [
            (iv.lo, iv.hi) for iv in kernel
        ]


# ---------------------------------------------------------------------- #
# cell-shift below-row weights
# ---------------------------------------------------------------------- #


def test_incremental_below_equal(design):
    """Grown one row at a time, the gap graph matches a batch rebuild.

    After every row, against the oracle's batch graph of the rows so far:
    the last row's gaps and component weights, and at every threshold the
    exploitable sites and count and the exploitable components, in order,
    with their gaps in order.  An empty row follows every third row.
    """
    layout = design["layout"]
    rows = []
    for r, occ in enumerate(layout.occupancy):
        rows.append([(iv.lo, iv.hi) for iv in occ.free_intervals()])
        if r % 3 == 1:
            rows.append([])
    graph = GapGraph()
    assert graph.last_row() == ([], [], [])
    top = max(
        c.weight
        for c in oracle_gaps.GapGraph.from_free_intervals(
            layout.free_intervals_per_row()
        ).components()
    )
    for r, gaps in enumerate(rows):
        graph.add_row(gaps)
        oracle = oracle_gaps.GapGraph([
            [oracle_gaps.Gap(k, lo, hi) for lo, hi in row]
            for k, row in enumerate(rows[: r + 1])
        ])
        assert list(zip(*graph.last_row())) == [
            (g.lo, g.hi, oracle.component_weight_of(g))
            for g in oracle.row_gaps(r)
        ], f"row {r}"
        for thresh in (1, THRESH_ER, 20, top, top + 1):
            components = oracle.exploitable_components(thresh)
            assert graph.exploitable(thresh) == (
                sum(c.weight for c in components), len(components)
            ), f"row {r}, thresh {thresh}"
            assert [
                [(g.row, g.lo, g.hi) for g in c.gaps]
                for c in graph.exploitable_components(thresh)
            ] == [
                [(g.row, g.lo, g.hi) for g in c.gaps] for c in components
            ], f"row {r}, thresh {thresh}"


# ---------------------------------------------------------------------- #
# cell-shift gap planner
# ---------------------------------------------------------------------- #


@st.composite
def _planner_case(draw):
    """One segment, the below gaps it plans over, its cells and budgets."""
    p_lo = draw(st.integers(0, 12), label="p_lo")
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=12),
                  label="widths")
    p_hi = p_lo + sum(widths) + draw(st.integers(0, 40), label="free")
    # Sorted, disjoint below gaps from paired cut points; the segment's
    # own edges may be cut points, so gaps can start or end on them.
    cuts = set(draw(st.lists(st.integers(0, p_hi + 6), max_size=30),
                    label="cuts"))
    if draw(st.booleans(), label="edge_lo"):
        cuts.add(p_lo)
    if draw(st.booleans(), label="edge_hi"):
        cuts.add(p_hi)
    cuts = sorted(cuts)
    below = [
        (lo, hi, hi - lo + draw(st.integers(0, 25), label=f"extra{k}"))
        for k, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2]))
    ]
    quota = draw(st.integers(1, 19), label="quota")
    gap_cap = draw(st.sampled_from([None, (quota + 1) // 2]), label="gap_cap")
    proposed = draw(
        st.one_of(st.none(), st.lists(st.integers(0, quota + 2),
                                      min_size=len(widths),
                                      max_size=len(widths))),
        label="proposed",
    )
    return p_lo, p_hi, widths, below, quota, gap_cap, proposed


def _weights(below):
    return [(b.lo, b.hi, b.weight) for b in below]


def _below(gaps):
    """Production's below lists for ``(lo, hi, weight)`` gaps."""
    return ([lo for lo, _, _ in gaps], [hi for _, hi, _ in gaps],
            [w for _, _, w in gaps])


@settings(max_examples=300, deadline=None)
@given(_planner_case())
# The eager plan strands a site that the DP's plan places.
@example((2, 7, [1, 1], [(3, 6, 7)], 9, None, None))
def test_gap_planner_equal(case):
    """The planner against the oracle's copy of it, call by call.

    Each call gets its own copy of the below gaps; the plan, the leftover
    and every below weight afterwards must be equal.
    """
    p_lo, p_hi, widths, below, quota, gap_cap, proposed = case

    def oracle_gaps():
        return [oracle_cs._BelowGap(lo, hi, w) for lo, hi, w in below]

    kernel, oracle = _below(below), oracle_gaps()
    assert _simulate_plan(
        p_lo, p_hi, list(widths), proposed, kernel, quota, gap_cap
    ) == oracle_cs._simulate_plan(
        p_lo, p_hi, list(widths), proposed, oracle, quota, gap_cap
    )
    assert list(zip(*kernel)) == _weights(oracle)

    assert _dp_gap_layout(
        p_lo, p_hi, list(widths), _below(below), quota, gap_cap
    ) == oracle_cs._dp_gap_layout(
        p_lo, p_hi, list(widths), oracle_gaps(), quota, gap_cap
    )

    kernel, oracle = _below(below), oracle_gaps()
    assert _plan_gaps(
        p_lo, p_hi, list(widths), kernel, quota, gap_cap
    ) == oracle_cs._plan_gaps(
        p_lo, p_hi, list(widths), oracle, quota, gap_cap
    )
    assert list(zip(*kernel)) == _weights(oracle)


# ---------------------------------------------------------------------- #
# cell shift
# ---------------------------------------------------------------------- #

CS_MASTERS = ("INV_X1", "NAND2_X1", "BUF_X1", "DFF_X1")


def _rows_key(layout: Layout):
    return [[(p.name, p.start, p.width) for p in occ] for occ in layout.occupancy]


def _cell_shift_is_oracle(layout: Layout, thresh: int, assets=None, distances=None):
    """CS and its oracle leave ``layout``'s clones equal; returns the report.

    Equal means the placement map in the same order, every row's cells,
    and every report field.
    """
    kernel, oracle = layout.clone(), layout.clone()
    report = cell_shift(kernel, thresh_er=thresh, assets=assets, distances=distances)
    expected = oracle_cs.cell_shift(
        oracle, thresh, assets=assets, distances=distances
    )
    kernel.validate()
    assert report == expected
    assert list(kernel.placements.items()) == list(oracle.placements.items())
    assert _rows_key(kernel) == _rows_key(oracle)
    assert report.regions_after == len(
        kernel.gap_graph().exploitable_components(thresh)
    )
    return report


def _thresholds(layout: Layout):
    """1, 20 and one above every gap-graph component."""
    top = max((c.weight for c in layout.gap_graph().components()), default=0)
    return (1, 20, top + 1)


@pytest.mark.parametrize("distance_aware", [False, True])
def test_cell_shift_equal(design, distance_aware):
    """On the generated designs, and with a fixed cell splitting each row."""
    layout = design["layout"]
    assets = distances = None
    if distance_aware:
        sta = run_sta(layout, design["constraints"])
        assets = design["assets"]
        distances = {
            name: exploitable_distance(layout, sta, name) for name in assets
        }
    split = layout.clone()
    for occ in split.occupancy:
        split.fixed.add(occ.placements[len(occ) // 2].name)
    moved = 0
    for base in (layout, split):
        for thresh in _thresholds(base):
            moved += _cell_shift_is_oracle(base, thresh, assets, distances).moves
    assert moved > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cell_shift_random_equal(data):
    num_rows = data.draw(st.integers(1, 6), label="rows")
    sites = data.draw(st.integers(8, 60), label="sites")
    cells = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_rows - 1),
                st.integers(0, sites - 1),
                st.sampled_from(CS_MASTERS),
            ),
            max_size=40,
        ),
        label="cells",
    )
    layout = build_random_layout(num_rows, sites, cells)
    placed = sorted(layout.placements)
    assets = distances = None
    if placed:
        layout.fixed.update(
            data.draw(st.lists(st.sampled_from(placed), max_size=3), label="fixed")
        )
        if data.draw(st.booleans(), label="distance_aware"):
            names = data.draw(
                st.lists(st.sampled_from(placed), min_size=1, max_size=3, unique=True),
                label="assets",
            )
            assets = SecurityAssets(tuple(names))
            distances = {
                name: data.draw(st.floats(0.0, 10.0), label=f"distance {name}")
                for name in names
            }
    thresh = data.draw(st.integers(2, 30), label="thresh")
    for t in (*_thresholds(layout), thresh):
        _cell_shift_is_oracle(layout, t, assets, distances)


class TestCellShiftCases:
    """Named layouts for the candidate choice and the pass loop."""

    def test_untouched_layout_wins(self):
        # Every policy lowers the exploitable sites here, but the
        # distance-aware score rates each result worse than no move.
        layout = build_random_layout(2, 35, [
            (0, 2, "INV_X1"), (1, 22, "DFF_X1"), (0, 15, "INV_X1"),
            (1, 10, "INV_X1"), (0, 20, "DFF_X1"), (1, 16, "INV_X1"),
            (1, 18, "BUF_X1"),
        ])
        assets = SecurityAssets(("c4",))
        report = _cell_shift_is_oracle(layout, 13, assets, {"c4": 0.66})
        assert report.moves == 0
        assert report.regions_after == report.regions_before == 1
        assert _cell_shift_is_oracle(layout, 13).moves > 0

    def test_first_pass_that_does_not_improve(self):
        # "alternate" cannot lower the exploitable sites in one pass;
        # "forward" can.
        layout = build_random_layout(4, 33, [
            (3, 2, "DFF_X1"), (1, 23, "BUF_X1"), (0, 28, "INV_X1"),
            (1, 10, "NAND2_X1"),
        ])
        before = _exploitable_sites(layout, 3)
        for mode, improves in (("alternate", False), ("forward", True)):
            trial = layout.clone()
            oracle_cs._respace_pass(trial, 3, CellShiftReport(), mode)
            assert (_exploitable_sites(trial, 3) < before) is improves, mode
        assert _cell_shift_is_oracle(layout, 3).moves > 0

    def test_fixed_cell_splits_a_row(self):
        layout = build_random_layout(3, 40, [
            (0, 3, "INV_X1"), (0, 18, "DFF_X1"), (0, 33, "BUF_X1"),
            (1, 0, "NAND2_X1"), (1, 20, "INV_X1"), (2, 25, "DFF_X1"),
        ])
        layout.fixed.add("c1")
        report = _cell_shift_is_oracle(layout, 6)
        assert report.moves > 0


# ---------------------------------------------------------------------- #
# legalizer start search + receiving target
# ---------------------------------------------------------------------- #


def _commit_random(budgets, layout, data, i: int) -> None:
    """Move some budget counters through the set (as the legalizer does)."""
    row = data.draw(
        st.integers(0, layout.num_rows - 1), label=f"commit_row{i}"
    )
    start = data.draw(
        st.integers(0, layout.sites_per_row - 1), label=f"commit_start{i}"
    )
    width = data.draw(st.integers(1, 12), label=f"commit_width{i}")
    if data.draw(st.booleans(), label=f"release{i}"):
        budgets.release(row, start, width)
    else:
        budgets.commit(row, start, width)


@settings(max_examples=60, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_best_start_in_row_equal(one_design, data):
    """Repeated queries while the row and the budget counters change.

    As in the legalizer, a cell is placed at the chosen start and the
    placement is committed to the budgets; the same (row, width) is asked
    again after each of the two edits, so a stale cached answer would
    show.
    """
    layout = one_design["layout"].clone()
    budgets = build_budgets(layout)
    spare = [
        i.name
        for i in one_design["netlist"].instances
        if not i.is_sequential and layout.is_placed(i.name)
    ]
    cell_widths = sorted(
        {layout.netlist.instance(n).width_sites for n in spare}
    )
    n_queries = data.draw(st.integers(1, 6), label="queries")
    for i in range(n_queries):
        row = data.draw(
            st.integers(min_value=0, max_value=layout.num_rows - 1),
            label=f"row{i}",
        )
        target = data.draw(
            st.integers(min_value=-5, max_value=layout.sites_per_row + 5),
            label=f"target{i}",
        )
        width = data.draw(
            st.one_of(
                st.sampled_from(cell_widths),
                st.integers(min_value=1, max_value=30),
            ),
            label=f"width{i}",
        )
        start = None
        for edit in (None, "place", "commit"):
            if edit == "place":
                movers = [
                    n for n in spare
                    if layout.netlist.instance(n).width_sites == width
                    and layout.is_placed(n)
                ]
                if not movers:
                    break
                layout.unplace(movers[0])
                layout.place(movers[0], row, start)
            elif edit == "commit":
                budgets.commit(row, start, width)
            oracle = oracle_lg._best_start_in_row(
                layout, budgets, row, target, width
            )
            kernel = best_start_in_row(layout, budgets, row, target, width)
            assert oracle == kernel
            if kernel is None:
                break
            start = kernel
        _commit_random(budgets, layout, data, i)


def test_best_start_in_row_every_target_equal(one_design):
    """Every target of every row: covers equidistant ties."""
    layout = one_design["layout"]
    budgets = build_budgets(layout)
    for width in (1, 2, 3, 5, 8):
        for row in range(layout.num_rows):
            for target in range(-2, layout.sites_per_row + 2):
                assert oracle_lg._best_start_in_row(
                    layout, budgets, row, target, width
                ) == best_start_in_row(layout, budgets, row, target, width)


@st.composite
def _budgeted_rows(draw):
    """A few rows, cells where they fit, and blockages over site runs.

    A blockage is ``(first_row, rows, lo, sites, max_density)``.
    """
    num_rows = draw(st.integers(1, 3), label="rows")
    sites = draw(st.integers(4, 40), label="sites")
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_rows - 1),
                st.integers(0, sites - 1),
                st.sampled_from(CS_MASTERS),
            ),
            max_size=12,
        ),
        label="cells",
    )
    blockages = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_rows - 1),
                st.integers(1, num_rows),
                st.integers(0, sites - 1),
                st.integers(1, 8),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            ),
            max_size=3,
        ),
        label="blockages",
    )
    return num_rows, sites, cells, blockages


@settings(max_examples=60, deadline=None)
@given(_budgeted_rows())
# A 2-site blockage at density 1.0 (headroom 2) holds all of a 4-site
# cell's overlap: start 9 covers both of its sites and is legal.
@example((1, 40, [], [(0, 1, 10, 2, 1.0)]))
def test_legal_starts_are_the_free_starts_budgets_allow(case):
    """Every start of every row, against ``can_place`` plus ``allows``.

    A start is legal for the search (and its oracle) when asking for it
    returns it.
    """
    num_rows, sites, cells, blockages = case
    layout = build_random_layout(num_rows, sites, cells)
    t = layout.technology
    for k, (row, rows, lo, n, density) in enumerate(blockages):
        rect = Rect(
            lo * t.site_width, row * t.row_height,
            min(lo + n, sites) * t.site_width,
            min(row + rows, num_rows) * t.row_height,
        )
        layout.add_blockage(PlacementBlockage(f"b{k}", rect, density))
    budgets = build_budgets(layout)
    for row, occ in enumerate(layout.occupancy):
        for width in range(1, 9):
            legal = [
                s for s in range(sites)
                if occ.can_place(s, width) and budgets.allows(row, s, width)
            ]
            for search in (best_start_in_row, oracle_lg._best_start_in_row):
                found = [
                    s for s in range(sites)
                    if search(layout, budgets, row, s, width) == s
                ]
                assert found == legal, (search.__module__, row, width)


@settings(max_examples=60, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_find_spot_equal(one_design, data):
    """The whole search against the oracle's window-then-core scans.

    As in the ECO placer, each query lifts a cell (releasing its
    budgets), searches, and puts the cell down at the spot found (or
    back where it was) and commits it; budget counters also move on
    their own between queries.  Small radii make the window come up
    empty, and the drawn widths include a budget's exact headroom and
    widths past the row.
    """
    layout = one_design["layout"].clone()
    budgets = build_budgets(layout)
    spare = [
        i.name
        for i in one_design["netlist"].instances
        if not i.is_sequential and layout.is_placed(i.name)
    ]
    n_queries = data.draw(st.integers(1, 6), label="queries")
    for i in range(n_queries):
        name = spare[data.draw(st.integers(0, len(spare) - 1), label=f"cell{i}")]
        width = layout.netlist.instance(name).width_sites
        old = layout.placement(name)
        layout.unplace(name)
        budgets.release(old.row, old.start, width)
        edge = budgets.budgets[
            data.draw(st.integers(0, len(budgets) - 1), label=f"edge{i}")
        ]
        query_width = data.draw(
            st.sampled_from([
                width,
                max(edge.max_used - edge.used, 1),
                layout.sites_per_row + 1,
            ]),
            label=f"width{i}",
        )
        target_row = data.draw(
            st.integers(0, layout.num_rows - 1), label=f"row{i}"
        )
        target_site = data.draw(
            st.integers(-5, layout.sites_per_row + 5), label=f"site{i}"
        )
        radius = data.draw(st.sampled_from([0, 1, 2, 12]), label=f"radius{i}")
        args = (layout, budgets, query_width, target_row, target_site, radius)
        spot = find_spot(*args)
        assert spot == oracle_lg._find_spot(*args)
        if spot is None or query_width != width:
            spot = (old.row, old.start)
        layout.place(name, *spot)
        budgets.commit(*spot, width)
        _commit_random(budgets, layout, data, i)


@settings(max_examples=12, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_find_spot_long_sequence_equal(one_design, data):
    """Fifty and more searches on one layout age the empty-row memo.

    Each step is one of: a relocation as the ECO placer makes it (lift
    the cell and release its budgets, search, put it down at the spot
    found or back where it was, commit), where wide cells, widths past
    every row and a budget's exact headroom make searches fail; budget
    counters moving on their own; or a cell leaving the layout with its
    budgets untouched.  Every search must equal the oracle's.
    """
    layout = one_design["layout"].clone()
    budgets = build_budgets(layout)
    spare = [
        i.name
        for i in one_design["netlist"].instances
        if not i.is_sequential and layout.is_placed(i.name)
    ]
    n_steps = data.draw(st.integers(50, 70), label="steps")
    for i in range(n_steps):
        step = data.draw(
            st.sampled_from(["relocate", "relocate", "relocate", "budgets",
                             "lift"]),
            label=f"step{i}",
        )
        if step == "budgets":
            _commit_random(budgets, layout, data, i)
            continue
        name = spare[data.draw(st.integers(0, len(spare) - 1), label=f"cell{i}")]
        if step == "lift":
            layout.unplace(name)
            spare.remove(name)
            continue
        width = layout.netlist.instance(name).width_sites
        old = layout.placement(name)
        layout.unplace(name)
        budgets.release(old.row, old.start, width)
        edge = budgets.budgets[
            data.draw(st.integers(0, len(budgets) - 1), label=f"edge{i}")
        ]
        query_width = data.draw(
            st.one_of(
                st.sampled_from([
                    width,
                    max(edge.max_used - edge.used, 1),
                    layout.sites_per_row + 1,
                ]),
                st.integers(6, 24),  # wide: often nowhere until a lift
            ),
            label=f"width{i}",
        )
        args = (
            layout, budgets, query_width,
            data.draw(st.integers(0, layout.num_rows - 1), label=f"row{i}"),
            data.draw(st.integers(-5, layout.sites_per_row + 5),
                      label=f"site{i}"),
            data.draw(st.sampled_from([0, 1, 2, 12]), label=f"radius{i}"),
        )
        spot = find_spot(*args)
        assert spot == oracle_lg._find_spot(*args), f"step {i}"
        if spot is None or query_width != width:
            spot = (old.row, old.start)
        layout.place(name, *spot)
        budgets.commit(*spot, width)


def _filled_layout(num_rows: int, sites: int, free) -> Layout:
    """Rows full of one-site fillers, except the sites ``free[row]``."""
    netlist = Netlist("spots", nangate45_library())
    layout = Layout(netlist, nangate45_like(), num_rows, sites)
    for row in range(num_rows):
        for site in range(sites):
            if site not in free.get(row, ()):
                name = f"f{row}_{site}"
                netlist.add_instance(name, "FILLCELL_X1")
                layout.place(name, row, site)
    return layout


def _spot_is(layout, budgets, width, row, site, radius, expected) -> None:
    """Oracle and search both give ``expected``."""
    args = (layout, budgets, width, row, site, radius)
    assert oracle_lg._find_spot(*args) == expected
    assert find_spot(*args) == expected


class TestFindSpotCases:
    """One case per way the search can silently drift from the oracle."""

    def test_row_tie_goes_to_the_row_the_set_yields_first(self):
        # Rows 2 and 8 tie at dr = 3; the set {2, 8} yields 8 first.
        layout = _filled_layout(11, 20, {2: {10}, 8: {10}})
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 1, 5, 10, 12, (8, 10))

    def test_tie_in_a_row_goes_to_the_smaller_start(self):
        layout = _filled_layout(1, 20, {0: {4, 10}})
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 1, 0, 7, 12, (0, 4))

    def test_targets_outside_the_starts_and_the_last_start(self):
        layout = _filled_layout(1, 20, {0: {0, 1, 2, 17, 18, 19}})
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 3, 0, -3, 12, (0, 0))
        _spot_is(layout, budgets, 3, 0, 25, 12, (0, 17))
        _spot_is(layout, budgets, 3, 0, 16, 12, (0, 17))
        _spot_is(layout, budgets, 21, 0, 0, 12, None)

    def test_headroom_equal_to_width_admits_a_full_overlap(self):
        layout = _filled_layout(1, 20, {0: set(range(10))})
        tech = layout.technology
        layout.add_blockage(
            PlacementBlockage(
                "cap", Rect(0.0, 0.0, 10 * tech.site_width, tech.row_height),
                max_density=0.4,
            )
        )
        budgets = build_budgets(layout)
        (b,) = budgets.budgets
        assert b.max_used - b.used == 4
        _spot_is(layout, budgets, 4, 0, 3, 12, (0, 3))

    def test_release_readmits_a_start_in_another_row(self):
        # One budget over two rows: the cell committed in row 0 takes the
        # headroom row 1's query needs; its release must give it back
        # although row 1's occupancy never changed.
        layout = _filled_layout(2, 20, {0: set(range(10)), 1: set(range(10))})
        tech = layout.technology
        layout.netlist.add_instance("mover", "FILLCELL_X1")
        layout.add_blockage(
            PlacementBlockage(
                "cap",
                Rect(0.0, 0.0, 10 * tech.site_width, 2 * tech.row_height),
                max_density=0.2,
            )
        )
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 4, 1, 3, 0, (1, 3))
        layout.place("mover", 0, 0)
        budgets.commit(0, 0, 1)
        _spot_is(layout, budgets, 4, 1, 3, 0, None)
        layout.unplace("mover")
        budgets.release(0, 0, 1)
        _spot_is(layout, budgets, 4, 1, 3, 0, (1, 3))

    def test_core_scan_starts_right_past_the_window(self):
        layout = _filled_layout(9, 10, {7: {5}, 8: {5}})
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 1, 2, 5, 4, (7, 5))
        _spot_is(layout, budgets, 1, 2, 5, 20, (7, 5))

    def test_a_far_row_that_loosens_leaves_the_empty_row_memo(self):
        # Width 2 fits nowhere, and the search proves every row empty.
        # An unrelated filler then leaves row 0, far from the target,
        # with no budget released: the next search must find its gap.
        layout = _filled_layout(9, 10, {0: {5}, 4: {1}, 8: {8}})
        budgets = build_budgets(layout)
        _spot_is(layout, budgets, 2, 8, 5, 1, None)
        _spot_is(layout, budgets, 1, 8, 5, 1, (8, 8))
        layout.unplace("f0_4")
        _spot_is(layout, budgets, 2, 8, 5, 1, (0, 4))
        # Filling it again keeps the memo sound the other way round.
        layout.place("f0_4", 0, 4)
        _spot_is(layout, budgets, 2, 8, 5, 1, None)

    def test_a_budget_that_regains_headroom_leaves_the_empty_row_memo(self):
        # A cap of 3 sites over row 1's free sites; filling it straight on
        # the budget (no BudgetSet call) forbids every start of width 3,
        # and emptying it the same way must readmit them.
        layout = _filled_layout(2, 20, {1: set(range(10))})
        tech = layout.technology
        layout.add_blockage(
            PlacementBlockage(
                "cap", Rect(0.0, tech.row_height, 10 * tech.site_width,
                            2 * tech.row_height),
                max_density=0.3,
            )
        )
        budgets = build_budgets(layout)
        (b,) = budgets.budgets
        assert (b.max_used, b.used) == (3, 0)
        _spot_is(layout, budgets, 3, 0, 3, 0, (1, 3))
        b.used += 3
        _spot_is(layout, budgets, 3, 0, 3, 0, None)
        b.release(1, 12, 3)  # off the cap's span: moves nothing
        _spot_is(layout, budgets, 3, 0, 3, 0, None)
        b.used -= 3
        _spot_is(layout, budgets, 3, 0, 3, 0, (1, 3))


@settings(max_examples=40, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_receiving_target_equal(one_design, data):
    layout = one_design["layout"]
    budgets = build_budgets(layout)
    assert budgets.budgets, "fixture plants blockages"
    movable = [
        i.name
        for i in one_design["netlist"].instances
        if layout.is_placed(i.name) and i.name not in layout.fixed
    ]
    n_queries = data.draw(st.integers(1, 4), label="queries")
    for q in range(n_queries):
        name = movable[
            data.draw(
                st.integers(min_value=0, max_value=len(movable) - 1),
                label=f"cell{q}",
            )
        ]
        source = budgets.budgets[
            data.draw(
                st.integers(min_value=0, max_value=len(budgets.budgets) - 1),
                label=f"source{q}",
            )
        ]
        edge = budgets.budgets[
            data.draw(
                st.integers(0, len(budgets.budgets) - 1),
                label=f"edge_budget{q}",
            )
        ]
        h = edge.max_used - edge.used
        if h > 3 and data.draw(st.booleans(), label=f"edge{q}"):
            # Eligibility boundary: headroom == width + 2, or one less.
            width = h - data.draw(st.sampled_from([1, 2]), label=f"off{q}")
        else:
            width = data.draw(
                st.integers(min_value=1, max_value=20), label=f"width{q}"
            )
        median_pt = Point(
            data.draw(st.floats(0.0, 60.0, allow_nan=False), label=f"mx{q}"),
            data.draw(st.floats(0.0, 30.0, allow_nan=False), label=f"my{q}"),
        )
        attract = None
        if data.draw(st.booleans(), label=f"attract?{q}"):
            attract = Point(
                data.draw(
                    st.floats(0.0, 60.0, allow_nan=False), label=f"ax{q}"
                ),
                data.draw(
                    st.floats(0.0, 30.0, allow_nan=False), label=f"ay{q}"
                ),
            )
        oracle = oracle_lg._receiving_target(
            layout, budgets, source, name, width, median_pt, attract
        )
        kernel = receiving_target(
            layout, budgets, source, name, width, median_pt, attract
        )
        assert (oracle.x, oracle.y) == (kernel.x, kernel.y)
        _commit_random(budgets, layout, data, q)


# ---------------------------------------------------------------------- #
# density map
# ---------------------------------------------------------------------- #

_DENSITY_MASTERS = ("FILLCELL_X1", "INV_X1", "NAND2_X1", "XOR2_X1", "DFF_X1")


def _density_layout(num_rows: int, sites: int, cells) -> Layout:
    """``cells`` = (row, site, master); the ones that do not fit are skipped."""
    netlist = Netlist("density", nangate45_library())
    layout = Layout(netlist, nangate45_like(), num_rows, sites)
    for k, (row, site, master) in enumerate(cells):
        name = f"c{k}"
        netlist.add_instance(name, master)
        width = netlist.instance(name).width_sites
        if layout.occupancy[row].can_place(site, width):
            layout.place(name, row, site)
    return layout


def _density_is_oracle(layout: Layout, nx: int, ny: int) -> None:
    kernel = DensityMap(layout, nx, ny)._used
    assert kernel.tobytes() == oracle_dm._used(layout, nx, ny).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_density_map_equal(data):
    num_rows = data.draw(st.integers(1, 8), label="rows")
    sites = data.draw(st.integers(1, 60), label="sites")
    cells = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, num_rows - 1),
                st.integers(0, sites - 1),
                st.sampled_from(_DENSITY_MASTERS),
            ),
            max_size=60,
        ),
        label="cells",
    )
    nx = data.draw(st.integers(1, 9), label="nx")
    ny = data.draw(st.integers(1, 9), label="ny")
    _density_is_oracle(_density_layout(num_rows, sites, cells), nx, ny)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_asset_density_caps_equal(design, n):
    """LDA's caps map against the per-tile vectorized sigmoid, bitwise."""
    layout, assets = design["layout"], design["assets"]
    kernel = asset_density_caps(layout, assets, n)
    assert kernel.tobytes() == oracle_dm.asset_density_caps(
        layout, assets, n).tobytes()


class TestDensityMapCases:
    def test_cell_ending_on_a_bin_edge(self):
        # 8 sites in 4 bins: the cell on sites [4, 6) ends on bin 3's
        # left edge, and ⌈xhi/w⌉ still reaches bin 3 (a zero-width
        # overlap); row 1 of 6 in 3 bins ends on a bin edge too.
        layout = _density_layout(6, 8, [(1, 4, "INV_X1"), (5, 7, "FILLCELL_X1")])
        rect = layout.cell_rect("c0")
        bin_w = layout.core.width / 4
        assert int(np.ceil(rect.xhi / bin_w)) == 4
        assert not 3 * bin_w < rect.xhi
        _density_is_oracle(layout, 4, 3)

    def test_one_by_one_grid(self, one_design):
        _density_is_oracle(one_design["layout"], 1, 1)

    def test_empty_layout(self):
        layout = _density_layout(3, 20, [])
        _density_is_oracle(layout, 4, 4)
        assert DensityMap(layout, 4, 4).max_density() == 0.0

    def test_cells_in_the_last_partial_bin(self):
        # 31 sites in 4 bins and 5 rows in 3: bin edges cut through sites
        # and rows, and the cells sit in the last column and row.
        layout = _density_layout(
            5, 31, [(3, 29, "INV_X1"), (4, 19, "DFF_X1"), (2, 30, "FILLCELL_X1")]
        )
        assert len(layout.placements) == 3
        _density_is_oracle(layout, 4, 3)

    def test_generated_design(self, one_design):
        _density_is_oracle(one_design["layout"], 16, 16)


# ---------------------------------------------------------------------- #
# routing grid accounting
# ---------------------------------------------------------------------- #


def _draw_run(data, grid, k: int, i: int):
    """A random straight run: (layer, span, ascending gcell list)."""
    layer = data.draw(st.integers(min_value=1, max_value=k), label=f"layer{i}")
    horizontal = data.draw(st.booleans(), label=f"horiz{i}")
    length = grid.nx if horizontal else grid.ny
    fixed = data.draw(
        st.integers(0, (grid.ny if horizontal else grid.nx) - 1),
        label=f"fixed{i}",
    )
    a = data.draw(st.integers(0, length - 1), label=f"a{i}")
    b = data.draw(st.integers(0, length - 1), label=f"b{i}")
    lo, hi = min(a, b), max(a, b)
    if horizontal:
        cells = [(ix, fixed) for ix in range(lo, hi + 1)]
    else:
        cells = [(fixed, iy) for iy in range(lo, hi + 1)]
    return layer, (horizontal, lo, hi, fixed), cells


def _shape_scores(grid, ratio, shapes):
    """Kernel scores of shapes given as lists of spans, one list per tier."""
    spans = [span for shape in shapes for span in shape]
    codes, offsets = rk.piece_codes(
        grid.nx, grid.ny, *(np.array(column) for column in zip(*spans))
    )
    firsts = np.cumsum([0] + [len(shape) for shape in shapes[:-1]])
    return rk.code_scores(ratio, codes, offsets[firsts])


def _probe(grid, layer, span, demand):
    """The kernel's score of one straight run on one layer."""
    ratio = rk.ratio_grid(
        grid.usage, grid.capacity, [demand] * grid.capacity.shape[0],
        [(layer, layer)],
    ).ratio
    [[score]] = _shape_scores(grid, ratio, [[span]])
    return score


@settings(max_examples=40, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_grid_accounting_equal(one_design, data):
    """Random straight segments: usage and scores agree bitwise.

    Each run is scored before it is committed, so later scores read the
    usage of earlier commits.  A segment built from a run's span reads
    the run back as its gcells.  A ratio grid the commits keep in step
    equals one built fresh from the usage.
    """
    tech = one_design["tech"]
    oracle = RoutingGrid(tech, GRID_CORE)
    kernel = RoutingGrid(tech, GRID_CORE)
    flat = kernel.usage.reshape(-1).data
    k = tech.num_layers
    tiers = [router._clamp_tier(h, v, k) for h, v in router._TIERS]
    layer_demand = [1.0 + 0.25 * (i % 3) for i in range(k)]
    kept = rk.ratio_grid(kernel.usage, kernel.capacity, layer_demand, tiers)
    view = kept.ratio.reshape(-1).data

    def commit(layer, span, demand):
        first = (layer - 1) * kernel.nx * kernel.ny
        line_ratio = (view, kept.cap, layer_demand[layer - 1], kept.shifts[layer - 1])
        rk.apply_line(flat, first, kernel.ny, *span, demand, line_ratio)

    def fresh_ratio():
        return rk.ratio_grid(
            kernel.usage, kernel.capacity, layer_demand, tiers
        ).ratio.tobytes()

    n_ops = data.draw(st.integers(min_value=1, max_value=12), label="ops")
    applied = []
    for i in range(n_ops):
        layer, span, cells = _draw_run(data, kernel, tech.num_layers, i)
        demand = data.draw(
            st.floats(0.1, 3.0, allow_nan=False), label=f"demand{i}"
        )
        seg = RouteSegment(layer, *span, 0.0, demand)
        assert seg.gcells == cells
        if len(cells) > 1:
            assert oracle_rg.as_span(seg.gcells) == span
        probe = oracle_rg.segment_congestion(oracle, layer, cells, demand)
        assert probe == _probe(kernel, layer, span, demand)
        oracle_rg.add_segment(oracle, layer, cells, demand)
        commit(layer, span, demand)
        applied.append((layer, span, cells, demand))
    assert oracle.usage.tobytes() == kernel.usage.tobytes()
    assert oracle.num_overflows() == kernel.num_overflows()
    assert oracle.total_overflow() == kernel.total_overflow()
    assert kept.ratio.tobytes() == fresh_ratio()
    for layer, span, cells, demand in applied:
        oracle_rg.remove_segment(oracle, layer, cells, demand)
        commit(layer, span, -demand)
    assert oracle.usage.tobytes() == kernel.usage.tobytes()
    assert kept.ratio.tobytes() == fresh_ratio()


@settings(max_examples=40, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_shape_scores_zero_capacity_equal(one_design, data):
    """Multi-piece shapes on several tiers, with bins of capacity <= 0.

    Such a bin scores inf, including 0/0 (a zero demand on a zero
    capacity); a shape scores the max over its pieces.
    """
    tech = one_design["tech"]
    k = tech.num_layers
    grid = RoutingGrid(tech, GRID_CORE)
    rng = _rng(data)
    grid.usage[:] = rng.uniform(0.0, 2.0, grid.usage.shape) * grid.capacity
    dead = rng.random(grid.capacity.shape) < 0.3
    grid.capacity[dead] *= rng.choice([0.0, -1.0], size=grid.capacity.shape)[dead]
    demand = [
        data.draw(st.sampled_from([0.0, 1.0, 1.5, 2.0]), label=f"demand{i}")
        for i in range(k)
    ]
    tiers = [
        (
            data.draw(st.integers(1, k), label=f"h{t}"),
            data.draw(st.integers(1, k), label=f"v{t}"),
        )
        for t in range(data.draw(st.integers(1, 5), label="tiers"))
    ]
    shapes = [
        [_draw_run(data, grid, k, 3 * i + j)[1:] for j in range(1 + i % 3)]
        for i in range(data.draw(st.integers(1, 4), label="shapes"))
    ]
    kernel = _shape_scores(
        grid,
        rk.ratio_grid(grid.usage, grid.capacity, demand, tiers).ratio,
        [[span for span, _ in shape] for shape in shapes],
    )
    for (h, v), scores in zip(tiers, kernel):
        oracle = []
        for shape in shapes:
            pieces = []
            for (horizontal, *_), cells in shape:
                layer = h if horizontal else v
                pieces.append(
                    oracle_rg.segment_congestion(
                        grid, layer, cells, demand[layer - 1]
                    )
                )
            oracle.append(max(pieces))
        assert scores == oracle


# ---------------------------------------------------------------------- #
# router scans over routed designs
# ---------------------------------------------------------------------- #


@settings(max_examples=15, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_congestion_factor_equal(one_design, one_plan, data):
    """Per-net congestion factors over randomly raised usage.

    The usage is raised (and capacities zeroed) after the route's passes
    and before its result is built, which must read the grid as it is
    then.  The plan's coincident-pin net has no cells and the
    twice-routed net crosses bins twice.
    """
    layout = one_design["layout"]
    ndr = NonDefaultRule.default(layout.technology.num_layers)
    route = router._Route(
        RoutingGrid(layout.technology, layout.core), ndr, one_plan
    )
    route.initial()
    route.ripup(1)
    router._repair_drc_hotspots(route)
    grid = route.grid
    rng = _rng(data)
    raise_p = data.draw(st.floats(0.0, 1.0), label="raise_p")
    bump = rng.uniform(0.0, 1.5, grid.usage.shape) * grid.capacity
    grid.usage += np.where(rng.random(grid.usage.shape) < raise_p, bump, 0.0)
    if data.draw(st.booleans(), label="zero_caps"):
        grid.capacity[rng.random(grid.capacity.shape) < 0.2] = 0.0
    result = route.result()
    assert result.routes[COINCIDENT_NET].segments == []
    for name, route in result.routes.items():
        worst = oracle_rg.route_worst_ratio(
            grid.capacity, grid.usage, route.segments
        )
        assert result.congestion_factor(name) == (
            1.0 + 0.3 * max(0.0, worst - 0.8)
        )


@settings(max_examples=25, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_victims_of_equal(one_initial, data):
    """Random masks select the same victims, in the same order.

    The route's one pass over its picked cells against the per-cell
    scan of every net's segments.
    """
    route, routes = one_initial
    rng = _rng(data)
    density = data.draw(
        st.sampled_from([0.0, 0.0005, 0.002, 0.01, 0.05, 0.3]),
        label="density",
    )
    mask = rng.random(route.grid.usage.shape) < density
    nets = route.plan.nets
    assert [nets[i] for i in route.victims(mask)] == oracle_rg.victims_of(
        mask, routes
    )


def _segs_key(segments):
    return [(s.layer, list(s.gcells), s.length_um, s.demand) for s in segments]


@settings(max_examples=40, **_FIXTURE_SETTINGS)
@given(data=st.data())
def test_route_pair_equal(one_design, data):
    """The one-gather pair router picks the oracle's tier and shape.

    Every candidate tier list a route builds is checked: each base tier
    at tier_bump 0 and 1, on the 10-layer stack and on a 3-layer stack
    where clamping repeats a tier.  A lattice grid (one capacity, usage
    on a coarse grid, one width scale) makes exact ties between tiers
    common, and zeroed bins make whole tiers score inf.  The pairs sit
    in one set of pair tables, as in a route.
    """
    k = data.draw(st.sampled_from([10, 3]), label="layers")
    tech = one_design["tech"] if k == 10 else nangate45_like(num_layers=k)
    grid = RoutingGrid(tech, GRID_CORE)
    rng = _rng(data)
    if data.draw(st.booleans(), label="lattice"):
        grid.capacity[:] = 4.0
        grid.usage[:] = rng.integers(0, 9, grid.usage.shape) * 0.5
        scales = (data.draw(st.sampled_from([1.0, 1.5, 2.0]), label="scale"),) * k
    else:
        grid.usage[:] = rng.uniform(0.0, 1.2, grid.usage.shape) * grid.capacity
        scales = tuple(
            data.draw(st.sampled_from([1.0, 1.5, 2.0]), label=f"scale{i}")
            for i in range(k)
        )
    if data.draw(st.booleans(), label="zero_caps"):
        grid.capacity[rng.random(grid.capacity.shape) < 0.3] = 0.0
    ndr = NonDefaultRule(scales=scales)
    columns, tier_sets = router._tier_sets(grid, ndr)
    assert {
        assign_layer_tier(hpwl, clock, k, core_scale=1.0)
        for hpwl in (0.05, 0.2, 0.4, 0.7, 2.0)
        for clock in (False, True)
    } <= set(tier_sets)
    candidate_lists = []
    for base, by_bump in tier_sets.items():
        for bump, tiers in enumerate(by_bump):
            assert tiers.layers == tuple(oracle_rt._candidates(base, k, bump))
            assert tiers.demands == tuple(
                (ndr.track_demand(h), ndr.track_demand(v)) for h, v in tiers.layers
            )
            assert tiers.layers == tuple(columns.layers[c] for c in tiers.columns)
            candidate_lists.append(tiers)
    core = GRID_CORE
    coord_x = st.floats(core.xlo, core.xhi, allow_nan=False)
    coord_y = st.floats(core.ylo, core.yhi, allow_nan=False)
    pins = []
    for i in range(4):
        p1 = Point(data.draw(coord_x, label=f"x1_{i}"), data.draw(coord_y, label=f"y1_{i}"))
        shape = data.draw(
            st.sampled_from(["free", "same_x", "same_y", "same"]), label=f"shape{i}"
        )
        x2 = p1.x if shape in ("same_x", "same") else data.draw(coord_x, label=f"x2_{i}")
        y2 = p1.y if shape in ("same_y", "same") else data.draw(coord_y, label=f"y2_{i}")
        pins.append((p1, Point(x2, y2)))
    tables = _PairTables(
        grid, np.array([(p.x, p.y, q.x, q.y) for p, q in pins], dtype=float)
    )
    ratio = router._ratio_grid(grid, ndr, columns).ratio
    for p, (p1, p2) in enumerate(pins):
        for tiers in candidate_lists:
            shape, column = _route_pair(ratio, tiers, tables, p)
            kernel = None if shape < 0 else _segs_key(
                tables.segments(
                    shape, columns.layers[column], columns.demands[column]
                )
            )
            oracle = oracle_rt._route_pair(grid, tiers, p1, p2)
            # coincident pins route no segment: [] in the oracle
            assert kernel == (_segs_key(oracle) if oracle else None)


def _route_digest(routes, grid, factors):
    return (
        {name: _segs_key(r.segments) for name, r in routes.items()},
        {name: (r.resistance, r.capacitance) for name, r in routes.items()},
        grid.usage.tobytes(),
        grid.num_overflows(),
        grid.total_overflow(),
        factors,
    )


def test_global_route_equal(design):
    """Whole router runs agree with the scalar router.

    Routes, R/C, usage, overflow and per-net congestion factors must
    match exactly.  The first rule widens every other layer by 1.2; the
    second triples every layer's track demand, so the grid overflows,
    rip-up runs and DRC repair rejects (and reverts) some reroutes.  The
    third run routes the second rule from a plan with a coincident-pin
    and a twice-routed net in front.
    """
    layout = design["layout"]
    k = design["tech"].num_layers
    wide = NonDefaultRule(scales=(3.0,) * k)
    runs = (
        (NonDefaultRule(scales=tuple(1.2 if i % 2 else 1.0 for i in range(k))), None),
        (wide, None),
        (wide, _with_degenerate_nets(RoutePlan.build(layout))),
    )
    for i, (ndr, plan) in enumerate(runs):
        result = global_route(layout, ndr=ndr, plan=plan)
        kernel = _route_digest(
            result.routes,
            result.grid,
            {name: result.congestion_factor(name) for name in result.routes},
        )
        oracle = oracle_rt.global_route(layout, ndr, plan=plan)
        assert kernel == _route_digest(oracle.routes, oracle.grid, oracle.factors)
        if i:
            assert oracle.grid.num_overflows() > 0
            assert oracle.reverts > 0, "repair must reject a reroute"


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("num_layers", [3, 6])
def test_global_route_thin_stack_equal(num_layers, scale):
    """Whole router runs on thin metal stacks agree with the scalar router.

    Clamping makes tiers share layers there (3 layers: four tiers on
    layers 3 and 2; 6 layers: three tiers on 5 and 6), so one ratio bin
    feeds several tier columns.  At width 3.0 the grid overflows and DRC
    repair rejects and reverts reroutes.
    """
    layout = _build(DESIGN_SEEDS[0], num_layers)["layout"]
    ndr = NonDefaultRule(scales=(scale,) * num_layers)
    result = global_route(layout, ndr=ndr)
    kernel = _route_digest(
        result.routes,
        result.grid,
        {name: result.congestion_factor(name) for name in result.routes},
    )
    oracle = oracle_rt.global_route(layout, ndr)
    assert kernel == _route_digest(oracle.routes, oracle.grid, oracle.factors)
    if scale > 1.0:
        assert oracle.grid.num_overflows() > 0
        assert oracle.reverts > 0, "repair must reject a reroute"


# ---------------------------------------------------------------------- #
# route plans and parasitics
# ---------------------------------------------------------------------- #


def _plan_key(plan: RoutePlan):
    return (
        plan.nets,
        plan.base_tiers,
        plan.pairs.tobytes(),
        np.asarray(plan.offsets, dtype=np.intp).tolist(),
    )


def _without_some_ports(layout: Layout) -> Layout:
    """A copy of ``layout`` with every other port position dropped."""
    other = layout.clone()
    for port in sorted(other.port_positions)[::2]:
        del other.port_positions[port]
    return other


def test_route_plan_equal(design):
    """Generated designs: the plan is the per-net oracle's, bitwise.

    Net order, base tiers, pair bytes and offsets, with every port
    position and with every other one dropped (such a port is left out
    of its net's points, and a net can fall below two points).
    """
    layout = design["layout"]
    assert layout.port_positions
    for variant in (layout, _without_some_ports(layout)):
        plan = RoutePlan.build(variant)
        assert _plan_key(plan) == _plan_key(oracle_rt.build_plan(variant))


@pytest.mark.parametrize("name", ["PRESENT", "MISTY", "AES_1"])
def test_route_plan_benchmark_equal(name):
    """Benchmark designs: ports, and a clock net chained over 24 pins."""
    layout = build_design(name).layout
    plan = RoutePlan.build(layout)
    assert max(np.diff(plan.offsets)) + 1 > 24
    assert layout.port_positions
    assert _plan_key(plan) == _plan_key(oracle_rt.build_plan(layout))


def test_route_plan_unplaced_pin_raises(design):
    """An unplaced pin instance raises the oracle's ``LayoutError``.

    Two cells are unplaced; both name the first one a net with a sink
    reads, in netlist order.
    """
    layout = design["layout"].clone()
    names = [n for n in layout.placements if n not in layout.fixed]
    for name in (names[len(names) // 2], names[len(names) // 3]):
        layout.unplace(name)
    with pytest.raises(LayoutError) as expected:
        oracle_rt.build_plan(layout)
    with pytest.raises(LayoutError) as raised:
        RoutePlan.build(layout)
    assert str(raised.value) == str(expected.value)


def test_net_parasitics_equal_net_routes(one_design):
    """R/C and factors by plan position equal the built ``NetRoute``'s.

    The route overflows (triple width), so factors exceed 1.0.  With
    every other port position dropped some nets have fewer than two pin
    points, so they are not routed: they have no plan position and read
    factor 1.0, as does a name outside the netlist.  The coincident-pin
    net routes nothing and reads (0, 0).  Each ``NetRoute``'s R and C are
    its segments' products summed one by one from 0.0.  A plan net the
    netlist lacks has netlist index -1.
    """
    layout = _without_some_ports(one_design["layout"])
    plan = _with_degenerate_nets(RoutePlan.build(layout))
    tech = layout.technology
    ndr = NonDefaultRule(scales=(3.0,) * tech.num_layers)
    result = global_route(layout, ndr=ndr, plan=plan)
    ids, routed_r, routed_c = result.wire_rc()
    net_index = {net.name: k for k, net in enumerate(layout.netlist.nets)}
    assert ids.tolist() == [net_index.get(name, -1) for name in plan.nets]
    routes = result.routes
    assert list(routes) == plan.nets
    assert max(result.congestion_factor(name) for name in plan.nets) > 1.0
    for i, (name, route) in enumerate(routes.items()):
        factor = result.congestion_factor(name)
        r = c = 0.0
        for seg in route.segments:
            layer = tech.layer(seg.layer)
            r += (
                seg.length_um * layer.unit_resistance
                * ndr.resistance_factor(seg.layer)
            )
            c += (
                seg.length_um * layer.unit_capacitance
                * ndr.capacitance_factor(seg.layer)
            )
        assert (route.resistance, route.capacitance) == (r, c)
        assert (routed_r[i], routed_c[i]) == (r * factor, c * factor)
    assert routes[COINCIDENT_NET].segments == []
    assert (routed_r[0], routed_c[0]) == (0.0, 0.0)
    assert result.congestion_factor(COINCIDENT_NET) == 1.0
    unrouted = [n for n in net_index if n not in routes] + ["~ghost"]
    assert len(unrouted) > 1
    assert {result.congestion_factor(name) for name in unrouted} == {1.0}
