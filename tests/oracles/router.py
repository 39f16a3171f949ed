"""Scalar oracle for the router.

:func:`build_plan` is the per-net reading of
:meth:`repro.route.router.RoutePlan.build`: each net's pin points as
``Point`` lists, its HPWL from their bounding box, its spanning pairs
from a scalar Prim loop or a sorted serpentine chain
(:func:`_spanning_pairs`) and its base tier from a scan of the tier
bounds.  The production plan gathers the pin table's flat slots and
batches Prim over all nets with the same pin count.

:func:`_route_pair` is the tier-by-tier reading of the production pair
router (:func:`repro.route.router._route_pair` over the pair tables):
for each candidate tier in order, :func:`_route_two_pin` lists every
candidate piece's gcells with :func:`_gcell_line`, probes them one cell
at a time and keeps the least congested shape; the pair takes the first
tier at or under 0.9, else the first strict minimum.  The production
router builds every pair's shapes and gather codes once per route,
scores every tier in one gather and records only the pick.

:func:`global_route` is the whole route read the same way: per-net
segment lists committed cell by cell, rip-up and DRC-repair victims
from a per-cell scan of every segment, a rejected repair reroute
reverted by removing its segments and adding the old ones back, and
each congestion factor from a per-cell walk of the net's segments.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, half_perimeter_wirelength
from repro.route.grid import RoutingGrid
from repro.route.ndr import NonDefaultRule
from repro.route.router import (
    _CLOCK_TIER,
    _TIER_FRACTIONS,
    _TIERS,
    NetRoute,
    RoutePlan,
    RouteSegment,
)

from tests.oracles.routegrid import (
    add_segment,
    remove_segment,
    route_worst_ratio,
    segment_congestion,
    victims_of,
)


def _spanning_pairs(points: Sequence[Point]) -> List[Tuple[Point, Point]]:
    """Spanning pin pairs of one net, ``len(points) - 1`` of them.

    Up to 24 pins: Prim-style nearest-neighbor pairs grown from the first
    pin.  Each step scans the remaining pins in order and, for each, the
    joined pins in joining order, and joins the first pair at the
    strictly least Manhattan distance as ``(joined pin, new pin)``.
    High-fanout nets (clocks, resets) fall back to a serpentine
    (boustrophedon) chain: pins sorted by 5 µm y-band ``int(y / 5)``,
    then by x, ascending in even bands and descending in odd ones (a
    stable sort keeps ties in point order), and consecutive pins
    connected — close to an MST for spread-out pin sets like clock
    leaves, and O(n log n).
    """
    if len(points) < 2:
        return []
    if len(points) > 24:
        band = 5.0  # µm

        def key(p: Point):
            b = int(p.y / band)
            return (b, p.x if b % 2 == 0 else -p.x)

        chain = sorted(points, key=key)
        return list(zip(chain, chain[1:]))
    connected = [points[0]]
    remaining = list(points[1:])
    pairs: List[Tuple[Point, Point]] = []
    while remaining:
        best = None
        best_d = float("inf")
        for i, p in enumerate(remaining):
            for q in connected:
                d = p.manhattan_distance(q)
                if d < best_d:
                    best_d = d
                    best = (i, q)
        i, q = best  # type: ignore[misc]
        p = remaining.pop(i)
        connected.append(p)
        pairs.append((q, p))
    return pairs


def build_plan(layout) -> RoutePlan:
    """The route plan of ``layout``, net by net.

    Nets with a sink and at least two pin points, stably sorted by HPWL;
    a clock net's base tier is the top one, any other net's the first
    tier whose HPWL bound (a fraction of the core semi-perimeter) admits
    it.  An unplaced pin instance raises ``net_pin_points``'
    ``LayoutError``.
    """
    clock_nets = layout.netlist.clock_nets()
    core_scale = layout.core.width + layout.core.height
    nets = []
    for net in layout.netlist.nets:
        points = layout.net_pin_points(net.name) if net.num_sinks else []
        if len(points) >= 2:
            nets.append(
                (half_perimeter_wirelength(points), net.name, _spanning_pairs(points))
            )
    nets.sort(key=lambda item: item[0])
    base_tiers = []
    rows = []
    offsets = [0]
    for hpwl, name, pairs in nets:
        if name in clock_nets:
            base_tiers.append(_CLOCK_TIER)
        else:
            rel = hpwl / max(core_scale, 1e-9)
            base_tiers.append(
                next(i for i, bound in enumerate(_TIER_FRACTIONS) if rel <= bound)
            )
        rows += [(p.x, p.y, q.x, q.y) for p, q in pairs]
        offsets.append(len(rows))
    return RoutePlan(
        layout,
        [name for _, name, _ in nets],
        bytes(base_tiers),
        np.array(rows, dtype=float).reshape(-1, 4),
        np.array(offsets, dtype=np.intp),
    )


def _gcell_line(
    grid: RoutingGrid, p1: Point, p2: Point, horizontal: bool
) -> List[Tuple[int, int]]:
    """Gcells traversed by an axis-aligned segment from p1 to p2."""
    a = grid.gcell_of(p1.x, p1.y)
    b = grid.gcell_of(p2.x, p2.y)
    cells: List[Tuple[int, int]] = []
    if horizontal:
        y = a[1]
        lo, hi = sorted((a[0], b[0]))
        cells = [(ix, y) for ix in range(lo, hi + 1)]
    else:
        x = a[0]
        lo, hi = sorted((a[1], b[1]))
        cells = [(x, iy) for iy in range(lo, hi + 1)]
    return cells


def _segment(
    layer: int,
    cells: List[Tuple[int, int]],
    horizontal: bool,
    length: float,
    demand: float,
) -> RouteSegment:
    """The segment over a straight run of cells, built from its ends."""
    (x0, y0), (x1, y1) = cells[0], cells[-1]
    if horizontal:
        return RouteSegment(layer, True, x0, x1, y0, length, demand)
    return RouteSegment(layer, False, y0, y1, x0, length, demand)


def _route_two_pin(
    grid: RoutingGrid,
    p1: Point,
    p2: Point,
    h_layer: int,
    v_layer: int,
    h_demand: float,
    v_demand: float,
) -> Tuple[float, List[RouteSegment]]:
    """Route p1→p2 on one tier with the least congested L- or Z-shape.

    Returns (worst congestion ratio along the chosen shape, segments).
    Every candidate piece is materialized as a gcell list and probed
    cell by cell.
    """
    dx = abs(p1.x - p2.x)
    dy = abs(p1.y - p2.y)

    def h_piece(x_lo: float, x_hi: float, y: float) -> Tuple[float, RouteSegment]:
        cells = _gcell_line(grid, Point(x_lo, y), Point(x_hi, y), horizontal=True)
        cong = segment_congestion(grid, h_layer, cells, h_demand)
        return cong, _segment(h_layer, cells, True, x_hi - x_lo, h_demand)

    def v_piece(y_lo: float, y_hi: float, x: float) -> Tuple[float, RouteSegment]:
        cells = _gcell_line(grid, Point(x, y_lo), Point(x, y_hi), horizontal=False)
        cong = segment_congestion(grid, v_layer, cells, v_demand)
        return cong, _segment(v_layer, cells, False, y_hi - y_lo, v_demand)

    x_lo, x_hi = min(p1.x, p2.x), max(p1.x, p2.x)
    y_lo, y_hi = min(p1.y, p2.y), max(p1.y, p2.y)
    candidates: List[Tuple[float, List[RouteSegment]]] = []

    def add(pieces: List[Tuple[float, RouteSegment]]) -> None:
        if pieces:
            candidates.append(
                (max(c for c, _ in pieces), [s for _, s in pieces])
            )

    if dx <= 1e-9 and dy <= 1e-9:
        return 0.0, []
    if dx <= 1e-9:
        add([v_piece(y_lo, y_hi, p1.x)])
    elif dy <= 1e-9:
        add([h_piece(x_lo, x_hi, p1.y)])
    else:
        left, right = (p1, p2) if p1.x <= p2.x else (p2, p1)
        low, high = (p1, p2) if p1.y <= p2.y else (p2, p1)
        # Two L-shapes plus two Z-shapes (corner line through the middle):
        # the Z detours are what spread demand off the straight-line bbox.
        add([h_piece(x_lo, x_hi, left.y), v_piece(y_lo, y_hi, right.x)])
        add([h_piece(x_lo, x_hi, right.y), v_piece(y_lo, y_hi, left.x)])
        x_mid = (x_lo + x_hi) / 2.0
        y_mid = (y_lo + y_hi) / 2.0
        add(
            [
                h_piece(left.x, x_mid, left.y),
                v_piece(y_lo, y_hi, x_mid),
                h_piece(x_mid, right.x, right.y),
            ]
        )
        add(
            [
                v_piece(low.y, y_mid, low.x),
                h_piece(x_lo, x_hi, y_mid),
                v_piece(y_mid, high.y, high.x),
            ]
        )
    best = min(candidates, key=lambda c: c[0])
    return best


def _clamp(h: int, v: int, k: int) -> Tuple[int, int]:
    """Tier ``(h, v)`` clamped to a ``k``-layer stack."""
    hh = min(h, k if k % 2 == 1 else k - 1)
    vv = min(v, k if k % 2 == 0 else k - 1)
    return (max(hh, 1), max(vv, 1 if k == 1 else 2))


def _candidates(
    base: Tuple[int, int], k: int, tier_bump: int
) -> List[Tuple[int, int]]:
    """Candidate layer tiers of a net with base tier ``base``, in order.

    The base tier, then the tiers above it, then the tiers below, each
    clamped to a ``k``-layer stack; ``tier_bump`` drops leading tiers.
    """
    base_h, base_v = base
    base_idx = next(
        (i for i, (h, v) in enumerate(_TIERS) if h >= base_h and v >= base_v),
        len(_TIERS) - 1,
    )
    ordered = list(_TIERS[base_idx:]) + list(reversed(_TIERS[:base_idx]))
    candidates = [_clamp(h, v, k) for h, v in ordered]
    if tier_bump:
        candidates = candidates[min(tier_bump, len(candidates) - 1):]
    return candidates


def _route_pair(
    grid: RoutingGrid, tiers, p1: Point, p2: Point
) -> Optional[List[RouteSegment]]:
    """Probe the candidate tiers one at a time, in order.

    Reads only ``tiers.layers`` and ``tiers.demands``.  Returns None when
    no tier scores below inf.
    """
    best_segs: Optional[List[RouteSegment]] = None
    best_cong = float("inf")
    for (h_layer, v_layer), (h_demand, v_demand) in zip(
        tiers.layers, tiers.demands
    ):
        cong, segs = _route_two_pin(
            grid, p1, p2, h_layer, v_layer, h_demand, v_demand
        )
        if cong < best_cong:
            best_cong, best_segs = cong, segs
        if cong <= 0.9:  # fits comfortably: stop at the lowest such tier
            break
    return best_segs


class _TierList(NamedTuple):
    layers: List[Tuple[int, int]]
    demands: List[Tuple[float, float]]


class OracleRoute(NamedTuple):
    """What :func:`global_route` produced, and how often repair reverted."""

    routes: Dict[str, NetRoute]
    grid: RoutingGrid
    factors: Dict[str, float]
    reverts: int


def _net_inputs(layout, plan: Optional[RoutePlan]):
    """(name, base tier, pin pairs) per net, in routing order.

    Read from ``plan`` when given, else from :func:`build_plan`.
    """
    k = layout.technology.num_layers
    if plan is None:
        plan = build_plan(layout)
    for i, name in enumerate(plan.nets):
        rows = plan.pairs[plan.offsets[i]:plan.offsets[i + 1]].tolist()
        yield (
            name,
            _clamp(*_TIERS[plan.base_tiers[i]], k),
            [(Point(x1, y1), Point(x2, y2)) for x1, y1, x2, y2 in rows],
        )


def global_route(
    layout, ndr: NonDefaultRule, plan: Optional[RoutePlan] = None
) -> OracleRoute:
    """Initial pass, one rip-up pass and DRC repair, scalar throughout."""
    from repro.drc.checker import OVERFLOW_MARGIN, OVERFLOW_RATIO

    tech = layout.technology
    k = tech.num_layers
    grid = RoutingGrid(tech, layout.core)

    def tier_list(base: Tuple[int, int], bump: int) -> _TierList:
        layers = _candidates(base, k, bump)
        return _TierList(
            layers,
            [(ndr.track_demand(h), ndr.track_demand(v)) for h, v in layers],
        )

    def route_net(name, pairs, tiers) -> NetRoute:
        route = NetRoute(name, [], 0.0, 0.0)
        for p1, p2 in pairs:
            for seg in _route_pair(grid, tiers, p1, p2) or []:
                route.segments.append(seg)
                add_segment(grid, seg.layer, seg.gcells, seg.demand)
        for seg in route.segments:
            layer = tech.layer(seg.layer)
            route.resistance += (
                seg.length_um * layer.unit_resistance
                * ndr.resistance_factor(seg.layer)
            )
            route.capacitance += (
                seg.length_um * layer.unit_capacitance
                * ndr.capacitance_factor(seg.layer)
            )
        return route

    def uncommit(route: NetRoute) -> None:
        for seg in route.segments:
            remove_segment(grid, seg.layer, seg.gcells, seg.demand)

    inputs = {name: (base, pairs) for name, base, pairs in _net_inputs(layout, plan)}
    routes: Dict[str, NetRoute] = {}
    for name, (base, pairs) in inputs.items():
        routes[name] = route_net(name, pairs, tier_list(base, 0))

    def reroute(name: str) -> NetRoute:
        base, pairs = inputs[name]
        uncommit(routes[name])
        return route_net(name, pairs, tier_list(base, 1))

    if grid.num_overflows():
        for name in victims_of(grid.overflow_map() > 0, routes):
            routes[name] = reroute(name)

    threshold = np.maximum(
        grid.capacity * OVERFLOW_RATIO, grid.capacity + OVERFLOW_MARGIN
    )

    def excess() -> float:
        return float(np.maximum(grid.usage - threshold, 0.0).sum())

    reverts = 0
    if int((grid.usage > threshold).sum()) <= 150:
        for _ in range(3):
            victims = victims_of(grid.usage > threshold, routes)
            if excess() <= 0 or not victims:
                break
            improved = False
            for name in victims:
                before = excess()
                if before <= 0:
                    break
                old = routes[name]
                new = reroute(name)
                if excess() < before:
                    routes[name] = new
                    improved = True
                else:
                    uncommit(new)
                    for seg in old.segments:
                        add_segment(grid, seg.layer, seg.gcells, seg.demand)
                    reverts += 1
            if not improved:
                break

    factors = {
        name: 1.0 + 0.3 * max(
            0.0, route_worst_ratio(grid.capacity, grid.usage, route.segments) - 0.8
        )
        for name, route in routes.items()
    }
    return OracleRoute(routes, grid, factors, reverts)
