"""Global router: L/Z-shape routing over the gcell grid with rip-up.

Each net is decomposed into two-pin connections with a nearest-neighbor
(Prim-style) spanning tree and gets candidate layer tiers: its base tier
by size (short nets low, long nets and clocks high — the usual
layer-assignment policy), then the tiers above, then those below.  A pin
pair's two L-shapes and two Z-shapes (corner line through the middle)
cover the same gcells on every tier, so one gather scores every shape on
every tier (:func:`repro.kernels.routegrid.shape_scores`).  The pair
takes the first tier whose best shape scores at most 0.9 (worst
post-route usage/capacity ratio), else the least congested tier.

Rip-up re-routes the nets crossing overflowed gcells one tier up; DRC
repair re-routes those on bins past the checker's hard margin, keeping a
reroute only if it lowers the excess.  Pin pairs and tiers are derived
once per route.

The router honors a :class:`~repro.route.ndr.NonDefaultRule`: a layer's
width scale multiplies the track demand of every segment on it and scales
the net's RC parasitics (R down, C slightly up) — the physical substance
of the paper's Routing Width Scaling operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.errors import RoutingError
from repro.geometry import Point, half_perimeter_wirelength
from repro.kernels import routegrid as _rk
from repro.layout.layout import Layout
from repro.route.grid import RoutingGrid
from repro.route.ndr import NonDefaultRule

#: (horizontal layer, vertical layer) tiers, lowest first.
_TIERS: Tuple[Tuple[int, int], ...] = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))

#: Max net HPWL as a fraction of the core semi-perimeter admitted to each
#: base tier, checked in order.
_TIER_FRACTIONS: Tuple[float, ...] = (0.10, 0.22, 0.42, 0.75, float("inf"))

_CLOCK_TIER = (9, 10)


def _clamp_tier(h: int, v: int, num_layers: int) -> Tuple[int, int]:
    """Tier ``(h, v)`` clamped to a (possibly thin) metal stack."""
    k = num_layers
    h = min(h, k if k % 2 == 1 else k - 1)
    v = min(v, k if k % 2 == 0 else k - 1)
    return max(h, 1), max(v, 1 if k == 1 else 2)


def assign_layer_tier(
    hpwl: float, is_clock: bool, num_layers: int, core_scale: float = 100.0
) -> Tuple[int, int]:
    """(horizontal layer, vertical layer) base tier for a net.

    ``core_scale`` is the core semi-perimeter (µm); tier thresholds scale
    with it so small and large cores get the same relative layer policy.
    The router may still spill the net to higher tiers under congestion.
    """
    if is_clock:
        h, v = _CLOCK_TIER
    else:
        rel = hpwl / max(core_scale, 1e-9)
        base = next(
            i for i, bound in enumerate(_TIER_FRACTIONS) if rel <= bound
        )
        h, v = _TIERS[base]
    return _clamp_tier(h, v, num_layers)


@dataclass
class RouteSegment:
    """One straight routed piece on a single layer."""

    layer: int
    gcells: List[Tuple[int, int]]
    length_um: float
    demand: float


@dataclass
class NetRoute:
    """The routed shape and parasitics of one net."""

    net: str
    segments: List[RouteSegment] = field(default_factory=list)
    resistance: float = 0.0  # Ω (lumped)
    capacitance: float = 0.0  # fF (lumped)

    @property
    def wirelength(self) -> float:
        """Total routed length (µm)."""
        return sum(s.length_um for s in self.segments)


class RoutingResult:
    """Everything the router produced: grid usage + per-net routes."""

    def __init__(self, grid: RoutingGrid, ndr: NonDefaultRule) -> None:
        self.grid = grid
        self.ndr = ndr
        self.routes: Dict[str, NetRoute] = {}
        self._congestion_cache: Dict[str, float] = {}

    @property
    def total_wirelength(self) -> float:
        """Sum of routed lengths over all nets (µm)."""
        return sum(r.wirelength for r in self.routes.values())

    def net_parasitics(self, net: str) -> Tuple[float, float]:
        """(resistance Ω, capacitance fF) of a routed net; (0, 0) if unrouted.

        Both are scaled by the net's congestion factor: a net squeezed
        through overfull gcells detours and couples in the real detailed
        route, which shows up as extra RC.
        """
        r = self.routes.get(net)
        if r is None:
            return (0.0, 0.0)
        k = self.congestion_factor(net)
        return (r.resistance * k, r.capacitance * k)

    def congestion_factor(self, net: str) -> float:
        """Detour/coupling multiplier from the congestion along the route.

        1.0 while the worst gcell on the route is under 80 % utilization,
        then grows with the overflow ratio (a net through a 2×-overfull
        gcell pays ~36 % extra RC).  Cached after first query.
        """
        cached = self._congestion_cache.get(net)
        if cached is not None:
            return cached
        route = self.routes.get(net)
        factor = 1.0
        if route is not None:
            worst = _rk.route_worst_ratio(
                self.grid.capacity, self.grid.usage, route.segments
            )
            factor = 1.0 + 0.3 * max(0.0, worst - 0.8)
        self._congestion_cache[net] = factor
        return factor

    def num_overflows(self) -> int:
        """Congestion violations (gcell × layer bins over capacity)."""
        return self.grid.num_overflows()


#: One straight piece of a candidate shape:
#: (horizontal, lo, hi, fixed, length_um) — cells (lo..hi, fixed) when
#: horizontal, else (fixed, lo..hi).
_Piece = Tuple[bool, int, int, int, float]


class _Tiers(NamedTuple):
    """A net's candidate tiers in probe order, and their table columns."""

    layers: Tuple[Tuple[int, int], ...]
    demands: Tuple[Tuple[float, float], ...]
    columns: Tuple[int, ...]
    tables: _rk.TierTables


class _NetPlan(NamedTuple):
    """A net's pin pairs and candidate tiers, derived once per route."""

    pairs: List[Tuple[Point, Point]]
    tiers: _Tiers  # initial pass
    bumped: _Tiers  # rip-up and DRC repair: one tier up


def _pair_shapes(grid: RoutingGrid, p1: Point, p2: Point) -> List[List[_Piece]]:
    """The candidate shapes of pin pair p1→p2, as straight pieces.

    Two L-shapes, then two Z-shapes (corner line through the middle):
    the Z detours spread demand off the straight-line bbox.  Pins on one
    column or row get one straight piece; coincident pins get none.
    """
    gw = grid.gcell_w
    gh = grid.gcell_h
    nxm = grid.nx - 1
    nym = grid.ny - 1

    def col(x: float) -> int:  # gcell_of's truncating division and clamp
        c = int(x / gw)
        return 0 if c < 0 else (nxm if c > nxm else c)

    def row(y: float) -> int:
        r = int(y / gh)
        return 0 if r < 0 else (nym if r > nym else r)

    left, right = (p1, p2) if p1.x <= p2.x else (p2, p1)
    low, high = (p1, p2) if p1.y <= p2.y else (p2, p1)
    dx = abs(p1.x - p2.x)
    dy = abs(p1.y - p2.y)
    if dx <= 1e-9 and dy <= 1e-9:
        return []
    if dx <= 1e-9:
        return [[(False, row(low.y), row(high.y), col(p1.x), high.y - low.y)]]
    if dy <= 1e-9:
        return [[(True, col(left.x), col(right.x), row(p1.y), right.x - left.x)]]
    # Columns and rows ascend with the coordinates, so every piece's
    # (lo, hi) is already ordered.
    x_mid = (left.x + right.x) / 2.0
    y_mid = (low.y + high.y) / 2.0
    c_lo, c_mid, c_hi = col(left.x), col(x_mid), col(right.x)
    r_lo, r_mid, r_hi = row(low.y), row(y_mid), row(high.y)
    r_left, r_right = row(left.y), row(right.y)
    width = right.x - left.x
    height = high.y - low.y
    return [
        [(True, c_lo, c_hi, r_left, width), (False, r_lo, r_hi, c_hi, height)],
        [(True, c_lo, c_hi, r_right, width), (False, r_lo, r_hi, c_lo, height)],
        [(True, c_lo, c_mid, r_left, x_mid - left.x),
         (False, r_lo, r_hi, c_mid, height),
         (True, c_mid, c_hi, r_right, right.x - x_mid)],
        [(False, r_lo, r_mid, col(low.x), y_mid - low.y),
         (True, c_lo, c_hi, r_mid, width),
         (False, r_mid, r_hi, col(high.x), high.y - y_mid)],
    ]


def _route_pair(
    grid: RoutingGrid, tiers: _Tiers, p1: Point, p2: Point
) -> Optional[List[RouteSegment]]:
    """Route p1→p2: the first comfortable tier's least congested shape.

    Every candidate shape is scored on every tier in one gather (the
    grid does not change inside a pair, so scoring tiers past the pick is
    safe).  The pair takes the first tier whose best shape scores at
    most 0.9, else the first tier with the strictly lowest score, and the
    first best shape on that tier; only that shape's gcell lists are
    materialized, as ascending straight runs.  ``[]`` for coincident
    pins, None when every tier scores inf.
    """
    shapes = _pair_shapes(grid, p1, p2)
    if not shapes:
        return []
    scores = _rk.shape_scores(grid.usage, tiers.tables, shapes)
    best = float("inf")
    pick = -1
    for t, column in enumerate(tiers.columns):
        cong = min(scores[column])
        if cong < best:
            best, pick = cong, t
        if cong <= 0.9:  # fits comfortably: stop at the lowest such tier
            break
    if pick < 0:
        return None
    h_layer, v_layer = tiers.layers[pick]
    h_demand, v_demand = tiers.demands[pick]
    shape = shapes[scores[tiers.columns[pick]].index(best)]
    return [
        RouteSegment(h_layer, [(i, fixed) for i in range(lo, hi + 1)], length, h_demand)
        if horizontal
        else RouteSegment(v_layer, [(fixed, i) for i in range(lo, hi + 1)], length, v_demand)
        for horizontal, lo, hi, fixed, length in shape
    ]


def _spanning_pairs(points: Sequence[Point]) -> List[Tuple[Point, Point]]:
    """Prim-style nearest-neighbor spanning pairs over the pin set.

    High-fanout nets (clocks, resets) fall back to a space-filling chain —
    sort by (x + y) and connect consecutive pins — which is O(n log n) and
    within a small constant of the MST length for clustered pins.
    """
    if len(points) < 2:
        return []
    if len(points) > 24:
        # Serpentine (boustrophedon) chain: sweep y-bands, alternating the
        # x direction per band — close to an MST for spread-out pin sets
        # like clock leaves, and O(n log n).
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


def _commit(route: NetRoute, grid: RoutingGrid) -> None:
    for seg in route.segments:
        grid.add_segment(seg.layer, seg.gcells, seg.demand)


def _uncommit(route: NetRoute, grid: RoutingGrid) -> None:
    for seg in route.segments:
        grid.remove_segment(seg.layer, seg.gcells, seg.demand)


def _finalize_parasitics(
    route: NetRoute, layout: Layout, ndr: NonDefaultRule
) -> None:
    """Lumped RC from the routed segments and the layer constants."""
    tech = layout.technology
    resistance = 0.0
    capacitance = 0.0
    for seg in route.segments:
        layer = tech.layer(seg.layer)
        resistance += (
            seg.length_um * layer.unit_resistance * ndr.resistance_factor(seg.layer)
        )
        capacitance += (
            seg.length_um * layer.unit_capacitance * ndr.capacitance_factor(seg.layer)
        )
    route.resistance = resistance
    route.capacitance = capacitance


def _tier_sets(
    grid: RoutingGrid, ndr: NonDefaultRule
) -> Dict[Tuple[int, int], Tuple[_Tiers, _Tiers]]:
    """Each base tier's candidate tier lists at ``tier_bump`` 0 and 1.

    Covers each base tier :func:`assign_layer_tier` can return on the
    grid's metal stack.  A list holds the base tier, then the tiers above
    it (the preferred spill direction), then those below; ``tier_bump``
    drops leading tiers.  All lists share one set of gather tables.
    """
    k = grid.technology.num_layers
    layers = tuple(_clamp_tier(h, v, k) for h, v in _TIERS)
    demands = tuple((ndr.track_demand(h), ndr.track_demand(v)) for h, v in layers)
    layer_demand = [ndr.track_demand(i) for i in range(1, k + 1)]
    tables = _rk.tier_tables(grid.capacity, layer_demand, layers)

    def tiers(order: List[int]) -> _Tiers:
        return _Tiers(
            tuple(layers[i] for i in order),
            tuple(demands[i] for i in order),
            tuple(order),
            tables,
        )

    sets: Dict[Tuple[int, int], Tuple[_Tiers, _Tiers]] = {}
    for base in layers:
        first = next(
            (i for i, (h, v) in enumerate(_TIERS) if h >= base[0] and v >= base[1]),
            len(_TIERS) - 1,
        )
        ordered = [*range(first, len(_TIERS)), *range(first - 1, -1, -1)]
        sets[base] = (tiers(ordered), tiers(ordered[1:]))
    return sets


def _route_net(
    layout: Layout,
    grid: RoutingGrid,
    ndr: NonDefaultRule,
    net_name: str,
    pairs: Sequence[Tuple[Point, Point]],
    tiers: _Tiers,
) -> NetRoute:
    """Route one net pair by pair, committing each pair's segments."""
    route = NetRoute(net=net_name)
    for p_from, p_to in pairs:
        segs = _route_pair(grid, tiers, p_from, p_to)
        if segs:
            route.segments.extend(segs)
            for seg in segs:
                grid.add_segment(seg.layer, seg.gcells, seg.demand)
    _finalize_parasitics(route, layout, ndr)
    return route


def global_route(
    layout: Layout,
    ndr: Optional[NonDefaultRule] = None,
    ripup_passes: int = 1,
) -> RoutingResult:
    """Route every multi-pin net of ``layout``.

    Args:
        layout: A placed layout (every functional instance placed).
        ndr: Width-scaling rule; default is all-1.0.
        ripup_passes: How many rip-up/re-route rounds to run on nets
            crossing overflowed gcells.

    Returns:
        A :class:`RoutingResult` with grid usage and per-net parasitics.
    """
    tech = layout.technology
    if ndr is None:
        ndr = NonDefaultRule.default(tech.num_layers)
    if ndr.num_layers != tech.num_layers:
        raise RoutingError(
            f"NDR covers {ndr.num_layers} layers, technology has {tech.num_layers}"
        )
    with obs.timed("route.global"):
        grid = RoutingGrid(tech, layout.core)
        result = RoutingResult(grid, ndr)
        clock_nets = layout.netlist.clock_nets()
        tier_sets = _tier_sets(grid, ndr)
        core_scale = layout.core.width + layout.core.height

        # Short nets first: they have the least routing freedom.  A net's
        # pin pairs and tiers do not change within the route, so the
        # initial pass, rip-up and DRC repair share one plan per net.
        nets = [n.name for n in layout.netlist.nets if n.num_sinks >= 1]
        points_map = {name: layout.net_pin_points(name) for name in nets}
        hpwl_map = {name: half_perimeter_wirelength(points_map[name]) for name in nets}
        nets.sort(key=hpwl_map.__getitem__)
        plans: Dict[str, _NetPlan] = {}
        for name in nets:
            if len(points_map[name]) >= 2:
                base = assign_layer_tier(
                    hpwl_map[name], name in clock_nets, tech.num_layers, core_scale
                )
                plans[name] = _NetPlan(_spanning_pairs(points_map[name]), *tier_sets[base])

        with obs.timed("route.initial"):
            for name, plan in plans.items():
                result.routes[name] = _route_net(
                    layout, grid, ndr, name, plan.pairs, plan.tiers
                )

        ripped_up = 0
        with obs.timed("route.ripup"):
            for _ in range(ripup_passes):
                if grid.num_overflows() == 0:
                    break
                victims = _rk.victims_of(
                    grid.overflow_map() > 0, result.routes
                )
                ripped_up += len(victims)
                for name in victims:
                    _uncommit(result.routes[name], grid)
                    plan = plans[name]
                    result.routes[name] = _route_net(
                        layout, grid, ndr, name, plan.pairs, plan.bumped
                    )

        with obs.timed("route.drc_repair"):
            _repair_drc_hotspots(layout, grid, ndr, result, plans)
    if obs.is_enabled():
        obs.count("route.nets_routed", len(result.routes))
        obs.count("route.ripup_victims", ripped_up)
        obs.gauge_set("route.overflows", grid.num_overflows(), keep_max=True)
    return result


def _repair_drc_hotspots(
    layout: Layout,
    grid: RoutingGrid,
    ndr: NonDefaultRule,
    result: RoutingResult,
    plans: Dict[str, _NetPlan],
    max_passes: int = 3,
) -> None:
    """Targeted repair of severely overflowed bins (detailed-router loop).

    The DRC checker only flags bins whose usage exceeds
    ``max(capacity × OVERFLOW_RATIO, capacity + OVERFLOW_MARGIN)``; a real
    detailed router iterates on exactly those hotspots until they stop
    converging.  Each pass rips up only the nets crossing a violating bin
    and re-routes them one tier up, keeping a reroute only if it lowers
    the total excess.  Bins that no pass can relieve (genuinely
    oversubscribed corners) remain — those are the violations the checker
    reports.
    """
    import numpy as np

    from repro.drc.checker import OVERFLOW_MARGIN, OVERFLOW_RATIO

    threshold = np.maximum(
        grid.capacity * OVERFLOW_RATIO, grid.capacity + OVERFLOW_MARGIN
    )

    def excess() -> float:
        return float(np.maximum(grid.usage - threshold, 0.0).sum())

    # A layout whose routing is drowning (hundreds of hot bins) is beyond
    # what a detailed-router repair loop recovers; don't burn time on it —
    # the DRC count will correctly disqualify the configuration.
    if int((grid.usage > threshold).sum()) > 150:
        return

    for _ in range(max_passes):
        current = excess()
        if current <= 0:
            return
        victims = _rk.victims_of(grid.usage > threshold, result.routes)
        if not victims:
            return
        improved = False
        for name in victims:
            old = result.routes[name]
            before = excess()
            if before <= 0:
                break
            _uncommit(old, grid)
            plan = plans[name]
            new = _route_net(layout, grid, ndr, name, plan.pairs, plan.bumped)
            if excess() < before:
                result.routes[name] = new
                improved = True
            else:
                # revert: the reroute did not relieve the hotspot
                _uncommit(new, grid)
                _commit(old, grid)
        result._congestion_cache.clear()
        if not improved:
            return
