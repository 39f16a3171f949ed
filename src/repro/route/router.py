"""Global router: L/Z-shape routing over the gcell grid with rip-up.

Each net is decomposed into two-pin connections with a nearest-neighbor
(Prim-style) spanning tree, assigned a layer tier by its size (short nets
low, long nets and clocks high — the usual layer-assignment policy), and
routed with the less congested of the two L-shapes.  A bounded rip-up pass
re-routes nets crossing overflowed gcells, trying the alternate L and the
next tier up.

The router honors a :class:`~repro.route.ndr.NonDefaultRule`: a layer's
width scale multiplies the track demand of every segment on it and scales
the net's RC parasitics (R down, C slightly up) — the physical substance
of the paper's Routing Width Scaling operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import RoutingError
from repro.geometry import Point
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
    # Clamp for thin metal stacks.
    h = min(h, num_layers if num_layers % 2 == 1 else num_layers - 1)
    v = min(v, num_layers if num_layers % 2 == 0 else num_layers - 1)
    return max(h, 1), max(v, 1 if num_layers == 1 else 2)


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


#: A candidate piece before materialization:
#: (layer, horizontal, lo, hi, fixed, length_um, demand).
_Piece = Tuple[int, bool, int, int, int, float, float]


def _route_two_pin(
    grid: RoutingGrid,
    ndr: NonDefaultRule,
    p1: Point,
    p2: Point,
    h_layer: int,
    v_layer: int,
    memo: Optional[Dict[Tuple[int, bool, int, int, int], float]] = None,
) -> Tuple[float, List[RouteSegment]]:
    """Route p1→p2 with the least congested of two L- and two Z-shapes.

    Returns (worst congestion ratio along the chosen shape, segments).
    The Z-shapes (corner line through the middle) are the detours that
    spread demand off the straight-line bbox.  Candidate shapes are
    probed as (lo, hi, fixed) spans — one slice reduction each — and
    only the winning shape's gcell lists are materialized, as ascending
    straight runs.  On equal congestion the first candidate wins.

    ``memo`` caches probe results by (layer, orientation, span): valid as
    long as the grid is unmutated — the caller may share it across the
    tier loop of one pin pair, where shapes repeat with only the layer
    changing and close-by pins collapse several shapes onto one line.
    """
    h_demand = ndr.track_demand(h_layer)
    v_demand = ndr.track_demand(v_layer)
    dx = abs(p1.x - p2.x)
    dy = abs(p1.y - p2.y)
    # Inlined gcell_of (same truncating division + clamp), hoisted locals:
    # these closures run ~10× per two-pin connection.
    gw = grid.gcell_w
    gh = grid.gcell_h
    nxm = grid.nx - 1
    nym = grid.ny - 1
    line = grid.line_congestion
    if memo is None:
        memo = {}

    def h_piece(x_lo: float, x_hi: float, y: float) -> Tuple[float, _Piece]:
        a = int(x_lo / gw)
        a = 0 if a < 0 else (nxm if a > nxm else a)
        b = int(x_hi / gw)
        b = 0 if b < 0 else (nxm if b > nxm else b)
        fy = int(y / gh)
        fy = 0 if fy < 0 else (nym if fy > nym else fy)
        lo, hi = (a, b) if a <= b else (b, a)
        key = (h_layer, True, lo, hi, fy)
        cong = memo.get(key)
        if cong is None:
            cong = line(h_layer, True, lo, hi, fy, h_demand)
            memo[key] = cong
        return cong, (h_layer, True, lo, hi, fy, x_hi - x_lo, h_demand)

    def v_piece(y_lo: float, y_hi: float, x: float) -> Tuple[float, _Piece]:
        a = int(y_lo / gh)
        a = 0 if a < 0 else (nym if a > nym else a)
        b = int(y_hi / gh)
        b = 0 if b < 0 else (nym if b > nym else b)
        fx = int(x / gw)
        fx = 0 if fx < 0 else (nxm if fx > nxm else fx)
        lo, hi = (a, b) if a <= b else (b, a)
        key = (v_layer, False, lo, hi, fx)
        cong = memo.get(key)
        if cong is None:
            cong = line(v_layer, False, lo, hi, fx, v_demand)
            memo[key] = cong
        return cong, (v_layer, False, lo, hi, fx, y_hi - y_lo, v_demand)

    x_lo, x_hi = min(p1.x, p2.x), max(p1.x, p2.x)
    y_lo, y_hi = min(p1.y, p2.y), max(p1.y, p2.y)
    candidates: List[Tuple[float, List[_Piece]]] = []

    def add(pieces: List[Tuple[float, _Piece]]) -> None:
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
    best_cong, best_pieces = min(candidates, key=lambda c: c[0])
    segs: List[RouteSegment] = []
    for layer, horizontal, lo, hi, fixed, length, demand in best_pieces:
        if horizontal:
            cells = [(ix, fixed) for ix in range(lo, hi + 1)]
        else:
            cells = [(fixed, iy) for iy in range(lo, hi + 1)]
        segs.append(RouteSegment(layer, cells, length, demand))
    return best_cong, segs


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


def _route_net(
    layout: Layout,
    grid: RoutingGrid,
    ndr: NonDefaultRule,
    net_name: str,
    is_clock: bool,
    tier_bump: int = 0,
    points: Optional[Sequence[Point]] = None,
) -> Optional[NetRoute]:
    """Route one net; returns None for single-pin/unplaceable nets."""
    if points is None:
        points = layout.net_pin_points(net_name)
    if len(points) < 2:
        return None
    from repro.geometry import half_perimeter_wirelength

    hpwl = half_perimeter_wirelength(points)
    k = layout.technology.num_layers
    core = layout.core
    base_h, base_v = assign_layer_tier(
        hpwl, is_clock, k, core_scale=core.width + core.height
    )

    # Candidate layer pairs, ordered: base tier, then the tiers above it
    # (the preferred spill direction), then the tiers below.  The router
    # takes the first whose L-shape stays comfortably under capacity,
    # falling back to the least congested — the behaviour of a real
    # congestion-driven layer assigner.
    def clamp(h: int, v: int) -> Tuple[int, int]:
        hh = min(h, k if k % 2 == 1 else k - 1)
        vv = min(v, k if k % 2 == 0 else k - 1)
        return (max(hh, 1), max(vv, 1 if k == 1 else 2))

    base_idx = next(
        (i for i, (h, v) in enumerate(_TIERS) if h >= base_h and v >= base_v),
        len(_TIERS) - 1,
    )
    ordered = list(_TIERS[base_idx:]) + list(reversed(_TIERS[:base_idx]))
    candidates = [clamp(h, v) for h, v in ordered]
    if tier_bump:
        candidates = candidates[min(tier_bump, len(candidates) - 1):]

    route = NetRoute(net=net_name)
    for p_from, p_to in _spanning_pairs(points):
        best_segs: Optional[List[RouteSegment]] = None
        best_cong = float("inf")
        # The grid is unmutated until this pair's winner commits below, so
        # probe results can be shared across the tier attempts.
        memo: Dict[Tuple[int, bool, int, int, int], float] = {}
        for h_layer, v_layer in candidates:
            cong, segs = _route_two_pin(
                grid, ndr, p_from, p_to, h_layer, v_layer, memo
            )
            if cong < best_cong:
                best_cong, best_segs = cong, segs
            if cong <= 0.9:  # fits comfortably: stop at the lowest such tier
                break
        if best_segs is not None:
            route.segments.extend(best_segs)
            for seg in best_segs:
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

        # Short nets first: they have the least routing freedom.
        from repro.geometry import half_perimeter_wirelength

        nets = [n.name for n in layout.netlist.nets if n.num_sinks >= 1]
        points_map = {name: layout.net_pin_points(name) for name in nets}
        hpwl_map = {
            name: half_perimeter_wirelength(points_map[name]) for name in nets
        }
        nets.sort(key=hpwl_map.__getitem__)

        with obs.timed("route.initial"):
            for name in nets:
                route = _route_net(
                    layout, grid, ndr, name, name in clock_nets,
                    points=points_map[name],
                )
                if route is not None:
                    result.routes[name] = route

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
                    old = result.routes[name]
                    _uncommit(old, grid)
                    new = _route_net(
                        layout, grid, ndr, name, name in clock_nets, tier_bump=1
                    )
                    if new is not None:
                        result.routes[name] = new
                    else:  # pragma: no cover - defensive; nets stay routable
                        _commit(old, grid)

        with obs.timed("route.drc_repair"):
            _repair_drc_hotspots(layout, grid, ndr, result, clock_nets)
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
    clock_nets,
    max_passes: int = 3,
) -> None:
    """Targeted repair of severely overflowed bins (detailed-router loop).

    The DRC checker only flags bins whose usage exceeds
    ``max(capacity × OVERFLOW_RATIO, capacity + OVERFLOW_MARGIN)``; a real
    detailed router iterates on exactly those hotspots until they stop
    converging.  Each pass rips up only the nets crossing a violating bin
    and re-routes them with escalating freedom.  Bins that no pass can
    relieve (genuinely oversubscribed corners) remain — those are the
    violations the checker reports.
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
            new = _route_net(
                layout, grid, ndr, name, name in clock_nets, tier_bump=1
            )
            if new is not None and excess() < before:
                result.routes[name] = new
                improved = True
            else:
                # revert: the reroute did not relieve the hotspot
                if new is not None:
                    _uncommit(new, grid)
                _commit(old, grid)
        result._congestion_cache.clear()
        if not improved:
            return
