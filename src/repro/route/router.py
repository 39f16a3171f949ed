"""Global router: L/Z-shape routing over the gcell grid with rip-up.

Each net is decomposed into two-pin connections with a nearest-neighbor
(Prim-style) spanning tree, or a serpentine chain for high-fanout nets
(:func:`repro.kernels.routegrid.spanning_pairs`), and gets candidate
layer tiers: its base tier by size (short nets low, long nets and clocks
high — the usual layer-assignment policy), then the tiers above, then
those below.  A pin pair's two L-shapes and two Z-shapes (corner line
through the middle) cover the same gcells on every tier, so one gather
of the route's ratio grid scores every shape on every tier
(:func:`repro.kernels.routegrid.code_scores`).  The pair takes the first
tier whose best shape scores at most 0.9 (worst post-route
usage/capacity ratio), else the least congested tier.

Rip-up re-routes the nets crossing overflowed gcells one tier up; DRC
repair re-routes those on bins past the checker's hard margin, keeping a
reroute only if it lowers the excess.

Each input is derived once, at the level where it can change:

* per placement, a :class:`RoutePlan`: the nets in HPWL order, each
  net's base tier and every spanning pin pair, in flat arrays built by
  numpy passes over the pin table's flat pin slots.  The operator memo
  keeps one per placed layout and passes it to every re-route of that
  layout (``global_route(..., plan=...)``);
* per route, the pair tables (:class:`_PairTables`): every pair's
  candidate shapes, their straight pieces and gather codes, and the
  ratio grid (:func:`repro.kernels.routegrid.ratio_grid`), each bin's
  ``(usage + demand) / cap``, rewritten cell by cell as demand is
  committed.  The initial pass, rip-up and DRC repair score from them
  and record each pair's pick (shape and tier column), so rip-up
  victims come from one vector pass over the picked cells, and each
  net's R and C are summed from its picks;
* per route, the congestion factors: every net's factor in one vector
  pass over the picked cells and the grid's final usage, read by STA
  through :meth:`RoutingResult.wire_rc`.

Nets are looked up by plan position.  A :class:`NetRoute` per net, with
its :class:`RouteSegment` spans ``(horizontal, lo, hi, fixed)`` on one
layer, is built from the picks only when :attr:`RoutingResult.routes`
is read.

The router honors a :class:`~repro.route.ndr.NonDefaultRule`: a layer's
width scale multiplies the track demand of every segment on it and scales
the net's RC parasitics (R down, C slightly up) — the physical substance
of the paper's Routing Width Scaling operator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import RoutingError
from repro.kernels import routegrid as _rk
from repro.layout.layout import Layout
from repro.layout.pins import pin_table
from repro.route.grid import RoutingGrid
from repro.route.ndr import NonDefaultRule

#: (horizontal layer, vertical layer) tiers, lowest first.
_TIERS: Tuple[Tuple[int, int], ...] = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))

#: Max net HPWL as a fraction of the core semi-perimeter admitted to each
#: base tier, checked in order.
_TIER_FRACTIONS: Tuple[float, ...] = (0.10, 0.22, 0.42, 0.75, float("inf"))

#: Clock nets' base tier: the top one.
_CLOCK_TIER = len(_TIERS) - 1


def _clamp_tier(h: int, v: int, num_layers: int) -> Tuple[int, int]:
    """Tier ``(h, v)`` clamped to a (possibly thin) metal stack."""
    k = num_layers
    h = min(h, k if k % 2 == 1 else k - 1)
    v = min(v, k if k % 2 == 0 else k - 1)
    return max(h, 1), max(v, 1 if k == 1 else 2)


def _base_tier(hpwl: float, is_clock: bool, core_scale: float) -> int:
    """Index into ``_TIERS`` of a net's base tier (before clamping)."""
    if is_clock:
        return _CLOCK_TIER
    rel = hpwl / max(core_scale, 1e-9)
    return next(i for i, bound in enumerate(_TIER_FRACTIONS) if rel <= bound)


def assign_layer_tier(
    hpwl: float, is_clock: bool, num_layers: int, core_scale: float = 100.0
) -> Tuple[int, int]:
    """(horizontal layer, vertical layer) base tier for a net.

    ``core_scale`` is the core semi-perimeter (µm); tier thresholds scale
    with it so small and large cores get the same relative layer policy.
    The router may still spill the net to higher tiers under congestion.
    """
    h, v = _TIERS[_base_tier(hpwl, is_clock, core_scale)]
    return _clamp_tier(h, v, num_layers)


@dataclass
class RouteSegment:
    """One straight routed piece on a single layer.

    The piece covers gcells ``(lo..hi, fixed)`` when ``horizontal``, else
    ``(fixed, lo..hi)``.
    """

    __slots__ = ("layer", "horizontal", "lo", "hi", "fixed", "length_um", "demand")

    layer: int
    horizontal: bool
    lo: int
    hi: int
    fixed: int
    length_um: float
    demand: float

    @property
    def gcells(self) -> List[Tuple[int, int]]:
        """The covered gcells as an ascending straight run."""
        fixed = self.fixed
        if self.horizontal:
            return [(i, fixed) for i in range(self.lo, self.hi + 1)]
        return [(fixed, i) for i in range(self.lo, self.hi + 1)]


@dataclass
class NetRoute:
    """The routed shape and parasitics of one net."""

    __slots__ = ("net", "segments", "resistance", "capacitance")

    net: str
    segments: List[RouteSegment]
    resistance: float  # Ω (lumped)
    capacitance: float  # fF (lumped)

    @property
    def wirelength(self) -> float:
        """Total routed length (µm)."""
        return sum(s.length_um for s in self.segments)


class RoutePlan:
    """The route inputs that depend on the placement alone.

    Built by :meth:`build` once per placed layout and valid for every
    route of that layout, whatever its NDR, until the layout moves a
    cell or its netlist changes (:meth:`is_stale`).  It holds no Python
    object per pin pair: the spanning pairs of all nets sit in one float
    array.

    Attributes:
        layout: The layout the plan was built for.
        nets: Names of the nets to route (at least two pin points),
            shortest HPWL first.
        base_tiers: Each net's base tier, an index into ``_TIERS``.
        pairs: ``(P, 4)`` float64 rows ``(x1, y1, x2, y2)``: every net's
            spanning pin pairs, in net order.
        offsets: ``len(nets) + 1`` row offsets; net ``i`` owns
            ``pairs[offsets[i]:offsets[i + 1]]``.
        position: Net name → its index in :attr:`nets`.
        net_ids: Each net's index in the netlist's net order (``-1`` for
            a name the netlist lacks), so STA gathers by plan position.
        stamp: The netlist's ``mod_count`` and every row occupancy's
            ``version`` when the plan was made.
    """

    __slots__ = (
        "layout", "nets", "base_tiers", "pairs", "offsets", "position",
        "net_ids", "stamp",
    )

    def __init__(
        self,
        layout: Layout,
        nets: List[str],
        base_tiers: bytes,
        pairs: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.layout = layout
        self.nets = nets
        self.base_tiers = base_tiers
        self.pairs = pairs
        self.offsets = offsets
        self.position: Dict[str, int] = {name: i for i, name in enumerate(nets)}
        index = pin_table(layout.netlist).net_index
        self.net_ids = np.array(
            [index.get(name, -1) for name in nets], dtype=np.intp
        )
        self.stamp = _layout_stamp(layout)

    def is_stale(self) -> bool:
        """Whether the layout moved a cell or its netlist changed since."""
        return _layout_stamp(self.layout) != self.stamp

    @classmethod
    def build(cls, layout: Layout) -> "RoutePlan":
        """Pin pairs and base tiers of every routable net of ``layout``.

        A net is routed when it has a sink and at least two pin points
        (a port without a position is left out).  Short nets come first:
        they have the least routing freedom.

        Raises:
            LayoutError: Naming the first unplaced pin instance of a net
                with a sink, in netlist order.
        """
        with obs.timed("route.plan"):
            netlist = layout.netlist
            table = pin_table(netlist)
            slots, offsets, _ = table.net_slots()
            counts = np.diff(offsets)
            with_sinks = np.flatnonzero(np.array(table.net_sinks) > 0)
            slots = slots[_rk.ranges(offsets[with_sinks], counts[with_sinks])]
            x, y = layout.slot_points(slots)
            # a port without a position is left out
            net = np.repeat(with_sinks, counts[with_sinks])
            positioned = ~np.isnan(x)
            x, y, net = x[positioned], y[positioned], net[positioned]
            n_points = np.bincount(net, minlength=len(counts))
            routed = np.flatnonzero(n_points >= 2)
            keep = n_points[net] >= 2
            x, y = x[keep], y[keep]
            n_points = n_points[routed]
            first = np.cumsum(n_points) - n_points
            hpwl = np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first)
            hpwl += np.maximum.reduceat(y, first) - np.minimum.reduceat(y, first)
            order = np.argsort(hpwl, kind="stable")
            names = list(table.net_index)
            nets = [names[k] for k in routed[order].tolist()]
            core = layout.core
            tiers = np.searchsorted(
                _TIER_FRACTIONS,
                hpwl[order] / max(core.width + core.height, 1e-9),
            )
            clock_nets = netlist.clock_nets()
            tiers[np.array([name in clock_nets for name in nets], dtype=bool)] = (
                _CLOCK_TIER
            )
            pairs = _rk.spanning_pairs(x, y, n_points)
            n_pairs = n_points - 1
            pairs = pairs[
                _rk.ranges((np.cumsum(n_pairs) - n_pairs)[order], n_pairs[order])
            ]
            pair_offsets = np.zeros(len(nets) + 1, dtype=np.intp)
            np.cumsum(n_pairs[order], out=pair_offsets[1:])
        return cls(
            layout, nets, tiers.astype(np.uint8).tobytes(), pairs, pair_offsets
        )


def _layout_stamp(layout: Layout) -> Tuple[int, Tuple[int, ...]]:
    """The netlist's ``mod_count`` and every row occupancy's ``version``."""
    return (
        layout.netlist.mod_count,
        tuple(occ.version for occ in layout.occupancy),
    )


class RoutingResult:
    """Everything the router produced: grid usage, picks and parasitics.

    Attributes:
        grid: The routing grid with the committed usage.
        ndr: The width-scaling rule of the route.
        plan: The :class:`RoutePlan` the route used (``None`` for an
            empty result); pass it to the next route of the same layout.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        ndr: NonDefaultRule,
        plan: Optional[RoutePlan] = None,
        picks: Optional[Tuple[array, array]] = None,
        parasitics: Optional[Tuple[List[float], List[float]]] = None,
        factors: Optional[np.ndarray] = None,
    ) -> None:
        self.grid = grid
        self.ndr = ndr
        self.plan = plan
        # Each pair's (shape, tier column) pick, and each net's lumped
        # (R, C) and congestion factor, by plan position.
        self._picks = picks
        self._resistance, self._capacitance = (
            ([], []) if parasitics is None else parasitics
        )
        self._factors = np.zeros(0) if factors is None else factors
        self._routes: Optional[Dict[str, NetRoute]] = None

    @property
    def routes(self) -> Dict[str, NetRoute]:
        """Per-net routes, in the plan's net order, built on first read."""
        if self._routes is None:
            self._routes = self._net_routes()
        return self._routes

    @property
    def total_wirelength(self) -> float:
        """Sum of routed lengths over all nets (µm)."""
        return sum(r.wirelength for r in self.routes.values())

    def wire_rc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every net's netlist index and (R Ω, C fF), by plan position.

        Both are scaled by the net's congestion factor: a net squeezed
        through overfull gcells detours and couples in the real detailed
        route, which shows up as extra RC.  A net that routed no segment
        reads (0, 0).
        """
        if self.plan is None:
            return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
        k = self._factors
        return (
            self.plan.net_ids,
            np.array(self._resistance) * k,
            np.array(self._capacitance) * k,
        )

    def congestion_factor(self, net: str) -> float:
        """Detour/coupling multiplier from the congestion along the route.

        1.0 while the worst gcell on the route is under 80 % utilization,
        then grows with the overflow ratio (a net through a 2×-overfull
        gcell pays ~36 % extra RC); 1.0 for a net without routed cells or
        not routed at all.  Every net's factor is computed from the grid
        usage when the route finished; a later change to the usage does
        not move it.
        """
        i = None if self.plan is None else self.plan.position.get(net)
        return 1.0 if i is None else float(self._factors[i])

    def _net_routes(self) -> Dict[str, NetRoute]:
        """Every net's segments read back from its picks, and its R/C."""
        if self.plan is None or self._picks is None:
            return {}
        plan = self.plan
        columns, _ = _tier_sets(self.grid, self.ndr)
        segments_of = _PairTables(self.grid, plan.pairs).segments
        pick_shape, pick_column = self._picks
        offsets = plan.offsets.tolist()
        routes: Dict[str, NetRoute] = {}
        for i, name in enumerate(plan.nets):
            segments: List[RouteSegment] = []
            for p in range(offsets[i], offsets[i + 1]):
                if pick_shape[p] >= 0:
                    column = pick_column[p]
                    segments += segments_of(
                        pick_shape[p], columns.layers[column], columns.demands[column]
                    )
            routes[name] = NetRoute(
                name, segments, self._resistance[i], self._capacitance[i]
            )
        return routes

    def num_overflows(self) -> int:
        """Congestion violations (gcell × layer bins over capacity)."""
        return self.grid.num_overflows()


class _Tiers(NamedTuple):
    """A net's candidate tiers in probe order, and their ratio-grid columns."""

    layers: Tuple[Tuple[int, int], ...]
    demands: Tuple[Tuple[float, float], ...]
    columns: Tuple[int, ...]


def _int_array(values: np.ndarray) -> array:
    """``values`` as an ``array("i")``, for fast scalar reads from Python."""
    out = array("i")
    out.frombytes(values.astype(np.intc, copy=False).tobytes())
    return out


def _pair_pieces(grid: RoutingGrid, pairs: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Every pin pair's candidate shapes as straight pieces, in flat arrays.

    A pair gets two L-shapes, then two Z-shapes (corner line through the
    middle): the Z detours spread demand off the straight-line bbox.
    Pins on one column or row get one straight piece; coincident pins
    get none.  Returns ``shape_of`` (pair ``p`` owns shapes
    ``shape_of[p]:shape_of[p + 1]``), ``piece_of`` (shape ``s`` owns
    pieces ``piece_of[s]:piece_of[s + 1]``) and the pieces' horizontal
    flags, ``lo``, ``hi``, ``fixed`` and lengths.  A piece covers cells
    ``(lo..hi, fixed)`` when horizontal, else ``(fixed, lo..hi)``.
    """
    nx, ny = grid.nx, grid.ny
    gw, gh = grid.gcell_w, grid.gcell_h

    def col(x: np.ndarray) -> np.ndarray:  # gcell_of's truncation, clamp
        return np.clip((x / gw).astype(np.intc), 0, nx - 1)

    def row(y: np.ndarray) -> np.ndarray:
        return np.clip((y / gh).astype(np.intc), 0, ny - 1)

    x1, y1, x2, y2 = pairs.T
    flat_x = np.abs(x1 - x2) <= 1e-9
    flat_y = np.abs(y1 - y2) <= 1e-9
    # The left/right and low/high pin of each pair, ties to p1.
    swap_x = ~(x1 <= x2)
    swap_y = ~(y1 <= y2)
    left_x, left_y = np.where(swap_x, x2, x1), np.where(swap_x, y2, y1)
    right_x, right_y = np.where(swap_x, x1, x2), np.where(swap_x, y1, y2)
    low_x, low_y = np.where(swap_y, x2, x1), np.where(swap_y, y2, y1)
    high_x, high_y = np.where(swap_y, x1, x2), np.where(swap_y, y1, y2)
    x_mid = (left_x + right_x) / 2.0
    y_mid = (low_y + high_y) / 2.0
    # Columns and rows ascend with the coordinates, so every piece's
    # (lo, hi) is already ordered.
    c_lo, c_mid, c_hi = col(left_x), col(x_mid), col(right_x)
    r_lo, r_mid, r_hi = row(low_y), row(y_mid), row(high_y)
    width = right_x - left_x
    height = high_y - low_y
    # Each kind of pair and its pieces: (shape, horizontal, lo, hi,
    # fixed, length).  Coincident pins have none.
    kinds = (
        (flat_x & ~flat_y, ((0, False, r_lo, r_hi, col(x1), height),)),
        (flat_y & ~flat_x, ((0, True, c_lo, c_hi, row(y1), width),)),
        (~flat_x & ~flat_y, (
            (0, True, c_lo, c_hi, row(left_y), width),
            (0, False, r_lo, r_hi, c_hi, height),
            (1, True, c_lo, c_hi, row(right_y), width),
            (1, False, r_lo, r_hi, c_lo, height),
            (2, True, c_lo, c_mid, row(left_y), x_mid - left_x),
            (2, False, r_lo, r_hi, c_mid, height),
            (2, True, c_mid, c_hi, row(right_y), right_x - x_mid),
            (3, False, r_lo, r_mid, col(low_x), y_mid - low_y),
            (3, True, c_lo, c_hi, r_mid, width),
            (3, False, r_mid, r_hi, col(high_x), high_y - y_mid),
        )),
    )
    n_shapes = np.zeros(len(pairs), dtype=np.intp)
    n_pieces = np.zeros(len(pairs), dtype=np.intp)
    for mask, pieces in kinds:
        n_shapes[mask] = pieces[-1][0] + 1
        n_pieces[mask] = len(pieces)
    shape_of = np.zeros(len(pairs) + 1, dtype=np.intp)
    np.cumsum(n_shapes, out=shape_of[1:])
    piece_first = np.cumsum(n_pieces) - n_pieces
    n_total = int(n_pieces.sum())
    piece_of = np.full(int(shape_of[-1]) + 1, n_total, dtype=np.intp)
    p_h = np.zeros(n_total, dtype=bool)
    p_lo = np.zeros(n_total, dtype=np.intc)
    p_hi = np.zeros(n_total, dtype=np.intc)
    p_fixed = np.zeros(n_total, dtype=np.intc)
    p_len = np.zeros(n_total)
    for mask, pieces in kinds:
        idx = np.flatnonzero(mask)
        for j, (shape, is_h, lo, hi, fixed, length) in enumerate(pieces):
            at = piece_first[idx] + j
            if j == 0 or pieces[j - 1][0] != shape:
                piece_of[shape_of[idx] + shape] = at
            p_h[at] = is_h
            p_lo[at] = lo[idx]
            p_hi[at] = hi[idx]
            p_fixed[at] = fixed[idx]
            p_len[at] = length[idx]
    return shape_of, piece_of, p_h, p_lo, p_hi, p_fixed, p_len


class _PairTables:
    """Every pin pair's candidate shapes, as flat per-route tables.

    Pair ``p`` owns shapes ``shape_of[p]:shape_of[p + 1]`` and shape
    ``s`` owns straight pieces ``piece_of[s]:piece_of[s + 1]``
    (``horizontal``, ``lo``, ``hi``, ``fixed``, ``length``; see
    :func:`_pair_pieces`) and gather codes
    ``codes[code_of[s]:code_of[s + 1]]``; ``starts[s]`` is that code
    offset relative to the pair's first shape.  The scalar tables are
    ``array`` objects for fast reads from the pair loop.
    """

    def __init__(self, grid: RoutingGrid, pairs: np.ndarray) -> None:
        shape_of, piece_of, p_h, p_lo, p_hi, p_fixed, p_len = _pair_pieces(
            grid, pairs
        )
        codes, code_of_piece = _rk.piece_codes(
            grid.nx, grid.ny, p_h, p_lo, p_hi, p_fixed
        )
        code_of = code_of_piece[piece_of]
        pair_of_shape = np.repeat(np.arange(len(pairs)), np.diff(shape_of))
        self.codes = codes
        self.starts = code_of[:-1] - code_of[shape_of[pair_of_shape]]
        self.shape_of = _int_array(shape_of)
        self.piece_of = _int_array(piece_of)
        self.code_of = _int_array(code_of)
        self.horizontal = array("b", p_h.tobytes())
        self.lo = _int_array(p_lo)
        self.hi = _int_array(p_hi)
        self.fixed = _int_array(p_fixed)
        self.length = array("d", p_len.tobytes())

    def segments(
        self,
        shape: int,
        layers: Tuple[int, int],
        demands: Tuple[float, float],
    ) -> List[RouteSegment]:
        """Shape ``shape``'s pieces on tier ``layers`` with ``demands``."""
        horizontal, lo, hi, fixed, length = (
            self.horizontal, self.lo, self.hi, self.fixed, self.length
        )
        return [
            RouteSegment(layers[0], True, lo[j], hi[j], fixed[j], length[j], demands[0])
            if horizontal[j]
            else RouteSegment(layers[1], False, lo[j], hi[j], fixed[j], length[j], demands[1])
            for j in range(self.piece_of[shape], self.piece_of[shape + 1])
        ]


def _route_pair(
    ratio: np.ndarray, tiers: _Tiers, tables: _PairTables, p: int
) -> Tuple[int, int]:
    """Pick pair ``p``'s shape and tier column; ``(-1, -1)`` for none.

    ``ratio`` is the route's ratio table
    (:func:`repro.kernels.routegrid.ratio_grid`).  Every candidate shape
    is scored on every tier in one gather (the grid does not change
    inside a pair, so scoring tiers past the pick is safe).  The pair
    takes the first tier whose best shape scores at most 0.9, else the
    first tier with the strictly lowest score, and the first best shape
    on that tier.  No pick for coincident pins or when every tier scores
    inf.
    """
    s0 = tables.shape_of[p]
    s1 = tables.shape_of[p + 1]
    if s0 == s1:
        return -1, -1
    code_of = tables.code_of
    scores = _rk.code_scores(
        ratio, tables.codes[code_of[s0] : code_of[s1]], tables.starts[s0:s1]
    )
    best = float("inf")
    pick = -1
    for t, column in enumerate(tiers.columns):
        cong = min(scores[column])
        if cong < best:
            best, pick = cong, t
        if cong <= 0.9:  # fits comfortably: stop at the lowest such tier
            break
    if pick < 0:
        return -1, -1
    column = tiers.columns[pick]
    return s0 + scores[column].index(best), column


def _tier_sets(
    grid: RoutingGrid, ndr: NonDefaultRule
) -> Tuple[_Tiers, Dict[Tuple[int, int], Tuple[_Tiers, _Tiers]]]:
    """Every tier column, and each base tier's candidate tier lists.

    The first value lists all of ``_TIERS``, clamped to the grid's metal
    stack, in column order.  The dict covers each base tier
    :func:`assign_layer_tier` can return on that stack; its candidate
    lists at ``tier_bump`` 0 and 1 hold the base tier, then the tiers
    above it (the preferred spill direction), then those below;
    ``tier_bump`` drops leading tiers.  All lists index one ratio grid's
    columns.
    """
    k = grid.technology.num_layers
    layers = tuple(_clamp_tier(h, v, k) for h, v in _TIERS)
    demands = tuple((ndr.track_demand(h), ndr.track_demand(v)) for h, v in layers)

    def tiers(order: List[int]) -> _Tiers:
        return _Tiers(
            tuple(layers[i] for i in order),
            tuple(demands[i] for i in order),
            tuple(order),
        )

    sets: Dict[Tuple[int, int], Tuple[_Tiers, _Tiers]] = {}
    for base in layers:
        first = next(
            (i for i, (h, v) in enumerate(_TIERS) if h >= base[0] and v >= base[1]),
            len(_TIERS) - 1,
        )
        ordered = [*range(first, len(_TIERS)), *range(first - 1, -1, -1)]
        sets[base] = (tiers(ordered), tiers(ordered[1:]))
    return tiers(list(range(len(_TIERS)))), sets


def _ratio_grid(
    grid: RoutingGrid, ndr: NonDefaultRule, columns: _Tiers
) -> _rk.RatioGrid:
    """The ratio grid of ``grid``'s usage under ``ndr`` on the tier ``columns``."""
    demand = [ndr.track_demand(k) for k in range(1, grid.technology.num_layers + 1)]
    return _rk.ratio_grid(grid.usage, grid.capacity, demand, columns.layers)


#: What one pick commits on a tier column: per side (h, then v), the
#: layer's first flat bin, the signed track delta and the ratio arguments
#: of :func:`repro.kernels.routegrid.apply_line`.
_Line = Tuple[int, float, _rk.LineRatio, int, float, _rk.LineRatio]


class _Route:
    """One route's mutable state: the grid, its ratio grid and every pick.

    ``pick_shape[p]`` is pair ``p``'s routed shape (``-1``: none) and
    ``pick_column[p]`` its tier column.  A net's pieces are committed,
    uncommitted and read back from its picks; every commit keeps the
    ratio grid in step with the usage.
    """

    def __init__(
        self, grid: RoutingGrid, ndr: NonDefaultRule, plan: RoutePlan
    ) -> None:
        self.grid = grid
        self.ndr = ndr
        self.plan = plan
        self.columns, tier_sets = _tier_sets(grid, ndr)
        self.by_base = [tier_sets[t] for t in self.columns.layers]
        ratio_grid = _ratio_grid(grid, ndr, self.columns)
        self.index = ratio_grid.index
        self.ratio = ratio_grid.ratio
        self.tables = _PairTables(grid, plan.pairs)
        n_pairs = len(plan.pairs)
        self.pick_shape = array("i", [-1]) * n_pairs
        self.pick_column = array("i", [0]) * n_pairs
        self.net_of_pair = np.repeat(
            np.arange(len(plan.nets), dtype=np.intc), np.diff(plan.offsets)
        )
        self.offsets = plan.offsets.tolist()
        # Per sign, each tier column's line (see _Line).
        self.flat = grid.usage.reshape(-1).data
        view = ratio_grid.ratio.reshape(-1).data
        layer_bins = grid.nx * grid.ny
        self.lines: Dict[float, List[_Line]] = {1.0: [], -1.0: []}
        for (h, v), (h_demand, v_demand) in zip(
            self.columns.layers, self.columns.demands
        ):
            h_ratio = (view, ratio_grid.cap, h_demand, ratio_grid.shifts[h - 1])
            v_ratio = (view, ratio_grid.cap, v_demand, ratio_grid.shifts[v - 1])
            for sign, lines in self.lines.items():
                lines.append((
                    (h - 1) * layer_bins, sign * h_demand, h_ratio,
                    (v - 1) * layer_bins, sign * v_demand, v_ratio,
                ))

    def initial(self) -> None:
        """Route every net on its base tier list, in plan order."""
        by_base, base_tiers = self.by_base, self.plan.base_tiers
        for i in range(len(self.plan.nets)):
            self.route_net(i, by_base[base_tiers[i]][0])

    def ripup(self, passes: int) -> int:
        """Re-route the nets on overflowed bins one tier up, ``passes`` times.

        Each pass takes its victims from one scan before re-routing any;
        returns how many re-routes ran.
        """
        ripped_up = 0
        for _ in range(passes):
            if self.grid.num_overflows() == 0:
                break
            victims = self.victims(self.grid.overflow_map() > 0)
            ripped_up += len(victims)
            for i in victims:
                self.reroute(i)
        return ripped_up

    def reroute(self, i: int) -> None:
        """Uncommit net ``i`` and route it again one tier up."""
        self.commit(i, -1.0)
        self.route_net(i, self.by_base[self.plan.base_tiers[i]][1])

    def _apply(self, shape: int, column: int, sign: float) -> None:
        """Add ``sign`` × the demand of one picked shape's pieces."""
        t = self.tables
        flat = self.flat
        ny = self.grid.ny
        h_first, h_delta, h_ratio, v_first, v_delta, v_ratio = (
            self.lines[sign][column]
        )
        horizontal, lo, hi, fixed = t.horizontal, t.lo, t.hi, t.fixed
        for j in range(t.piece_of[shape], t.piece_of[shape + 1]):
            if horizontal[j]:
                _rk.apply_line(
                    flat, h_first, ny, True, lo[j], hi[j], fixed[j], h_delta, h_ratio
                )
            else:
                _rk.apply_line(
                    flat, v_first, ny, False, lo[j], hi[j], fixed[j], v_delta, v_ratio
                )

    def route_net(self, i: int, tiers: _Tiers) -> None:
        """Route net ``i`` pair by pair, committing each pair's pick."""
        ratio = self.ratio
        tables = self.tables
        pick_shape, pick_column = self.pick_shape, self.pick_column
        for p in range(self.offsets[i], self.offsets[i + 1]):
            shape, column = _route_pair(ratio, tiers, tables, p)
            pick_shape[p] = shape
            if shape >= 0:
                pick_column[p] = column
                self._apply(shape, column, 1.0)

    def commit(self, i: int, sign: float = 1.0) -> None:
        """Commit (``sign`` 1) or uncommit (-1) net ``i``'s picks."""
        pick_shape, pick_column = self.pick_shape, self.pick_column
        for p in range(self.offsets[i], self.offsets[i + 1]):
            if pick_shape[p] >= 0:
                self._apply(pick_shape[p], pick_column[p], sign)

    def _picked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The routed pairs, their shapes and their tier columns."""
        picks = np.frombuffer(self.pick_shape, dtype=np.intc)
        routed = np.flatnonzero(picks >= 0)
        columns = np.frombuffer(self.pick_column, dtype=np.intc)[routed]
        return routed, picks[routed], columns

    def routed_cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """(flat grid bin, net index) of every picked cell, in net order."""
        routed, shapes, columns = self._picked()
        code_of = np.frombuffer(self.tables.code_of, dtype=np.intc)
        first = code_of[shapes]
        counts = code_of[shapes + 1] - first
        codes = self.tables.codes[_rk.ranges(first, counts)]
        bins = self.index[codes, np.repeat(columns, counts)]
        return bins, np.repeat(self.net_of_pair[routed], counts)

    def victims(self, mask: np.ndarray) -> List[int]:
        """Nets with a picked cell set in the ``(K, nx, ny)`` mask, in order."""
        bins, nets = self.routed_cells()
        return np.unique(nets[mask.ravel()[bins]]).tolist()

    def congestion_factors(self) -> np.ndarray:
        """Every net's factor from its worst cell's use/cap ratio.

        A net's worst ratio is the max over its picked cells with
        capacity, 0.0 when it has none.
        """
        with obs.timed("route.congestion"):
            bins, nets = self.routed_cells()
            grid = self.grid
            n_nets = len(self.plan.nets)
            cap = grid.capacity.ravel().take(bins)
            ratio = np.zeros(len(bins))
            np.divide(grid.usage.ravel().take(bins), cap, out=ratio,
                      where=cap > 0)
            counts = np.bincount(nets, minlength=n_nets)
            has_cells = counts > 0
            worst = np.zeros(n_nets)
            if len(bins):
                starts = np.cumsum(counts) - counts
                worst[has_cells] = np.maximum.reduceat(
                    ratio, starts[has_cells]
                )
            return 1.0 + 0.3 * np.maximum(worst - 0.8, 0.0)

    def parasitics(self) -> Tuple[List[float], List[float]]:
        """Every net's lumped (R Ω, C fF), summed from its picked pieces.

        A piece of length ``l`` on layer ``k`` adds ``l × unit_r(k) ×
        r_factor(k)`` and ``l × unit_c(k) × c_factor(k)``.  The products
        are taken in numpy; each net sums its pieces' products in piece
        order, one by one from 0.0, as a loop over segments would (a
        numpy sum is not sequential).
        """
        tech = self.grid.technology
        ndr = self.ndr
        per_layer = np.array([
            (
                tech.layer(k).unit_resistance,
                ndr.resistance_factor(k),
                tech.layer(k).unit_capacitance,
                ndr.capacitance_factor(k),
            )
            for k in range(1, tech.num_layers + 1)
        ]).T
        routed, shapes, columns = self._picked()
        piece_of = np.frombuffer(self.tables.piece_of, dtype=np.intc)
        first = piece_of[shapes]
        counts = piece_of[shapes + 1] - first
        pieces = _rk.ranges(first, counts)
        side = np.array(self.columns.layers, dtype=np.intp) - 1
        horizontal = np.frombuffer(self.tables.horizontal, dtype=bool)[pieces]
        layer = side[np.repeat(columns, counts), np.where(horizontal, 0, 1)]
        unit_r, f_r, unit_c, f_c = per_layer[:, layer]
        length = np.frombuffer(self.tables.length)[pieces]
        r_terms = (length * unit_r * f_r).tolist()
        c_terms = (length * unit_c * f_c).tolist()
        n_nets = len(self.plan.nets)
        per_net = np.bincount(
            np.repeat(self.net_of_pair[routed], counts), minlength=n_nets
        )
        resistance: List[float] = []
        capacitance: List[float] = []
        start = 0
        for end in np.cumsum(per_net).tolist():
            r = c = 0.0
            for j in range(start, end):
                r += r_terms[j]
                c += c_terms[j]
            resistance.append(r)
            capacitance.append(c)
            start = end
        return resistance, capacitance

    def result(self) -> RoutingResult:
        """The route's outcome: its grid, picks, parasitics and factors."""
        return RoutingResult(
            self.grid,
            self.ndr,
            self.plan,
            (self.pick_shape, self.pick_column),
            self.parasitics(),
            self.congestion_factors(),
        )


def global_route(
    layout: Layout,
    ndr: Optional[NonDefaultRule] = None,
    ripup_passes: int = 1,
    plan: Optional[RoutePlan] = None,
) -> RoutingResult:
    """Route every multi-pin net of ``layout``.

    Args:
        layout: A placed layout (every functional instance placed).
        ndr: Width-scaling rule; default is all-1.0.
        ripup_passes: How many rip-up/re-route rounds to run on nets
            crossing overflowed gcells.
        plan: ``layout``'s :class:`RoutePlan` from an earlier route
            (``RoutingResult.plan``); built here when omitted.

    Returns:
        A :class:`RoutingResult` with grid usage, per-net parasitics and
        the plan.

    Raises:
        RoutingError: If the NDR does not cover the technology's layers,
            or ``plan`` was built for another layout or before a cell of
            ``layout`` moved or its netlist changed.
    """
    tech = layout.technology
    if ndr is None:
        ndr = NonDefaultRule.default(tech.num_layers)
    if ndr.num_layers != tech.num_layers:
        raise RoutingError(
            f"NDR covers {ndr.num_layers} layers, technology has {tech.num_layers}"
        )
    if plan is not None:
        if plan.layout is not layout:
            raise RoutingError("route plan was built for another layout")
        if plan.is_stale():
            raise RoutingError(
                "route plan is stale: the layout moved a cell or its "
                "netlist changed since the plan was built"
            )
    with obs.timed("route.global"):
        if plan is None:
            plan = RoutePlan.build(layout)
        grid = RoutingGrid(tech, layout.core)
        route = _Route(grid, ndr, plan)
        with obs.timed("route.initial"):
            route.initial()
        with obs.timed("route.ripup"):
            ripped_up = route.ripup(ripup_passes)
        with obs.timed("route.drc_repair"):
            _repair_drc_hotspots(route)
        result = route.result()
    if obs.is_enabled():
        obs.count("route.nets_routed", len(plan.nets))
        obs.count("route.ripup_victims", ripped_up)
        obs.gauge_set("route.overflows", grid.num_overflows(), keep_max=True)
    return result


#: Most DRC-repair passes per route.
_REPAIR_PASSES = 3


def _repair_drc_hotspots(route: _Route) -> None:
    """Targeted repair of severely overflowed bins (detailed-router loop).

    The DRC checker only flags bins whose usage exceeds
    :func:`repro.drc.checker.overflow_limit`; a real
    detailed router iterates on exactly those hotspots until they stop
    converging.  Each pass rips up only the nets crossing a violating bin
    and re-routes them one tier up, keeping a reroute only if it lowers
    the total excess; a rejected reroute is uncommitted and the net's
    old picks are restored and committed again.  A reroute that repeats
    the old picks and leaves the usage bitwise unchanged is rejected
    without summing or reverting anything.  Bins that no pass can
    relieve (genuinely oversubscribed corners) remain — those are the
    violations the checker reports.
    """
    from repro.drc.checker import overflow_limit

    grid = route.grid
    threshold = overflow_limit(grid.capacity)

    def excess() -> float:
        return float(np.maximum(grid.usage - threshold, 0.0).sum())

    # A layout whose routing is drowning (hundreds of hot bins) is beyond
    # what a detailed-router repair loop recovers; don't burn time on it —
    # the DRC count will correctly disqualify the configuration.
    if int((grid.usage > threshold).sum()) > 150:
        return

    # `current` is always the excess of the usage as it stands: it is
    # summed again only after a reroute or a revert changed the usage.
    offsets = route.offsets
    current = excess()
    for _ in range(_REPAIR_PASSES):
        if current <= 0:
            return
        victims = route.victims(grid.usage > threshold)
        if not victims:
            return
        improved = False
        for i in victims:
            if current <= 0:
                break
            lo, hi = offsets[i], offsets[i + 1]
            old_shapes = route.pick_shape[lo:hi]
            old_columns = route.pick_column[lo:hi]
            before = grid.usage.tobytes()
            route.reroute(i)
            if (
                route.pick_shape[lo:hi] == old_shapes
                and route.pick_column[lo:hi] == old_columns
                and grid.usage.tobytes() == before
            ):
                # The reroute changed nothing, so the excess cannot have
                # fallen, and a revert would repeat the same adds.
                continue
            after = excess()
            if after < current:
                current = after
                improved = True
            else:
                # revert: the reroute did not relieve the hotspot
                route.commit(i, -1.0)
                route.pick_shape[lo:hi] = old_shapes
                route.pick_column[lo:hi] = old_columns
                route.commit(i, 1.0)
                if grid.usage.tobytes() != before:
                    current = excess()
        if not improved:
            return
