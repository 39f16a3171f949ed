"""Scalar oracle for the two-pin router.

The list-based reading of :func:`repro.route.router._route_two_pin`:
each candidate piece's gcells are listed by :func:`_gcell_line` and
probed one cell at a time.  The production router probes the same
pieces as ``(lo, hi, fixed)`` spans and only materializes the winner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.geometry import Point
from repro.route.grid import RoutingGrid
from repro.route.ndr import NonDefaultRule
from repro.route.router import RouteSegment

from tests.oracles.routegrid import segment_congestion


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
    Every candidate piece is materialized as a gcell list and probed
    cell by cell; ``memo`` is accepted for signature parity and unused.
    """
    h_demand = ndr.track_demand(h_layer)
    v_demand = ndr.track_demand(v_layer)
    dx = abs(p1.x - p2.x)
    dy = abs(p1.y - p2.y)

    def h_piece(x_lo: float, x_hi: float, y: float) -> Tuple[float, RouteSegment]:
        cells = _gcell_line(grid, Point(x_lo, y), Point(x_hi, y), horizontal=True)
        cong = segment_congestion(grid, h_layer, cells, h_demand)
        return cong, RouteSegment(h_layer, cells, x_hi - x_lo, h_demand)

    def v_piece(y_lo: float, y_hi: float, x: float) -> Tuple[float, RouteSegment]:
        cells = _gcell_line(grid, Point(x, y_lo), Point(x, y_hi), horizontal=False)
        cong = segment_congestion(grid, v_layer, cells, v_demand)
        return cong, RouteSegment(v_layer, cells, y_hi - y_lo, v_demand)

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
