"""Scalar oracle for the pair router.

The tier-by-tier reading of :func:`repro.route.router._route_pair`: for
each candidate tier in order, :func:`_route_two_pin` lists every
candidate piece's gcells with :func:`_gcell_line`, probes them one cell
at a time and keeps the least congested shape; the pair takes the first
tier at or under 0.9, else the first strict minimum.  The production
router computes the spans once, scores every tier in one gather and only
materializes the winner.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.geometry import Point
from repro.route.grid import RoutingGrid
from repro.route.router import _TIERS, RouteSegment

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


def _candidates(
    base: Tuple[int, int], k: int, tier_bump: int
) -> List[Tuple[int, int]]:
    """Candidate layer tiers of a net with base tier ``base``, in order.

    The base tier, then the tiers above it, then the tiers below, each
    clamped to a ``k``-layer stack; ``tier_bump`` drops leading tiers.
    """
    base_h, base_v = base

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
    return candidates


def _route_pair(
    grid: RoutingGrid, tiers, p1: Point, p2: Point
) -> Optional[List[RouteSegment]]:
    """Probe the candidate tiers one at a time, in order.

    Reads only ``tiers.layers`` and ``tiers.demands`` of the production
    ``_Tiers``.  Returns None when no tier scores below inf.
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
