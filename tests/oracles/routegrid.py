"""Scalar oracles for routing-grid accounting and the router's grid scans.

Every function walks a gcell list one cell at a time:

* :func:`as_span` reads a run's span from every cell (a
  :class:`~repro.route.router.RouteSegment` is its span);
* :func:`add_segment` / :func:`remove_segment` commit a run cell by cell
  (the router's :func:`repro.kernels.routegrid.apply_line`);
* :func:`segment_congestion` scores one piece (a shape of
  :func:`repro.kernels.routegrid.code_scores` scores the max over its
  pieces);
* :func:`route_worst_ratio` and :func:`victims_of` scan routed segments,
  the per-net readings of the router's one-pass congestion factors and
  rip-up victims.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.route.grid import RoutingGrid

#: (horizontal, lo, hi, fixed) — cells (lo..hi, fixed) or (fixed, lo..hi).
Span = Tuple[bool, int, int, int]


def as_span(gcells: Sequence[Tuple[int, int]]) -> Span:
    """Span of a straight run, read from every cell rather than the ends."""
    xs = [x for x, _ in gcells]
    ys = [y for _, y in gcells]
    if len(set(ys)) == 1:
        return (True, min(xs), max(xs), ys[0])
    return (False, min(ys), max(ys), xs[0])


def add_segment(
    grid: RoutingGrid,
    layer_index: int,
    gcells: List[Tuple[int, int]],
    demand: float,
) -> None:
    """Consume ``demand`` tracks on ``layer_index``, cell by cell."""
    arr = grid.usage[layer_index - 1]
    for ix, iy in gcells:
        arr[ix, iy] += demand


def remove_segment(
    grid: RoutingGrid,
    layer_index: int,
    gcells: List[Tuple[int, int]],
    demand: float,
) -> None:
    """Undo :func:`add_segment`, cell by cell."""
    arr = grid.usage[layer_index - 1]
    for ix, iy in gcells:
        arr[ix, iy] -= demand


def segment_congestion(
    grid: RoutingGrid,
    layer_index: int,
    gcells: List[Tuple[int, int]],
    demand: float,
) -> float:
    """Worst post-route usage/capacity ratio along a candidate segment."""
    cap = grid.capacity[layer_index - 1]
    use = grid.usage[layer_index - 1]
    worst = 0.0
    for ix, iy in gcells:
        c = cap[ix, iy]
        ratio = (use[ix, iy] + demand) / c if c > 0 else float("inf")
        worst = max(worst, ratio)
    return worst


def route_worst_ratio(
    capacity: np.ndarray, usage: np.ndarray, segments: Sequence
) -> float:
    """Worst use/cap ratio over a route's cells (cap<=0 cells skipped)."""
    worst = 0.0
    for seg in segments:
        layer = seg.layer - 1
        for ix, iy in seg.gcells:
            c = capacity[layer, ix, iy]
            if c > 0:
                worst = max(worst, usage[layer, ix, iy] / c)
    return worst


def victims_of(mask: np.ndarray, routes: dict) -> List[str]:
    """Nets with at least one cell set in ``mask``, in ``routes`` order."""
    victims: List[str] = []
    for name, route in routes.items():
        for seg in route.segments:
            if any(mask[seg.layer - 1, ix, iy] for ix, iy in seg.gcells):
                victims.append(name)
                break
    return victims
