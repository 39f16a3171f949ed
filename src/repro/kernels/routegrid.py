"""Vectorized track-usage / overflow accounting over the gcell grid.

The router's hot loops walk gcell lists: committing demand, probing worst
congestion along a candidate segment, and scanning routed segments
against overflow masks.  Each of these collapses to one numpy slice
operation per segment.

Precondition: every gcell list handed to this module is an *ascending
straight run* — ``[(lo, y), (lo + 1, y), …, (hi, y)]`` or the same along
a column.  :func:`as_span` reads only a list's endpoints, so a list that
breaks the precondition is silently misread: ``[(0, 0), (4, 0), (2, 0)]``
is taken as the run 0..2.  The router only ever builds such runs (the
two-pin router materializes each chosen piece from its ``(lo, hi,
fixed)`` span), so no per-call check guards the hot path.

Bitwise equality with the per-gcell oracles: slice ``+=`` touches each
cell exactly once like a per-cell loop; the congestion ratio
``(use + demand) / cap`` (``inf`` where ``cap <= 0``) is the same
elementwise IEEE division, and max/any reductions are order-independent.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: (horizontal, lo, hi, fixed) — cells (lo..hi, fixed) or (fixed, lo..hi).
Span = Tuple[bool, int, int, int]


def as_span(gcells: Sequence[Tuple[int, int]]) -> Span:
    """The span of a non-empty ascending straight run of gcells."""
    x0, y0 = gcells[0]
    x1, y1 = gcells[-1]
    if y0 == y1:
        return (True, x0, x1, y0)
    return (False, y0, y1, x0)


def line_congestion_general(
    c: np.ndarray, u: np.ndarray, demand: float
) -> float:
    """Worst ``(u + demand) / c`` over pre-sliced bins (inf on cap<=0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (u + demand) / c
    if np.any(c <= 0):
        ratio = np.where(c > 0, ratio, np.inf)
    return float(ratio.max(initial=0.0))


def apply_line(
    use: np.ndarray,
    horizontal: bool,
    lo: int,
    hi: int,
    fixed: int,
    delta: float,
) -> None:
    """Add ``delta`` tracks along a straight run (one touch per cell)."""
    if horizontal:
        use[lo : hi + 1, fixed] += delta
    else:
        use[fixed, lo : hi + 1] += delta


def segment_hits(
    mask: np.ndarray, layer: int, gcells: Sequence[Tuple[int, int]]
) -> bool:
    """Whether any of a segment's cells is set in a (K, nx, ny) bool mask."""
    horizontal, lo, hi, fixed = as_span(gcells)
    m = mask[layer - 1]
    if horizontal:
        return bool(m[lo : hi + 1, fixed].any())
    return bool(m[fixed, lo : hi + 1].any())


def route_worst_ratio(
    capacity: np.ndarray, usage: np.ndarray, segments: Sequence
) -> float:
    """Worst use/cap ratio over a route's segments (cap<=0 cells skipped).

    0.0 when no segment crosses a cell with capacity.
    """
    worst = 0.0
    for seg in segments:
        layer = seg.layer - 1
        horizontal, lo, hi, fixed = as_span(seg.gcells)
        if horizontal:
            c = capacity[layer, lo : hi + 1, fixed]
            u = usage[layer, lo : hi + 1, fixed]
        else:
            c = capacity[layer, fixed, lo : hi + 1]
            u = usage[layer, fixed, lo : hi + 1]
        valid = c > 0
        if valid.any():
            worst = max(worst, float((u[valid] / c[valid]).max()))
    return worst


def victims_of(
    mask: np.ndarray, routes: dict
) -> List[str]:
    """Nets with at least one segment crossing a set cell of ``mask``.

    In ``routes`` order, each net once.
    """
    victims: List[str] = []
    for name, route in routes.items():
        for seg in route.segments:
            if segment_hits(mask, seg.layer, seg.gcells):
                victims.append(name)
                break
    return victims
