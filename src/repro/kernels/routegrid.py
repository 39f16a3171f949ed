"""Vectorized track-usage / overflow accounting over the gcell grid.

The router's hot loops walk gcell lists: committing demand, scoring the
candidate shapes of a pin pair, and scanning routed segments against
overflow masks.  Each of these collapses to a few numpy operations.

Precondition: every gcell list handed to this module is an *ascending
straight run* — ``[(lo, y), (lo + 1, y), …, (hi, y)]`` or the same along
a column.  :func:`as_span` reads only a list's endpoints, so a list that
breaks the precondition is silently misread: ``[(0, 0), (4, 0), (2, 0)]``
is taken as the run 0..2.  The router only ever builds such runs (the
pair router materializes each chosen piece from its ``(lo, hi, fixed)``
span), so no per-call check guards the hot path.

Bitwise equality with the per-gcell oracles: slice ``+=`` touches each
cell exactly once like a per-cell loop; the congestion ratio
``(use + demand) / cap`` (``inf`` where ``cap <= 0``) is the same
elementwise IEEE add then divide, and max/any reductions are
order-independent.
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


#: Per-route gather tables of :func:`shape_scores` (see :func:`tier_tables`).
TierTables = Tuple[np.ndarray, np.ndarray, np.ndarray]


def tier_tables(
    capacity: np.ndarray,
    layer_demand: Sequence[float],
    tiers: Sequence[Tuple[int, int]],
) -> TierTables:
    """Gather tables scoring gcells on each tier ``(h_layer, v_layer)``.

    Index-table row ``ix * ny + iy`` holds each tier's flat bin of gcell
    ``(ix, iy)`` on its h layer, row ``(nx + ix) * ny + iy`` on its v
    layer.  The other tables hold each bin's track demand
    (``layer_demand[k - 1]`` on layer ``k``) and capacity, NaN where
    ``cap <= 0``.  Valid while capacity and demands are unchanged.
    """
    _, nx, ny = capacity.shape
    cells = np.arange(nx * ny)
    index = np.empty((2 * nx * ny, len(tiers)), dtype=np.intp)
    for t, (h, v) in enumerate(tiers):
        index[: nx * ny, t] = (h - 1) * nx * ny + cells
        index[nx * ny :, t] = (v - 1) * nx * ny + cells
    demand = np.repeat(np.asarray(layer_demand, dtype=float), nx * ny)
    cap = np.where(capacity > 0, capacity, np.nan).ravel()
    return index, demand, cap


def shape_scores(
    usage: np.ndarray, tables: TierTables, shapes: Sequence[Sequence[tuple]]
) -> List[List[float]]:
    """Worst ``(use + demand) / cap`` of every candidate shape on every tier.

    A shape lists straight pieces ``(horizontal, lo, hi, fixed, _)``:
    gcells ``(lo..hi, fixed)`` on the tier's h layer, else ``(fixed,
    lo..hi)`` on its v layer.  Returns one list of shape scores per tier.
    A bin with ``cap <= 0`` scores ``inf``, 0/0 too: its NaN capacity
    makes the ratio NaN, which ``np.maximum`` propagates and ``np.fmin``
    turns into ``inf``.
    """
    nx, ny = usage.shape[1:]
    codes: List[int] = []
    starts: List[int] = []
    for shape in shapes:
        starts.append(len(codes))
        for horizontal, lo, hi, fixed, _ in shape:
            if horizontal:
                codes.extend(range(lo * ny + fixed, hi * ny + fixed + 1, ny))
            else:
                first = (nx + fixed) * ny
                codes.extend(range(first + lo, first + hi + 1))
    index, demand, cap = tables
    bins = index.take(codes, axis=0)
    ratio = usage.take(bins)
    ratio += demand.take(bins)
    ratio /= cap.take(bins)
    worst = np.maximum.reduceat(ratio, starts, axis=0)
    np.fmin(worst, np.inf, out=worst)
    return worst.T.tolist()
