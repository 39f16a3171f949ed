"""Scalar oracles for the legalizer position search and the ECO target scan.

``_row_free_bits`` reads a row's free sites off its cells.

``_best_start_in_row`` enumerates a row's free gaps, subtracts the
starts a blockage budget forbids by interval algebra, and clamps the
target into each surviving piece.  ``_try_rows_outward`` asks it row by
row, outward from the target row, and ``_find_spot`` runs that scan the
way the placers did: over a window of rows, then, when the window holds
nothing, over the whole core.  ``_receiving_target`` walks the budgets
one by one for the cheapest soft blockage with headroom.  The kernels in
:mod:`repro.kernels.legalize` answer the same queries on row bitsets and
budget arrays.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.geometry import Interval, Point, merge_intervals, subtract_intervals
from repro.layout.layout import Layout
from repro.layout.rows import RowOccupancy
from repro.place.budget import BlockageBudget, BudgetSet


def _row_free_bits(occ: RowOccupancy) -> int:
    """The row's free sites as an int, rebuilt from its cells.

    ``RowOccupancy.free`` keeps the same int current through every
    mutation.
    """
    taken = 0
    for p in occ:
        taken |= ((1 << p.width) - 1) << p.start
    return ((1 << occ.row.num_sites) - 1) & ~taken


def _forbidden_starts(
    budgets: BudgetSet,
    row: int,
    width: int,
    max_site: int,
) -> List[Interval]:
    """Start positions on ``row`` a budget rejects, as merged intervals.

    A budget with headroom ``h < width`` over row span ``[lo, hi)``
    forbids exactly the starts whose overlap with the span exceeds ``h``:
    ``start ∈ [lo − width + h + 1, hi − h)`` — derived from the tent-shaped
    overlap function of an axis-aligned sweep.
    """
    forbidden: List[Interval] = []
    for b in budgets.row_budgets(row):
        span = b.row_span(row)
        if span is None:
            continue
        # Over-budget regions (h < 0) still admit zero-overlap placements,
        # so the effective headroom for the sweep is clamped at 0.
        h = max(b.max_used - b.used, 0)
        if h >= width:
            continue
        lo = max(span.lo - width + h + 1, 0)
        hi = min(span.hi - h, max_site)
        if hi > lo:
            forbidden.append(Interval(lo, hi))
    return merge_intervals(forbidden)


def _best_start_in_row(
    layout: Layout,
    budgets: BudgetSet,
    row: int,
    target_site: int,
    width: int,
) -> Optional[int]:
    """Feasible start site in ``row`` closest to ``target_site``."""
    occ = layout.occupancy[row]
    gaps = [g for g in occ.free_intervals() if len(g) >= width]
    if not gaps:
        return None
    forbidden = _forbidden_starts(budgets, row, width, occ.row.num_sites)
    best: Optional[int] = None
    best_cost: Optional[int] = None
    for gap in gaps:
        starts = Interval(gap.lo, gap.hi - width + 1)
        for piece in subtract_intervals(starts, forbidden):
            cand = min(max(piece.lo, target_site), piece.hi - 1)
            cost = abs(cand - target_site)
            if best_cost is None or cost < best_cost:
                best, best_cost = cand, cost
    return best


def _try_rows_outward(
    layout: Layout,
    budgets: BudgetSet,
    width: int,
    target_row: int,
    target_site: int,
    radius: int,
) -> Optional[Tuple[int, int]]:
    """Scan rows outward from ``target_row``; return the cheapest position."""
    best: Optional[Tuple[int, int]] = None
    best_cost: Optional[float] = None
    for dr in range(radius + 1):
        for row in {target_row - dr, target_row + dr}:
            if not 0 <= row < layout.num_rows:
                continue
            start = _best_start_in_row(layout, budgets, row, target_site, width)
            if start is None:
                continue
            cost = abs(start - target_site) + dr * 4.0  # row moves cost more
            if best_cost is None or cost < best_cost:
                best, best_cost = (row, start), cost
        # Early exit: a same-row hit with zero displacement can't be beaten.
        if best_cost is not None and best_cost <= dr * 4.0:
            return best
    return best


def _find_spot(
    layout: Layout,
    budgets: BudgetSet,
    width: int,
    target_row: int,
    target_site: int,
    radius: int,
) -> Optional[Tuple[int, int]]:
    """The window of ``radius`` rows, then, if it is empty, the whole core."""
    spot = _try_rows_outward(
        layout, budgets, width, target_row, target_site, radius
    )
    if spot is None:
        spot = _try_rows_outward(
            layout, budgets, width, target_row, target_site, layout.num_rows
        )
    return spot


def _receiving_target(
    layout: Layout,
    budgets: BudgetSet,
    source: BlockageBudget,
    name: str,
    width: int,
    median_pt: Point,
    attract_point: Optional[Point] = None,
) -> Point:
    """Where an evicted cell should aim: one budget at a time."""
    anchor = attract_point if attract_point is not None else layout.cell_center(name)
    best_rect = None
    best_cost = None
    for b in budgets:
        if b is source or b.blockage.is_hard:
            continue
        headroom = b.max_used - b.used
        if headroom < width + 2:
            continue
        d = b.blockage.rect.manhattan_distance_to_point(anchor)
        cost = d - 0.02 * headroom  # prefer close, break ties by headroom
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_rect = b.blockage.rect
    if best_rect is None:
        return median_pt
    # The point of the receiving rect closest to the pull anchor (the
    # attract point when given, otherwise the cell's connected median).
    pull = attract_point if attract_point is not None else median_pt
    x = min(max(pull.x, best_rect.xlo), best_rect.xhi - 1e-6)
    y = min(max(pull.y, best_rect.ylo), best_rect.yhi - 1e-6)
    return Point(x, y)
