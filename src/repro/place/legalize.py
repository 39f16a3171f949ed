"""Tetris-style legalization.

Given desired real-valued positions for a set of instances, place each one
onto the site grid with minimal displacement, honoring already-placed
(fixed) cells and partial blockage density budgets.  Cells are processed in
ascending target-x order (the classic Tetris scan), searching rows outward
from the target row.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import PlacementError
from repro.geometry import Point
from repro.kernels.legalize import best_start_in_row
from repro.layout.layout import Layout
from repro.place.budget import BudgetSet, build_budgets


def legalize(
    layout: Layout,
    targets: Dict[str, Point],
    row_search_radius: int = 12,
) -> Dict[str, Tuple[int, int]]:
    """Place every instance in ``targets`` near its desired µm position.

    Args:
        layout: Target layout.  Instances in ``targets`` must be unplaced;
            everything already placed is treated as an obstacle.
        targets: Instance name → desired position (cell centre, µm).
        row_search_radius: How many rows above/below the target row to try
            before giving up widens to the whole core.

    Returns:
        Instance name → ``(row, start_site)`` chosen.

    Raises:
        PlacementError: When some instance cannot be placed anywhere.
    """
    tech = layout.technology
    budgets = build_budgets(layout)
    order = sorted(targets, key=lambda n: targets[n].x)
    result: Dict[str, Tuple[int, int]] = {}
    for name in order:
        inst = layout.netlist.instance(name)
        width = inst.width_sites
        t = targets[name]
        target_row = min(
            max(int(t.y / tech.row_height), 0), layout.num_rows - 1
        )
        target_site = min(
            max(int(t.x / tech.site_width - width / 2), 0),
            layout.sites_per_row - width,
        )
        placed = _try_rows_outward(
            layout, budgets, name, width, target_row, target_site, row_search_radius
        )
        if placed is None:
            # Last resort: search the entire core.
            placed = _try_rows_outward(
                layout, budgets, name, width, target_row, target_site,
                layout.num_rows,
            )
        if placed is None:
            raise PlacementError(f"no legal position for {name!r}")
        row, start = placed
        layout.place(name, row, start)
        budgets.commit(row, start, width)
        result[name] = (row, start)
    return result


def _try_rows_outward(
    layout: Layout,
    budgets: BudgetSet,
    name: str,
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
            start = best_start_in_row(layout, budgets, row, target_site, width)
            if start is None:
                continue
            cost = abs(start - target_site) + dr * 4.0  # row moves cost more
            if best_cost is None or cost < best_cost:
                best, best_cost = (row, start), cost
        # Early exit: a same-row hit with zero displacement can't be beaten.
        if best_cost is not None and best_cost <= dr * 4.0:
            return best
    return best
