"""Tetris-style legalization.

Given desired real-valued positions for a set of instances, place each one
onto the site grid with minimal displacement, honoring already-placed
(fixed) cells and partial blockage density budgets.  Cells are processed in
ascending target-x order (the classic Tetris scan), searching rows outward
from the target row (:func:`~repro.kernels.legalize.find_spot`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import PlacementError
from repro.geometry import Point
from repro.kernels.legalize import find_spot
from repro.layout.layout import Layout
from repro.place.budget import build_budgets


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
    budgets = build_budgets(layout)
    order = sorted(targets, key=lambda n: targets[n].x)
    result: Dict[str, Tuple[int, int]] = {}
    for name in order:
        width = layout.netlist.instance(name).width_sites
        target_row, target_site = target_slot(layout, targets[name], width)
        placed = find_spot(
            layout, budgets, width, target_row, target_site, row_search_radius
        )
        if placed is None:
            raise PlacementError(f"no legal position for {name!r}")
        row, start = placed
        layout.place(name, row, start)
        budgets.commit(row, start, width)
        result[name] = (row, start)
    return result


def target_slot(layout: Layout, target: Point, width: int) -> Tuple[int, int]:
    """Row and start site of a ``width``-site cell centred near ``target``.

    Both are clamped into the core.
    """
    tech = layout.technology
    row = min(max(int(target.y / tech.row_height), 0), layout.num_rows - 1)
    site = min(
        max(int(target.x / tech.site_width - width / 2), 0),
        layout.sites_per_row - width,
    )
    return row, site
