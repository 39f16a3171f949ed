"""Legal-position search on row bitsets and the ECO receiving-target scan.

The legalizer asks where a cell of ``width`` sites should go: the
position nearest a target ``(row, site)`` whose ``width`` sites are free
and which pushes no blockage budget over its cap.  The search works on
Python ints used as bitsets:

* a row's free sites are one int, bit ``s`` set when site ``s`` is free
  (:func:`row_free_bits`, cached per occupancy ``version``);
* the legal starts of a width are the free bits ANDed with their
  ``width − 1`` right shifts (bit ``s`` survives when sites
  ``[s, s+width)`` are all free), masked to the row's
  ``num_sites − width + 1`` starts, with every covering budget's
  forbidden range cleared; they are cached per ``(row, width)`` on the
  occupancy ``version`` and the row's budget epoch
  (:attr:`~repro.place.budget.BudgetSet.row_epoch`);
* the start nearest the target is the nearer of the lowest set bit at
  or above it and the highest set bit below it.

:func:`find_spot` walks rows outward from the target row through a
window of ``radius`` rows and, only when the window holds no legal
start, through the rest of the core.

Bitwise-equality argument (oracle: ``tests/oracles/legalize.py``).  A
full free window lies inside one maximal gap, so the surviving bits are
exactly the union of the oracle's gap pieces; clearing each budget's
forbidden range in turn leaves the same set as subtracting their merged
union.  The cost ``|s − target|`` falls up to the target and rises past
it, so its minimum over the set is one of the two candidates, and a tie
going to the lower one is ``argmin``'s first-index rule over ascending
starts.  A target below 0 has no candidate below it and one past the
last start none above it, so both get the end start, as ``argmin`` does.
The row walk is the oracle's loop: rows in the order the set
``{t − dr, t + dr}`` yields them, a strict ``<`` on costs and the exit
at ``best_cost <= 4·dr``.  The second scan starts at ``dr = radius + 1``
because every window row already held no start and nothing changes
between the scans, so the oracle's full-core rescan of those rows finds
nothing either.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.layout.rows import RowOccupancy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.geometry import Point
    from repro.layout.layout import Layout
    from repro.place.budget import BlockageBudget, BudgetSet

#: occupancy → (its ``version``, free-site bitset).
_FREE_BITS: "weakref.WeakKeyDictionary[RowOccupancy, Tuple[int, int]]" = (
    weakref.WeakKeyDictionary()
)


def row_free_bits(occ: RowOccupancy) -> int:
    """The row's free sites as an int: bit ``s`` is set when ``s`` is free."""
    cached = _FREE_BITS.get(occ)
    if cached is not None and cached[0] == occ.version:
        return cached[1]
    taken = 0
    for p in occ:
        taken |= ((1 << p.width) - 1) << p.start
    free = ((1 << occ.row.num_sites) - 1) & ~taken
    _FREE_BITS[occ] = (occ.version, free)
    return free


class _BudgetTables:
    """Search tables of one :class:`BudgetSet`.

    ``starts`` caches, per ``(row, width)``, the row's legal starts and
    its free windows before the budgets are applied: a budget epoch
    alone moving re-applies only the budgets.
    """

    __slots__ = ("starts", "rects")

    def __init__(self) -> None:
        #: (row, width) → (occupancy version, row epoch, legal starts,
        #: free windows)
        self.starts: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
        #: lazily built (xlo, ylo, xhi, yhi, soft, max_used) rect arrays
        #: for the receiving-target scan.
        self.rects: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                  np.ndarray, np.ndarray]
        ] = None

    def rect_arrays(
        self, budgets: "BudgetSet"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray, np.ndarray]:
        if self.rects is None:
            rs = [b.blockage.rect for b in budgets.budgets]
            self.rects = (
                np.array([r.xlo for r in rs], dtype=np.float64),
                np.array([r.ylo for r in rs], dtype=np.float64),
                np.array([r.xhi for r in rs], dtype=np.float64),
                np.array([r.yhi for r in rs], dtype=np.float64),
                np.array(
                    [not b.blockage.is_hard for b in budgets.budgets],
                    dtype=bool,
                ),
                np.array(
                    [b.max_used for b in budgets.budgets], dtype=np.int64
                ),
            )
        return self.rects

    def legal_starts(
        self, budgets: "BudgetSet", occ: RowOccupancy, width: int
    ) -> int:
        """Bitset of the starts in ``occ``'s row legal for ``width``.

        A budget with headroom ``h < width`` over row span ``[lo, hi)``
        forbids exactly the starts whose overlap with the span exceeds
        ``h``: ``start ∈ [lo − width + h + 1, hi − h)``.  Over-budget
        regions (``h < 0``) still admit zero-overlap placements, so ``h``
        is clamped at 0.
        """
        row = occ.row.index
        epoch = budgets.row_epoch[row]
        key = (row, width)
        hit = self.starts.get(key)
        if hit is not None and hit[0] == occ.version:
            if hit[1] == epoch:
                return hit[2]
            windows = hit[3]
        else:
            windows = 0
            n_starts = occ.row.num_sites - width + 1
            if n_starts > 0:
                free = row_free_bits(occ)
                windows = free
                for k in range(1, width):
                    windows &= free >> k
                windows &= (1 << n_starts) - 1
        bits = windows
        if bits:
            forbidden = 0
            for b, lo, hi in budgets.spans[row]:
                h = b.max_used - b.used
                if h >= width:
                    continue
                if h < 0:
                    h = 0
                f_lo = lo - width + h + 1
                if f_lo < 0:
                    f_lo = 0
                f_hi = hi - h
                if f_hi > f_lo:
                    forbidden |= ((1 << (f_hi - f_lo)) - 1) << f_lo
            bits &= ~forbidden
        self.starts[key] = (occ.version, epoch, bits, windows)
        return bits


_BUDGET_CACHE: "weakref.WeakKeyDictionary[BudgetSet, _BudgetTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables(budgets: "BudgetSet") -> _BudgetTables:
    """The (cached) search tables of ``budgets``."""
    tables = _BUDGET_CACHE.get(budgets)
    if tables is None:
        tables = _BUDGET_CACHE[budgets] = _BudgetTables()
    return tables


def _nearest(bits: int, target: int) -> int:
    """Set bit of a non-empty ``bits`` nearest ``target`` (ties: lower)."""
    if target <= 0:
        return (bits & -bits).bit_length() - 1
    above = bits >> target
    below = bits & ((1 << target) - 1)
    if not below:
        return target + (above & -above).bit_length() - 1
    lower = below.bit_length() - 1
    if above:
        upper = target + (above & -above).bit_length() - 1
        if upper - target < target - lower:
            return upper
    return lower


def best_start_in_row(
    layout: "Layout",
    budgets: "BudgetSet",
    row: int,
    target_site: int,
    width: int,
) -> Optional[int]:
    """Feasible start site in ``row`` closest to ``target_site``.

    Ties go to the smaller start; ``None`` when no start in the row is
    both free for ``width`` sites and within every budget.
    """
    bits = _tables(budgets).legal_starts(budgets, layout.occupancy[row], width)
    return _nearest(bits, target_site) if bits else None


def find_spot(
    layout: "Layout",
    budgets: "BudgetSet",
    width: int,
    target_row: int,
    target_site: int,
    radius: int,
) -> Optional[Tuple[int, int]]:
    """Cheapest legal ``(row, start)`` for ``width`` sites near a target.

    A position costs its site displacement plus 4 per row of
    displacement.  Rows are scanned outward from ``target_row`` up to
    ``radius`` rows away; only when none of them holds a legal start
    does the scan go on over the rest of the core.  ``None`` when no
    row of the core holds one.
    """
    tables = _tables(budgets)
    occupancy = layout.occupancy
    num_rows = layout.num_rows
    for first, last in ((0, radius), (radius + 1, num_rows)):
        best: Optional[Tuple[int, int]] = None
        best_cost: Optional[float] = None
        for dr in range(first, last + 1):
            for row in {target_row - dr, target_row + dr}:
                if not 0 <= row < num_rows:
                    continue
                bits = tables.legal_starts(budgets, occupancy[row], width)
                if not bits:
                    continue
                start = _nearest(bits, target_site)
                cost = abs(start - target_site) + dr * 4.0  # row moves cost more
                if best_cost is None or cost < best_cost:
                    best, best_cost = (row, start), cost
            # Nothing further out can beat a cost within this ring's floor.
            if best_cost is not None and best_cost <= dr * 4.0:
                return best
        if best is not None:
            return best
    return None


def receiving_target(
    layout: "Layout",
    budgets: "BudgetSet",
    source: "BlockageBudget",
    name: str,
    width: int,
    median_pt: "Point",
    attract_point: "Optional[Point]",
) -> "Point":
    """Where a cell evicted from ``source`` should aim.

    The density caps describe a global flow: excess sites in over-budget
    regions must drain into the regions with real headroom (in LDA these
    are the asset-neighborhood tiles).  Aiming at the median alone makes
    evictees diffuse into the next-door tile and the flow never reaches
    the receivers, so the target is the nearest soft blockage with
    headroom of at least ``width + 2`` sites (cost ``d − 0.02·headroom``:
    prefer close, break ties by headroom), clamped toward the pull point
    — ``attract_point`` when given, otherwise the cell's connected median
    — to keep the wirelength impact as small as the flow allows.  With no
    eligible blockage the target is ``median_pt``.

    One vector pass over all budgets: the Manhattan distance is the same
    two-sided clamp ``max(lo − a, 0, a − hi)`` per axis as
    :meth:`~repro.geometry.Rect.manhattan_distance_to_point`, and
    ``np.argmin`` resolves ties to the first budget, like a first-strict-
    min loop over the budgets in order.
    """
    from repro.geometry import Point

    xlo, ylo, xhi, yhi, soft, max_used = _tables(budgets).rect_arrays(budgets)

    anchor = (
        attract_point if attract_point is not None
        else layout.cell_center(name)
    )
    headroom = (max_used - budgets.used).astype(np.float64)
    eligible = soft & (headroom >= width + 2)
    src = budgets.index.get(id(source))
    if src is not None:
        eligible[src] = False
    if not eligible.any():
        return median_pt
    dx = np.maximum(np.maximum(xlo - anchor.x, 0.0), anchor.x - xhi)
    dy = np.maximum(np.maximum(ylo - anchor.y, 0.0), anchor.y - yhi)
    cost = (dx + dy) - 0.02 * headroom
    cost[~eligible] = np.inf
    best = int(np.argmin(cost))
    rect = budgets.budgets[best].blockage.rect
    pull = attract_point if attract_point is not None else median_pt
    x = min(max(pull.x, rect.xlo), rect.xhi - 1e-6)
    y = min(max(pull.y, rect.ylo), rect.yhi - 1e-6)
    return Point(x, y)
