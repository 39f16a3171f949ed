"""Legal-position search on row bitsets and the ECO receiving-target scan.

The legalizer asks where a cell of ``width`` sites should go: the
position nearest a target ``(row, site)`` whose ``width`` sites are free
and which pushes no blockage budget over its cap.  The search works on
Python ints used as bitsets:

* a row's free sites are one int, bit ``s`` set when site ``s`` is free
  (``RowOccupancy.free``, kept current by every occupancy mutation);
* the legal starts of a width are the free bits ANDed with their
  ``1 … width − 1`` right shifts (bit ``s`` survives when sites
  ``[s, s+width)`` are all free; doubling runs take ⌈log₂ width⌉ ANDs),
  masked to the row's
  ``num_sites − width + 1`` starts, with every covering budget's
  forbidden range cleared; they are cached per ``(row, width)`` on the
  row's free bits and its budget epoch
  (:attr:`~repro.place.budget.BudgetSet.row_epoch`), so lifting a cell
  and putting it back where it was leaves the row's other widths cached;
* the start nearest the target is the nearer of the lowest set bit at
  or above it and the highest set bit below it.

The empty-row memo.  Per width, the search remembers the rows proven to
hold no legal start.  A row only gains starts when it *loosens*: a site
of it becomes free, or the headroom of a budget covering it, clamped at
0, grows.  So each search first forgets the rows that loosened since the
previous search: it compares every row's free bits with the ones that
search saw, and reads the budgets whose clamped headroom grew off
:attr:`~repro.place.budget.BudgetSet.grown`, which every change to a
budget's ``used`` feeds, whichever API made it.  A failed relocation
lifts its cell and releases its budgets, searches, and puts both back:
the search re-proves only the rows the lift loosened, and putting back
only tightens them, so the memo then holds every row it held before.  A
row with no start for ``width`` has none for any wider cell either (a
wider window covers the narrower one and overlaps every budget span at
least as much), so the rows proven for every narrower width are skipped
too.

:func:`find_spot` walks rows outward from the target row through a
window of ``radius`` rows and, only when the window holds no legal
start, through the rest of the core.  Both walks visit only the rings
that hold a row outside the memo.

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
at ``best_cost <= 4·dr``.  The oracle skips a memo row too, since it
holds no start; a ring whose rows it all skips leaves the best spot as
it was, and the exits of the skipped rings are one test before the next
visited ring ``dr``: ``best_cost <= 4·(dr − 1)``.  The second scan
starts at ``dr = radius + 1`` because every window row already held no
start and nothing changes between the scans, so the oracle's full-core
rescan of those rows finds nothing either.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.layout.rows import RowOccupancy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.geometry import Point
    from repro.layout.layout import Layout
    from repro.place.budget import BlockageBudget, BudgetSet


class _BudgetTables:
    """Search tables of one :class:`BudgetSet`.

    ``starts`` caches, per ``(row, width)``, the row's legal starts,
    its free windows and the starts its budgets forbid: a budget epoch
    alone moving recomputes only the forbidden starts, the free bits
    alone moving only the windows.  ``empty`` is the empty-row memo.
    """

    __slots__ = ("starts", "rects", "anchor", "empty", "free_seen",
                 "grown_seen", "budget_rows")

    def __init__(self, budgets: "BudgetSet") -> None:
        #: (row, width) → (free bits, row epoch, legal starts, free
        #: windows, forbidden starts or ``None`` when not computed)
        self.starts: Dict[
            Tuple[int, int], Tuple[int, int, int, int, Optional[int]]
        ] = {}
        #: lazily built (xlo, ylo, xhi, yhi, soft, max_used) rect arrays
        #: for the receiving-target scan.
        self.rects: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                  np.ndarray, np.ndarray]
        ] = None
        #: (x, y, Manhattan distance of every rect to the point ``(x,
        #: y)``) of the last anchor the receiving-target scan used.
        self.anchor: Optional[Tuple[float, float, np.ndarray]] = None
        #: width → bitset of the rows proven to hold no legal start.
        self.empty: Dict[int, int] = {}
        #: every row's free bits, and how many entries of
        #: ``budgets.grown``, the last :meth:`forget_loosened` saw.
        self.free_seen: List[int] = []
        self.grown_seen = len(budgets.grown)
        #: per budget (in ``budgets`` order), the bitset of its rows.
        self.budget_rows = [
            sum(1 << row for row in b.rows if row >= 0)
            for b in budgets.budgets
        ]

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

    def distances(self, budgets: "BudgetSet", anchor: "Point") -> np.ndarray:
        """Manhattan distance of every budget's rect to ``anchor``.

        Per axis, the two-sided clamp ``max(lo − a, 0, a − hi)`` of
        :meth:`~repro.geometry.Rect.manhattan_distance_to_point`.  LDA
        aims every eviction of a pass at one attraction point, so the
        last anchor's distances are kept.
        """
        last = self.anchor
        if last is not None and last[0] == anchor.x and last[1] == anchor.y:
            return last[2]
        xlo, ylo, xhi, yhi, _, _ = self.rect_arrays(budgets)
        dx = np.maximum(np.maximum(xlo - anchor.x, 0.0), anchor.x - xhi)
        dy = np.maximum(np.maximum(ylo - anchor.y, 0.0), anchor.y - yhi)
        dist = dx + dy
        self.anchor = (anchor.x, anchor.y, dist)
        return dist

    def forget_loosened(
        self, budgets: "BudgetSet", occupancy: Sequence[RowOccupancy]
    ) -> None:
        """Drop from the memo every row that loosened since the last call.

        A row loosened when a site it had taken is free now, or when a
        budget covering it has more headroom (clamped at 0) now.
        """
        loose = 0
        free = [occ.free for occ in occupancy]
        seen = self.free_seen
        if free != seen:
            if len(free) != len(seen):
                loose = -1  # the first call: nothing seen yet
            else:
                for row, (now, before) in enumerate(zip(free, seen)):
                    if now is not before and now & ~before:
                        loose |= 1 << row
            self.free_seen = free
        grown = budgets.grown
        for i in grown[self.grown_seen:]:
            loose |= self.budget_rows[i]
        self.grown_seen = len(grown)
        if loose:
            empty = self.empty
            for width in empty:
                empty[width] &= ~loose

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
        free = occ.free
        key = (row, width)
        hit = self.starts.get(key)
        if hit is not None and hit[0] == free:
            if hit[1] == epoch:
                return hit[2]
            windows, forbidden = hit[3], None
        else:
            forbidden = hit[4] if hit is not None and hit[1] == epoch else None
            windows = 0
            n_starts = occ.row.num_sites - width + 1
            if n_starts > 0:
                # Bit s of ``windows`` covers sites [s, s + run); each
                # step doubles the run, the last tops it up to ``width``.
                windows = free
                run = 1
                while run < width:
                    step = min(run, width - run)
                    windows &= windows >> step
                    run += step
                windows &= (1 << n_starts) - 1
        bits = windows
        if bits and forbidden is None:
            forbidden = 0
            headroom = budgets.headroom
            for _, lo, hi, i in budgets.spans[row]:
                h = headroom[i]
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
        if bits:
            bits &= ~forbidden
        self.starts[key] = (free, epoch, bits, windows, forbidden)
        return bits


_BUDGET_CACHE: "weakref.WeakKeyDictionary[BudgetSet, _BudgetTables]" = (
    weakref.WeakKeyDictionary()
)


def _tables(budgets: "BudgetSet") -> _BudgetTables:
    """The (cached) search tables of ``budgets``."""
    tables = _BUDGET_CACHE.get(budgets)
    if tables is None:
        tables = _BUDGET_CACHE[budgets] = _BudgetTables(budgets)
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


def _next_ring(rows: int, target: int, first: int, last: int) -> Optional[int]:
    """Smallest ``dr`` in ``[first, last]`` with a row of ``rows`` at
    ``target ± dr``; ``None`` when there is none."""
    best = None
    lo_row = target + first
    up = rows >> lo_row if lo_row >= 0 else rows << -lo_row
    if up:
        best = first + (up & -up).bit_length() - 1
    hi_row = target - first
    if hi_row >= 0:
        down = rows & ((1 << (hi_row + 1)) - 1)
        if down:
            dr = target - (down.bit_length() - 1)
            if best is None or dr < best:
                best = dr
    return best if best is not None and best <= last else None


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
    tables.forget_loosened(budgets, occupancy)
    num_rows = layout.num_rows
    open_rows = (1 << num_rows) - 1
    for w, rows in tables.empty.items():
        if w <= width:
            open_rows &= ~rows
    proven = 0
    spot: Optional[Tuple[int, int]] = None
    for first, last in ((0, radius), (radius + 1, num_rows)):
        best: Optional[Tuple[int, int]] = None
        best_cost: Optional[float] = None
        dr = _next_ring(open_rows, target_row, first, last)
        while dr is not None:
            # The exits of the rings skipped since the last visited one.
            if best_cost is not None and best_cost <= (dr - 1) * 4.0:
                break
            for row in {target_row - dr, target_row + dr}:
                if not 0 <= row < num_rows or not open_rows >> row & 1:
                    continue
                bits = tables.legal_starts(budgets, occupancy[row], width)
                if not bits:
                    open_rows &= ~(1 << row)
                    proven |= 1 << row
                    continue
                start = _nearest(bits, target_site)
                cost = abs(start - target_site) + dr * 4.0  # row moves cost more
                if best_cost is None or cost < best_cost:
                    best, best_cost = (row, start), cost
            # Nothing further out can beat a cost within this ring's floor.
            if best_cost is not None and best_cost <= dr * 4.0:
                break
            dr = _next_ring(open_rows, target_row, dr + 1, last)
        if best is not None:
            spot = best
            break
    if proven:
        tables.empty[width] = tables.empty.get(width, 0) | proven
    return spot


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

    One vector pass over all budgets (:meth:`_BudgetTables.distances`
    for the distances), and ``np.argmin`` resolves ties to the first
    budget, like a first-strict-min loop over the budgets in order.
    """
    from repro.geometry import Point

    tables = _tables(budgets)
    _, _, _, _, soft, max_used = tables.rect_arrays(budgets)

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
    cost = tables.distances(budgets, anchor) - 0.02 * headroom
    cost[~eligible] = np.inf
    best = int(np.argmin(cost))
    rect = budgets.budgets[best].blockage.rect
    pull = attract_point if attract_point is not None else median_pt
    x = min(max(pull.x, rect.xlo), rect.xhi - 1e-6)
    y = min(max(pull.y, rect.ylo), rect.yhi - 1e-6)
    return Point(x, y)
