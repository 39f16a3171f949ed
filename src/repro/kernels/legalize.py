"""Vectorized legal-start search and receiving-target scan.

The legalizer's start search asks for the start site in one row closest
to a target such that ``width`` sites are free and no blockage budget is
pushed over its cap.  The interval-algebra oracle enumerates free gaps,
subtracts the budget-forbidden intervals and clamps the target into each
surviving piece.  This kernel evaluates the same search on a site
bitmap: ``allowed[s]`` holds exactly when sites ``[s, s+width)`` are all
free (a window-sum over a cached free-site cumsum) and no blockage budget
forbids ``s`` (raw budget intervals marked with one difference array —
no merge needed, the coverage union is the same set).

Bitwise-equality argument: a full free window necessarily lies inside one
maximal gap, so the allowed set equals the union of the oracle's pieces.
Within a piece the integer cost ``|s − target|`` has a unique minimum (the
clamp point the oracle picks); across pieces the oracle's first-strict-min
over non-decreasing candidates resolves ties toward the smaller start,
and ``np.argmin`` over ascending allowed indices does the same.

Caching: the legalizer probes the same rows over and over while the state
mutates only one row (and a couple of budgets) per placement.  The kernel
therefore caches the *allowed start index array* per ``(row, width)``,
keyed on the row occupancy's mutation ``version`` and a per-row budget
epoch — bumped only for rows covered by a budget whose ``used`` counter
actually moved (all mutations flow through
:class:`~repro.place.budget.BudgetSet`'s versioned commit/release).  A
cache hit reduces the whole row search to one ``argmin``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.layout.rows import RowOccupancy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.geometry import Point
    from repro.layout.layout import Layout
    from repro.place.budget import BlockageBudget, BudgetSet

_FREE_CUMSUM: (
    "weakref.WeakKeyDictionary[RowOccupancy, Tuple[int, np.ndarray]]"
) = weakref.WeakKeyDictionary()


def _free_cumsum(occ: RowOccupancy) -> np.ndarray:
    """Zero-padded cumulative sum of the row's free-site bitmap (cached)."""
    cached = _FREE_CUMSUM.get(occ)
    if cached is not None and cached[0] == occ.version:
        return cached[1]
    free = np.ones(occ.row.num_sites, dtype=np.int64)
    for p in occ:
        free[p.start : p.end] = 0
    cc = np.zeros(occ.row.num_sites + 1, dtype=np.int64)
    np.cumsum(free, out=cc[1:])
    _FREE_CUMSUM[occ] = (occ.version, cc)
    return cc


#: Per-row static budget arrays: (positions, span_lo, span_hi, max_used).
_RowArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _BudgetArrays:
    """Array mirror of one :class:`BudgetSet` for the start search.

    ``used`` mirrors every budget's counter and is refreshed as one pass
    whenever the set's ``version`` has moved; rows covered by a budget
    whose counter changed get their ``row_epoch`` bumped, invalidating the
    per-``(row, width)`` allowed-start caches for exactly those rows.
    """

    __slots__ = (
        "version", "used", "rows", "budget_rows", "row_epoch", "starts",
        "index", "rects", "log_pos",
    )

    def __init__(self, budgets: "BudgetSet") -> None:
        self.version = budgets.version
        self.used = np.array(
            [b.used for b in budgets.budgets], dtype=np.int64
        )
        self.rows: Dict[int, Optional[_RowArrays]] = {}
        self.budget_rows: List[List[int]] = [
            list(b.rows) for b in budgets.budgets
        ]
        self.row_epoch: Dict[int, int] = {}
        #: (row, width) → (occ version, row epoch, allowed start indices)
        self.starts: Dict[Tuple[int, int], Tuple[int, int, np.ndarray]] = {}
        self.index: Dict[int, int] = {
            id(b): i for i, b in enumerate(budgets.budgets)
        }
        self.log_pos = len(budgets.changelog)
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

    def refresh(self, budgets: "BudgetSet") -> None:
        if self.version == budgets.version:
            return
        epochs = self.row_epoch
        index = self.index
        log = budgets.changelog
        for b in log[self.log_pos :]:
            i = index[id(b)]
            if b.used != self.used[i]:
                self.used[i] = b.used
                for row in self.budget_rows[i]:
                    epochs[row] = epochs.get(row, 0) + 1
        self.log_pos = len(log)
        self.version = budgets.version

    def row_arrays(
        self, budgets: "BudgetSet", row: int
    ) -> Optional[_RowArrays]:
        try:
            return self.rows[row]
        except KeyError:
            pass
        pos = {id(b): i for i, b in enumerate(budgets.budgets)}
        covering = [
            (pos[id(b)], b.row_span(row)) for b in budgets.row_budgets(row)
        ]
        covering = [(i, span) for i, span in covering if span is not None]
        arrays: Optional[_RowArrays] = None
        if covering:
            arrays = (
                np.array([i for i, _ in covering], dtype=np.int64),
                np.array([s.lo for _, s in covering], dtype=np.int64),
                np.array([s.hi for _, s in covering], dtype=np.int64),
                np.array(
                    [budgets.budgets[i].max_used for i, _ in covering],
                    dtype=np.int64,
                ),
            )
        self.rows[row] = arrays
        return arrays


_BUDGET_CACHE: "weakref.WeakKeyDictionary[BudgetSet, _BudgetArrays]" = (
    weakref.WeakKeyDictionary()
)


def _mask_forbidden(
    allowed: np.ndarray,
    arrays: _RowArrays,
    used: np.ndarray,
    width: int,
    num_sites: int,
) -> None:
    """Clear the starts each budget forbids.

    A budget with headroom ``h < width`` over row span ``[lo, hi)``
    forbids exactly the starts whose overlap with the span exceeds ``h``:
    ``start ∈ [lo − width + h + 1, hi − h)``.  Over-budget regions
    (``h < 0``) still admit zero-overlap placements, so ``h`` is clamped
    at 0.
    """
    positions, span_lo, span_hi, max_used = arrays
    n_starts = allowed.shape[0]
    h = max_used - used[positions]
    np.maximum(h, 0, out=h)
    sel = h < width
    if not sel.any():
        return
    lo = np.maximum(span_lo[sel] - width + h[sel] + 1, 0)
    hi = np.minimum(span_hi[sel] - h[sel], min(num_sites, n_starts))
    keep = hi > lo
    if not keep.any():
        return
    # Mark all forbidden intervals at once with a difference array —
    # coverage > 0 exactly where some interval covers the start.
    diff = np.zeros(n_starts + 1, dtype=np.int64)
    np.add.at(diff, lo[keep], 1)
    np.add.at(diff, hi[keep], -1)
    allowed &= np.cumsum(diff[:-1]) == 0


def _budget_mirror(budgets: "BudgetSet") -> _BudgetArrays:
    """The (cached, refreshed) array mirror of ``budgets``."""
    mirror = _BUDGET_CACHE.get(budgets)
    if mirror is None:
        mirror = _BudgetArrays(budgets)
        _BUDGET_CACHE[budgets] = mirror
    mirror.refresh(budgets)
    return mirror


def _allowed_starts(
    layout: "Layout",
    budgets: "BudgetSet",
    row: int,
    width: int,
) -> Optional[np.ndarray]:
    """Ascending indices of every legal start in ``row`` (None when none)."""
    occ = layout.occupancy[row]
    num_sites = occ.row.num_sites
    if width > num_sites:
        return None

    mirror = _budget_mirror(budgets)
    key = (row, width)
    epoch = mirror.row_epoch.get(row, 0)
    cached = mirror.starts.get(key)
    if cached is not None and cached[0] == occ.version and cached[1] == epoch:
        return cached[2]

    cc = _free_cumsum(occ)
    # allowed[s] ⇔ all of [s, s+width) free; length num_sites - width + 1.
    allowed = (cc[width:] - cc[:-width]) == width
    if allowed.any():
        arrays = mirror.row_arrays(budgets, row)
        if arrays is not None:
            _mask_forbidden(allowed, arrays, mirror.used, width, num_sites)
    idx = np.nonzero(allowed)[0]
    mirror.starts[key] = (occ.version, epoch, idx)
    return idx


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
    idx = _allowed_starts(layout, budgets, row, width)
    if idx is None or idx.size == 0:
        return None
    return int(idx[np.argmin(np.abs(idx - target_site))])


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

    mirror = _budget_mirror(budgets)
    xlo, ylo, xhi, yhi, soft, max_used = mirror.rect_arrays(budgets)

    anchor = (
        attract_point if attract_point is not None
        else layout.cell_center(name)
    )
    headroom = (max_used - mirror.used).astype(np.float64)
    eligible = soft & (headroom >= width + 2)
    src = mirror.index.get(id(source))
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
