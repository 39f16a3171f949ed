"""Scalar oracles for the cell-shift re-space.

:func:`_plan_gaps` and the three functions under it
(:func:`_max_chain_gap`, :func:`_simulate_plan`, :func:`_dp_gap_layout`)
are the re-space's gap planner as it was written first: every placed
cell filters the whole below-row gap list, and the DP visits every
reached state of every cell one at a time.  The production planner in
:mod:`repro.core.cell_shift` must return the same plans, leftovers and
below weights.

``_IncrementalBelow`` grows one union-find over rows ``0..r`` as the
re-space finalizes them.  :func:`_below_weights` rebuilds the whole gap
graph of those rows from scratch and reads each gap's component weight
off it.

:func:`cell_shift` is the ``"respace"`` strategy written as mutations of
layouts: a clone of the untouched layout, one clone per direction policy,
an undo clone before every pass, each changed segment vacated and placed
again cell by cell, a gap graph after every pass, and the winner adopted
by unplacing and re-placing every movable cell.  The production strategy
plans each pass over start lists and writes only the rows that change; it
must leave the same layout and report.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cell_shift import (
    CellShiftReport,
    _exploitable_sites,
    _graph_upto,
)
from repro.errors import FlowError
from repro.layout.layout import Layout
from repro.security.exploitable import find_exploitable_regions


class _BelowGap:
    """A free gap of the row below, annotated with its component weight."""

    __slots__ = ("lo", "hi", "weight")

    def __init__(self, lo: int, hi: int, weight: int) -> None:
        self.lo = lo
        self.hi = hi
        self.weight = weight


def _max_chain_gap(
    cursor: int, g_cap: int, below: List[_BelowGap], quota: int
) -> int:
    """Largest gap ``[cursor, cursor+g)`` whose merged component ≤ quota.

    A gap overlapping below-gaps b1..bk merges their components; the
    merged weight ``g + Σ w(bj)`` must stay within ``quota``.  The maximum
    is found by scanning the overlap breakpoints left to right.
    """
    if g_cap <= 0:
        return 0
    overl = [b for b in below if b.hi > cursor and b.lo < cursor + g_cap]
    acc = sum(b.weight for b in overl if b.lo <= cursor)
    future = [b for b in overl if b.lo > cursor]
    first_brk = (future[0].lo - cursor) if future else g_cap
    best = min(quota - acc, g_cap, first_brk)
    for j, b in enumerate(future):
        acc += b.weight
        nxt = (future[j + 1].lo - cursor) if j + 1 < len(future) else g_cap
        cand = min(quota - acc, g_cap, nxt)
        if cand > b.lo - cursor:
            best = max(best, cand)
    return max(best, 0)


def _dp_gap_layout(
    seg_lo: int,
    seg_hi: int,
    widths: List[int],
    below: List[_BelowGap],
    quota: int,
    gap_cap: Optional[int] = None,
) -> Optional[List[int]]:
    """Optimal gap sizes for one segment via reachability DP.

    Maximizes the total gap budget placed before the cells (minimizing the
    unconstrained leftover tail), subject to the chain budget at every gap
    position.  Returns the gap before each cell, or ``None`` when the
    segment is empty.  Intra-segment merge interactions are ignored during
    the DP (the caller re-applies merge accounting afterwards), which can
    overshoot a component by at most one quota — still far below any
    realistic threshold pile-up.
    """
    m = len(widths)
    if m == 0:
        return None
    span = seg_hi - seg_lo
    # reach[i][e] — after placing i cells, can the occupied prefix end at
    # seg_lo + e?
    reach = [bytearray(span + 1) for _ in range(m + 1)]
    reach[0][0] = 1
    gmax_cache: dict = {}

    cap = quota if gap_cap is None else min(gap_cap, quota)

    def gmax(pos: int) -> int:
        g = gmax_cache.get(pos)
        if g is None:
            g = _max_chain_gap(pos, cap, below, quota)
            gmax_cache[pos] = g
        return g

    ones = b"\x01" * (span + 1)
    for i in range(m):
        w = widths[i]
        cur = reach[i]
        nxt = reach[i + 1]
        for e in range(span + 1):
            if not cur[e]:
                continue
            pos = seg_lo + e
            top = min(gmax(pos), span - e - w)
            if top >= 0:
                # marks exactly the cells the per-g loop would set
                nxt[e + w : e + w + top + 1] = ones[: top + 1]
    final = reach[m]
    best_e = max((e for e in range(span + 1) if final[e]), default=None)
    if best_e is None:
        return None
    # Backtrack: find per-cell gaps.
    gaps: List[int] = []
    e = best_e
    for i in range(m - 1, -1, -1):
        w = widths[i]
        found = False
        for g in range(min(cap, e - w), -1, -1):
            e_prev = e - w - g
            if e_prev < 0 or not reach[i][e_prev]:
                continue
            if g > 0 and gmax(seg_lo + e_prev) < g:
                continue
            gaps.append(g)
            e = e_prev
            found = True
            break
        if not found:  # pragma: no cover - reachability guarantees a parent
            return None
    gaps.reverse()
    return gaps


def _simulate_plan(
    p_lo: int,
    p_hi: int,
    widths: List[int],
    proposed: Optional[List[int]],
    below: List[_BelowGap],
    quota: int,
    gap_cap: Optional[int] = None,
) -> tuple:
    """Realize a gap plan with live merge bookkeeping.

    When ``proposed`` is None, gaps are chosen eagerly (max admissible at
    each position); otherwise each proposed gap is clamped to what the
    live chain budget still admits.  ``below`` is mutated: every placed
    gap merges the below components it overlaps.

    Returns:
        (plan, leftover) — the realized gap before each cell and the free
        sites that could not be placed (they land after the last cell).
    """
    remaining = (p_hi - p_lo) - sum(widths)
    cursor = p_lo
    plan: List[int] = []
    cap = quota if gap_cap is None else min(gap_cap, quota)
    for i, w in enumerate(widths):
        g_cap = min(cap, remaining, p_hi - cursor)
        if proposed is not None:
            g_cap = min(g_cap, proposed[i])
        g = _max_chain_gap(cursor, g_cap, below, quota)
        if g > 0:
            overlapped = [
                b for b in below if b.hi > cursor and b.lo < cursor + g
            ]
            if overlapped:
                merged = g + sum(b.weight for b in overlapped)
                for b in overlapped:
                    b.weight = merged
        cursor += g + w
        remaining -= g
        plan.append(g)
    return plan, remaining


def _plan_gaps(
    p_lo: int,
    p_hi: int,
    widths: List[int],
    below: List[_BelowGap],
    quota: int,
    gap_cap: Optional[int],
) -> List[int]:
    """The gap before each cell of one segment, in planning coordinates.

    ``below`` ends up carrying the adopted plan's merges.
    """
    # Plan 1 — eager scan with live merge bookkeeping.
    snapshot = [(b.lo, b.hi, b.weight) for b in below]
    plan, remaining = _simulate_plan(
        p_lo, p_hi, widths, None, below, quota, gap_cap=gap_cap
    )
    if remaining > 0:
        # Plan 2 — optimal gap budget via the reachability DP,
        # re-simulated with live bookkeeping (clamped where the
        # DP's merge-free approximation oversubscribed a chain).
        below_dp = [_BelowGap(lo, hi, w) for lo, hi, w in snapshot]
        raw = _dp_gap_layout(
            p_lo, p_hi, widths, below_dp, quota, gap_cap=gap_cap
        )
        if raw is not None:
            below2 = [_BelowGap(lo, hi, w) for lo, hi, w in snapshot]
            plan2, remaining2 = _simulate_plan(
                p_lo, p_hi, widths, raw, below2, quota, gap_cap=gap_cap
            )
            if remaining2 < remaining:
                plan, remaining = plan2, remaining2
                below[:] = below2
            # else: keep plan 1; `below` already carries its state
    if remaining > 0 and gap_cap is not None:
        # The half-quota cap starved this row: retry uncapped.
        below3 = [_BelowGap(lo, hi, w) for lo, hi, w in snapshot]
        plan3, remaining3 = _simulate_plan(p_lo, p_hi, widths, None, below3, quota)
        if remaining3 < remaining:
            plan = plan3
            below[:] = below3
    return plan


def _below_weights(layout: Layout, row_idx: int) -> List[_BelowGap]:
    """Gaps of ``row_idx − 1`` with the weight of their full component."""
    if row_idx == 0:
        return []
    graph = _graph_upto(layout, row_idx - 1)
    return [
        _BelowGap(g.lo, g.hi, graph.component_weight_of(g))
        for g in graph.row_gaps(row_idx - 1)
    ]


def _respace_pass(
    layout: Layout,
    thresh_er: int,
    report: CellShiftReport,
    direction_mode: str,
) -> None:
    """One re-space pass, moving the cells of ``layout`` row by row."""
    quota = thresh_er - 1
    free_ratio = 1.0 - layout.utilization()
    pair_rows = free_ratio > 0.40
    half_cap = (quota + 1) // 2
    for row_idx in range(layout.num_rows):
        occ = layout.occupancy[row_idx]
        placements = list(occ)  # sorted by start
        # Segment boundaries: core edges and fixed cells.
        segments = []
        seg_start = 0
        movable_run: List = []
        for p in placements:
            if p.name in layout.fixed:
                segments.append((seg_start, p.start, movable_run))
                seg_start = p.end
                movable_run = []
            else:
                movable_run.append(p)
        segments.append((seg_start, occ.row.num_sites, movable_run))

        below = _below_weights(layout, row_idx)
        if direction_mode == "alternate":
            rightward = row_idx % 2 == 0
        else:
            rightward = direction_mode == "forward"
        w_row = occ.row.num_sites
        if not rightward:
            below = [
                _BelowGap(w_row - b.hi, w_row - b.lo, b.weight)
                for b in reversed(below)
            ]

        for seg_lo, seg_hi, cells in segments:
            if not cells:
                continue
            if rightward:
                p_lo, p_hi = seg_lo, seg_hi
                ordered = cells
            else:
                p_lo, p_hi = w_row - seg_hi, w_row - seg_lo
                ordered = list(reversed(cells))
            widths = [p.width for p in ordered]

            gap_cap = half_cap if pair_rows else None
            plan = _plan_gaps(p_lo, p_hi, widths, below, quota, gap_cap)

            targets = []
            cursor = p_lo
            for p, g in zip(ordered, plan):
                cursor += g
                start = cursor if rightward else w_row - cursor - p.width
                targets.append((p.name, p.start, start))
                cursor += p.width
            # Vacate the whole segment, then place at the targets.
            if all(old == new for _, old, new in targets):
                continue
            for name, _, _ in targets:
                layout.unplace(name)
            for name, old_start, new_start in targets:
                layout.place(name, row_idx, new_start)
                if new_start != old_start:
                    report.moves += 1
                    report.shifted_sites += abs(new_start - old_start)


def _adopt_placements(dst: Layout, src: Layout) -> None:
    """Copy every movable placement of ``src`` onto ``dst`` (same design)."""
    movable = [n for n in list(dst.placements) if n not in dst.fixed]
    for name in movable:
        dst.unplace(name)
    for name in movable:
        pl = src.placement(name)
        dst.place(name, pl.row, pl.start)


def cell_shift(
    layout: Layout,
    thresh_er: int,
    max_rounds: int = 3,
    assets: Optional[object] = None,
    distances: Optional[dict] = None,
) -> CellShiftReport:
    """``core.cell_shift.cell_shift`` with ``strategy="respace"``."""
    if thresh_er < 1:
        raise FlowError("thresh_er must be >= 1")
    report = CellShiftReport()
    report.regions_before = len(
        layout.gap_graph().exploitable_components(thresh_er)
    )

    def score(trial: Layout) -> float:
        if assets is not None and distances is not None:
            rep = find_exploitable_regions(
                trial, None, assets, thresh_er=thresh_er, distances=distances
            )
            return float(rep.er_sites)
        return float(_exploitable_sites(trial, thresh_er))

    candidates = [(score(layout), layout.clone(), CellShiftReport())]
    for mode in ("alternate", "forward", "backward"):
        trial = layout.clone()
        trial_report = CellShiftReport()
        best = _exploitable_sites(trial, thresh_er)
        for _ in range(max_rounds):
            undo = trial.clone()
            undo_moves = (trial_report.moves, trial_report.shifted_sites)
            _respace_pass(trial, thresh_er, trial_report, mode)
            now = _exploitable_sites(trial, thresh_er)
            if now >= best:
                trial = undo
                trial_report.moves, trial_report.shifted_sites = undo_moves
                break
            best = now
        candidates.append((score(trial), trial, trial_report))
    _, winner, winner_report = min(candidates, key=lambda c: c[0])
    _adopt_placements(layout, winner)
    report.moves = winner_report.moves
    report.shifted_sites = winner_report.shifted_sites
    report.regions_after = len(
        layout.gap_graph().exploitable_components(thresh_er)
    )
    return report
