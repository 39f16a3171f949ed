"""Scalar oracles for the cell-shift re-space.

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
    _BelowGap,
    _dp_gap_layout,
    _exploitable_sites,
    _graph_upto,
    _simulate_plan,
)
from repro.errors import FlowError
from repro.layout.layout import Layout
from repro.security.exploitable import find_exploitable_regions


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
            snapshot = [(b.lo, b.hi, b.weight) for b in below]
            plan, remaining = _simulate_plan(
                p_lo, p_hi, widths, None, below, quota, gap_cap=gap_cap
            )
            if remaining > 0:
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
            if remaining > 0 and gap_cap is not None:
                below3 = [_BelowGap(lo, hi, w) for lo, hi, w in snapshot]
                plan3, remaining3 = _simulate_plan(
                    p_lo, p_hi, widths, None, below3, quota
                )
                if remaining3 < remaining:
                    plan, remaining = plan3, remaining3
                    below[:] = below3

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
