"""Cell Shift (CS) — Algorithm 1 of the paper.

CS erases exploitable regions globally by row-wise shifting of cells.  The
core row by row (bottom-up), each free-site vertex of the gap graph built
over the processed rows is checked: while its component is exploitable
(``w(compo(v)) >= Thresh_ER``), the cell adjacent to the vertex is shifted
into it, shrinking the vertex until the component drops below threshold or
the vertex disappears.  Movement is kept minimal — shifting stops as soon
as the component is no longer exploitable — to bound the timing impact.
A mirrored second pass (right-to-left visiting, rightward shifts) then
removes the regions the first pass pushed toward the core's right edge.

Implementation notes: the paper's inner loop moves one site at a time and
re-runs DFS; we move in batches of ``min(w(v), w(C) − Thresh_ER + 1)``
sites and rebuild the (union-find) gap graph between batches, which yields
the same post-condition with far fewer graph rebuilds.  Cells in
``layout.fixed`` are never moved; a vertex blocked by a fixed cell is
skipped.  See :func:`cell_shift` for the default "respace" strategy that
supersedes the literal greedy at realistic free-space ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import FlowError
from repro.layout.gaps import GapGraph
from repro.layout.layout import Layout
from repro.security.exploitable import DEFAULT_THRESH_ER, find_exploitable_regions


@dataclass
class CellShiftReport:
    """What a CS run did.

    Attributes:
        moves: Number of cell relocations (a batch shift counts once).
        shifted_sites: Total shift distance in sites.
        regions_before: Exploitable-weight components before the run
            (no exploitable-distance filter — CS is distance-agnostic).
        regions_after: Same count after the run.
    """

    moves: int = 0
    shifted_sites: int = 0
    regions_before: int = 0
    regions_after: int = 0


def _graph_upto(layout: Layout, last_row: int) -> GapGraph:
    """Gap graph over rows ``0..last_row`` inclusive."""
    intervals = [
        layout.occupancy[r].free_intervals() for r in range(last_row + 1)
    ]
    return GapGraph.from_free_intervals(intervals)


def _shift_pass(
    layout: Layout,
    thresh_er: int,
    reverse: bool,
    report: CellShiftReport,
    max_batches_per_row: int,
) -> None:
    """One directional pass of Algorithm 1.

    ``reverse=False``: visit vertices left→right, shift the cell right of
    the vertex leftward.  ``reverse=True``: mirrored.
    """
    for row_idx in range(layout.num_rows):
        occ = layout.occupancy[row_idx]
        cursor = layout.sites_per_row if reverse else 0
        batches = 0
        # Rebuild the gap graph only after a shift; scanning past
        # non-exploitable vertices reuses the cached graph.
        while batches < max_batches_per_row:
            graph = _graph_upto(layout, row_idx)
            row_gaps = graph.row_gaps(row_idx)
            if reverse:
                scan = [g for g in reversed(row_gaps) if g.hi <= cursor]
            else:
                scan = [g for g in row_gaps if g.lo >= cursor]
            moved = False
            for v in scan:
                weight_c = graph.component_weight_of(v)
                if weight_c < thresh_er:
                    cursor = v.lo if reverse else v.hi
                    continue
                # the neighbor cell that can be shifted into the vertex
                if reverse:
                    neighbor = occ.cell_left_of(v.lo)
                    blocked = neighbor is None or neighbor.end != v.lo
                else:
                    neighbor = occ.cell_right_of(v.hi)
                    blocked = neighbor is None or neighbor.start != v.hi
                if blocked or neighbor.name in layout.fixed:
                    cursor = v.lo if reverse else v.hi
                    continue
                k = min(v.weight, weight_c - thresh_er + 1)
                new_start = neighbor.start + (k if reverse else -k)
                layout.move_in_row(neighbor.name, new_start)
                report.moves += 1
                report.shifted_sites += k
                batches += 1
                moved = True
                break  # graph is stale: rebuild before continuing
            if not moved:
                break


def _exploitable_sites(layout: Layout, thresh_er: int) -> int:
    """Total free sites inside exploitable-weight components."""
    return sum(
        c.weight for c in layout.gap_graph().exploitable_components(thresh_er)
    )


class _BelowGap:
    """A free gap of the row below, annotated with its component weight."""

    __slots__ = ("lo", "hi", "weight")

    def __init__(self, lo: int, hi: int, weight: int) -> None:
        self.lo = lo
        self.hi = hi
        self.weight = weight


class _IncrementalBelow:
    """Incremental below-row component weights for the bottom-up re-space.

    ``_respace_pass`` finalizes row ``r`` before visiting row ``r+1``, so
    the gap graph over rows ``0..r`` can be grown one row at a time instead
    of rebuilt from scratch per row (which is quadratic in rows).  The
    union-find partition — and hence every component weight — is identical
    to :func:`_graph_upto`'s regardless of union order.
    """

    __slots__ = ("parent", "size", "weight", "prev")

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.size: List[int] = []
        self.weight: List[int] = []
        #: (lo, hi, node) triples of the last row added.
        self.prev: List[tuple] = []

    def _find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.weight[ra] += self.weight[rb]

    def add_row(self, intervals) -> None:
        """Append the next row's (final) free intervals to the graph."""
        cur = []
        for iv in intervals:
            node = len(self.parent)
            self.parent.append(node)
            self.size.append(1)
            self.weight.append(iv.hi - iv.lo)
            cur.append((iv.lo, iv.hi, node))
        prev = self.prev
        i = j = 0
        while i < len(prev) and j < len(cur):
            a, b = prev[i], cur[j]
            if a[0] < b[1] and b[0] < a[1]:
                self._union(a[2], b[2])
            if a[1] <= b[1]:
                i += 1
            else:
                j += 1
        self.prev = cur

    def below_gaps(self) -> List[_BelowGap]:
        """The last added row's gaps with their component weights."""
        return [
            _BelowGap(lo, hi, self.weight[self._find(node)])
            for lo, hi, node in self.prev
        ]


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


def _respace_pass(
    layout: Layout,
    thresh_er: int,
    report: CellShiftReport,
    direction_mode: str = "alternate",
) -> None:
    """Constructive row re-spacing (the default CS strategy).

    Processes rows bottom-up.  Within each row, movable cells are re-spaced
    (order preserved, fixed cells act as immovable barriers) so that every
    free gap holds at most ``thresh_er − 1`` sites *including* whatever
    below-row components it merges with (chain-aware budgeting) — so no
    gap-graph component can reach the threshold.  This reaches Algorithm
    1's stated post-condition directly; the literal per-vertex greedy
    provably strands the conserved free space in above-threshold blobs at
    the blocked core edges once free space exceeds a few percent.
    """
    quota = thresh_er - 1
    # At high free ratios (low utilization) strict per-row fragmentation
    # runs out of admissible columns; capping every gap at half quota lets
    # adjacent rows stack gaps pairwise within one chain budget, roughly
    # doubling the usable column capacity.
    free_ratio = 1.0 - layout.utilization()
    pair_rows = free_ratio > 0.40
    half_cap = (quota + 1) // 2
    tracker = _IncrementalBelow()
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

        below = tracker.below_gaps()
        # "alternate": adjacent rows park their gaps (and leftover tails)
        # at opposite ends — best when most rows absorb their free budget.
        # "forward": every row scans rightward, consolidating all leftover
        # tails into one right-edge channel — better at very low
        # utilization, where per-row leftovers are inevitable and parking
        # them at alternating edges saturates both edges' chain budgets.
        if direction_mode == "alternate":
            rightward = row_idx % 2 == 0
        else:
            rightward = direction_mode == "forward"
        w_row = occ.row.num_sites
        if not rightward:
            # Work in mirrored coordinates so the planner is always a
            # forward scan; targets are mapped back afterwards.
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
            free = (p_hi - p_lo) - sum(widths)

            gap_cap = half_cap if pair_rows else None
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
                plan3, remaining3 = _simulate_plan(
                    p_lo, p_hi, widths, None, below3, quota
                )
                if remaining3 < remaining:
                    plan, remaining = plan3, remaining3
                    below[:] = below3

            # Apply: compute per-cell targets from the adopted plan.
            targets = []
            cursor = p_lo
            for p, g in zip(ordered, plan):
                cursor += g
                start = cursor if rightward else w_row - cursor - p.width
                targets.append((p.name, p.start, p.width, start))
                cursor += p.width
            # Vacate the whole segment, then place at the targets —
            # collision-proof regardless of move directions.
            if all(t[1] == t[3] for t in targets):
                continue
            for name, _, _, _ in targets:
                layout.unplace(name)
            for name, old_start, _, new_start in targets:
                layout.place(name, row_idx, new_start)
                if new_start != old_start:
                    report.moves += 1
                    report.shifted_sites += abs(new_start - old_start)

        # The row is final now; extend the incremental gap graph so the
        # next row reads its below-weights without a full rebuild.
        tracker.add_row(occ.free_intervals())


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
    thresh_er: int = DEFAULT_THRESH_ER,
    strategy: str = "respace",
    bidirectional: bool = True,
    max_rounds: int = 3,
    max_batches_per_row: int = 10_000,
    assets: Optional[object] = None,
    distances: Optional[dict] = None,
) -> CellShiftReport:
    """Run the Cell Shift operator on ``layout`` (mutated in place).

    Two strategies, both restricted to Algorithm 1's move set (horizontal
    in-row shifts of non-fixed cells, cell order preserved):

    * ``"respace"`` (default) — constructive row re-spacing: every gap is
      capped at ``thresh_er − 1`` sites and placed off the columns of the
      row below, so no gap-graph component can reach the threshold.  This
      reaches Algorithm 1's stated post-condition directly.
    * ``"greedy"`` — the literal Algorithm 1 loop (forward pass plus the
      mirrored reverse pass), repeated up to ``max_rounds`` times.  At
      free-space ratios above a few percent the greedy strands the
      conserved free space in above-threshold blobs at the blocked core
      edges; it is kept as the faithful reference for comparison and as
      the ablation target.

    Args:
        layout: A placed layout; cells in ``layout.fixed`` never move.
        thresh_er: The exploitable-region site threshold.
        strategy: ``"respace"`` or ``"greedy"``.
        bidirectional: (greedy) run the mirrored second pass.
        max_rounds: (greedy) maximum forward+reverse sweep repetitions.
        max_batches_per_row: (greedy) safety bound on shifts per row.

    Returns:
        A :class:`CellShiftReport`.

    Raises:
        FlowError: On a non-positive threshold or unknown strategy.
    """
    if thresh_er < 1:
        raise FlowError("thresh_er must be >= 1")
    if strategy not in ("respace", "greedy"):
        raise FlowError(f"unknown cell-shift strategy {strategy!r}")
    report = CellShiftReport()
    report.regions_before = len(
        layout.gap_graph().exploitable_components(thresh_er)
    )
    if strategy == "respace":

        def score(trial: Layout) -> float:
            if assets is not None and distances is not None:
                rep = find_exploitable_regions(
                    trial, None, assets, thresh_er=thresh_er, distances=distances
                )
                return float(rep.er_sites)
            return float(_exploitable_sites(trial, thresh_er))

        # Try the direction policies on clones and keep the best.  The
        # uniform policies consolidate the inevitable low-utilization
        # leftovers into one edge channel — if that edge lies beyond the
        # assets' exploitable distance, the channel is harmless, which the
        # distance-aware score (when assets/distances are given) rewards.
        # The untouched layout seeds the candidate list: on degenerate
        # near-empty layouts every direction policy can only fragment the
        # one big component into more exploitable sites, and the right
        # answer is to not move at all.
        candidates = [(score(layout), layout.clone(), CellShiftReport())]
        for mode in ("alternate", "forward", "backward"):
            trial = layout.clone()
            trial_report = CellShiftReport()
            best = _exploitable_sites(trial, thresh_er)
            for _ in range(max_rounds):
                undo = trial.clone()
                undo_moves = (trial_report.moves, trial_report.shifted_sites)
                _respace_pass(trial, thresh_er, trial_report, direction_mode=mode)
                now = _exploitable_sites(trial, thresh_er)
                if now >= best:
                    # A non-improving pass must not stick: keep the state
                    # that produced `best`, not the worsened one.
                    trial = undo
                    trial_report.moves, trial_report.shifted_sites = undo_moves
                    break
                best = now
            candidates.append((score(trial), trial, trial_report))
        _, winner, winner_report = min(candidates, key=lambda c: c[0])
        _adopt_placements(layout, winner)
        report.moves += winner_report.moves
        report.shifted_sites += winner_report.shifted_sites
    else:
        best = _exploitable_sites(layout, thresh_er)
        for _ in range(max_rounds):
            _shift_pass(layout, thresh_er, reverse=False, report=report,
                        max_batches_per_row=max_batches_per_row)
            if bidirectional:
                _shift_pass(layout, thresh_er, reverse=True, report=report,
                            max_batches_per_row=max_batches_per_row)
            now = _exploitable_sites(layout, thresh_er)
            if now >= best:
                break
            best = now
    report.regions_after = len(
        layout.gap_graph().exploitable_components(thresh_er)
    )
    return report
