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
supersedes the literal greedy at realistic free-space ratios.  A respace
pass is a plan over per-row start lists; the layout is written only to
score a candidate and to adopt the winner, one changed row at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import FlowError
from repro.layout.gaps import GapGraph
from repro.layout.layout import Layout
from repro.layout.rows import RowOccupancy
from repro.security.exploitable import DEFAULT_THRESH_ER, find_exploitable_regions

#: Passes per direction policy (respace), or forward+reverse sweep
#: repetitions (greedy), at most.
MAX_ROUNDS = 3

#: (greedy) Safety bound on shifts per row and pass.
MAX_BATCHES_PER_ROW = 10_000


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
        while batches < MAX_BATCHES_PER_ROW:
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
    return layout.gap_graph().exploitable(thresh_er)[0]


#: The free gaps of the row below, sorted and disjoint, as three parallel
#: lists: starts, ends and the weight of each gap's component
#: (:meth:`GapGraph.last_row`).  The planner merges components by
#: rewriting the weights in place.
_Below = Tuple[List[int], List[int], List[int]]


def _max_chain_gap(
    cursor: int,
    g_cap: int,
    los: List[int],
    weights: List[int],
    first: int,
    quota: int,
) -> int:
    """Largest gap ``[cursor, cursor+g)`` whose merged component ≤ quota.

    A gap overlapping below-gaps b1..bk merges their components; the
    merged weight ``g + Σ w(bj)`` must stay within ``quota``.  The maximum
    is found by scanning the overlap breakpoints left to right.  The
    below gaps are sorted and disjoint (``los`` their starts, ``weights``
    their component weights) and ``first`` is the first of them that
    ends past ``cursor``, so the gaps a gap can overlap are the run from
    ``first`` on that starts before ``cursor + g_cap``.
    """
    if g_cap <= 0:
        return 0
    n = len(los)
    j = first
    acc = 0
    if j < n and los[j] <= cursor:  # the gap the cursor sits in
        acc = weights[j]
        j += 1
    stop = j  # los[j:stop] start inside [cursor, cursor + g_cap)
    while stop < n and los[stop] < cursor + g_cap:
        stop += 1
    first_brk = (los[j] - cursor) if j < stop else g_cap
    best = min(quota - acc, g_cap, first_brk)
    for k in range(j, stop):
        acc += weights[k]
        nxt = (los[k + 1] - cursor) if k + 1 < stop else g_cap
        cand = min(quota - acc, g_cap, nxt)
        if cand > los[k] - cursor:
            best = max(best, cand)
    return max(best, 0)


def _dp_gap_layout(
    seg_lo: int,
    seg_hi: int,
    widths: List[int],
    below: _Below,
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

    A cell steps a whole run of reached states at once: from a reached
    prefix end ``e`` the next cell may end anywhere in
    ``[e + w, min(e + gmax(e) + w, span)]``, and these ranges start at
    consecutive sites, so a run ``[a, b]`` reaches
    ``[a + w, min(max(e + gmax(e)) + w, span)]`` over ``e`` in the run.
    """
    m = len(widths)
    if m == 0:
        return None
    span = seg_hi - seg_lo
    los, his, weights = below
    cap = quota if gap_cap is None else min(gap_cap, quota)
    # reach[i][e] — after placing i cells, can the occupied prefix end at
    # seg_lo + e?
    reach = [bytearray(span + 1) for _ in range(m + 1)]
    reach[0][0] = 1
    # farthest[e] = e + gmax(seg_lo + e), or -1 until a run needs it.
    farthest = [-1] * (span + 1)

    ones = b"\x01" * (span + 1)
    for i in range(m):
        w = widths[i]
        cur = reach[i]
        nxt = reach[i + 1]
        stop = span - w + 1  # a prefix ending at or past it cannot fit w
        a = cur.find(1, 0, stop) if stop > 0 else -1
        while a >= 0:
            b = cur.find(0, a, stop)
            if b < 0:
                b = stop
            e = a
            while True:
                try:
                    e = farthest.index(-1, e, b)
                except ValueError:
                    break
                pos = seg_lo + e
                farthest[e] = e + _max_chain_gap(
                    pos, cap, los, weights, bisect_right(his, pos), quota
                )
                e += 1
            top = min(max(farthest[a:b]) + w, span)
            nxt[a + w : top + 1] = ones[: top - a - w + 1]
            a = cur.find(1, b, stop)
    final = reach[m]
    best_e = final.rfind(1)
    if best_e < 0:
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
            if g > 0 and farthest[e_prev] - e_prev < g:
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
    below: _Below,
    quota: int,
    gap_cap: Optional[int] = None,
) -> tuple:
    """Realize a gap plan with live merge bookkeeping.

    When ``proposed`` is None, gaps are chosen eagerly (max admissible at
    each position); otherwise each proposed gap is clamped to what the
    live chain budget still admits.  ``below`` is mutated: every placed
    gap merges the below components it overlaps.  The cursor only moves
    right, so one index walks the sorted below gaps once.

    Returns:
        (plan, leftover) — the realized gap before each cell and the free
        sites that could not be placed (they land after the last cell).
    """
    los, his, weights = below
    n = len(los)
    remaining = (p_hi - p_lo) - sum(widths)
    cursor = p_lo
    plan: List[int] = []
    cap = quota if gap_cap is None else min(gap_cap, quota)
    first = 0
    for i, w in enumerate(widths):
        while first < n and his[first] <= cursor:
            first += 1
        g_cap = min(cap, remaining, p_hi - cursor)
        if proposed is not None:
            g_cap = min(g_cap, proposed[i])
        if first == n or los[first] >= cursor + g_cap:
            g = g_cap if g_cap > 0 else 0  # overlaps no below gap
        else:
            g = _max_chain_gap(cursor, g_cap, los, weights, first, quota)
        if g > 0:
            end = cursor + g
            stop = first
            while stop < n and los[stop] < end:
                stop += 1
            if stop > first:
                merged = g + sum(weights[first:stop])
                weights[first:stop] = [merged] * (stop - first)
        cursor += g + w
        remaining -= g
        plan.append(g)
    return plan, remaining


class _RowCells:
    """One row's cells as the re-space sees them.

    ``widths`` holds every cell's width, left to right, and ``segments``
    the runs of movable cells between the core edges and the fixed cells:
    ``(lo, hi, first, stop)`` covers sites ``[lo, hi)`` and holds cells
    ``first .. stop − 1``.  Fixed cells never move, so neither changes
    from pass to pass.
    """

    __slots__ = ("num_sites", "widths", "segments")

    def __init__(self, occ: RowOccupancy, fixed: Set[str]) -> None:
        self.num_sites = occ.row.num_sites
        self.widths = [p.width for p in occ]
        self.segments: List[Tuple[int, int, int, int]] = []
        lo = first = 0
        for i, p in enumerate(occ):
            if p.name in fixed:
                if i > first:
                    self.segments.append((lo, p.start, first, i))
                lo, first = p.end, i + 1
        if len(self.widths) > first:
            self.segments.append((lo, self.num_sites, first, len(self.widths)))

    def gaps(self, starts: List[int]) -> List[Tuple[int, int]]:
        """The row's free ``(lo, hi)`` gaps with its cells at ``starts``."""
        gaps = []
        cursor = 0
        for start, width in zip(starts, self.widths):
            if start > cursor:
                gaps.append((cursor, start))
            cursor = start + width
        if cursor < self.num_sites:
            gaps.append((cursor, self.num_sites))
        return gaps


def _plan_gaps(
    p_lo: int,
    p_hi: int,
    widths: List[int],
    below: _Below,
    quota: int,
    gap_cap: Optional[int],
) -> List[int]:
    """The gap before each cell of one segment, in planning coordinates.

    ``below``'s weights end up carrying the adopted plan's merges.
    """
    los, his, weights = below
    # Plan 1 — eager scan with live merge bookkeeping.
    snapshot = list(weights)
    plan, remaining = _simulate_plan(
        p_lo, p_hi, widths, None, below, quota, gap_cap=gap_cap
    )
    if remaining > 0:
        # Plan 2 — optimal gap budget via the reachability DP,
        # re-simulated with live bookkeeping (clamped where the
        # DP's merge-free approximation oversubscribed a chain).
        raw = _dp_gap_layout(
            p_lo, p_hi, widths, (los, his, snapshot), quota, gap_cap=gap_cap
        )
        if raw is not None:
            weights2 = list(snapshot)
            plan2, remaining2 = _simulate_plan(
                p_lo, p_hi, widths, raw, (los, his, weights2), quota,
                gap_cap=gap_cap,
            )
            if remaining2 < remaining:
                plan, remaining = plan2, remaining2
                weights[:] = weights2
            # else: keep plan 1; `below` already carries its state
    if remaining > 0 and gap_cap is not None:
        # The half-quota cap starved this row: retry uncapped.
        weights3 = list(snapshot)
        plan3, remaining3 = _simulate_plan(
            p_lo, p_hi, widths, None, (los, his, weights3), quota
        )
        if remaining3 < remaining:
            plan = plan3
            weights[:] = weights3
    return plan


def _respace_pass(
    rows: List[_RowCells],
    starts: List[List[int]],
    quota: int,
    gap_cap: Optional[int],
    direction_mode: str,
) -> Tuple[Dict[int, List[int]], GapGraph, int, int]:
    """Plan one constructive row re-spacing pass (the default CS strategy).

    Processes rows bottom-up.  Within each row, movable cells are re-spaced
    (order preserved, fixed cells act as immovable barriers) so that every
    free gap holds at most ``quota`` sites *including* whatever below-row
    components it merges with (chain-aware budgeting) — so no gap-graph
    component can reach the threshold.  This reaches Algorithm 1's stated
    post-condition directly; the literal per-vertex greedy provably
    strands the conserved free space in above-threshold blobs at the
    blocked core edges once free space exceeds a few percent.

    The pass is a plan: ``starts[r]`` are row ``r``'s cell starts before
    it, and a row reads only its own cells and the finished rows below it,
    so nothing is written.  ``gap_cap`` caps every gap, or is ``None``.

    Returns:
        ``(moved, graph, moves, shifted_sites)``: the new starts of every
        row the pass changes, the gap graph of all rows after the pass,
        and the number and total distance of the pass's cell moves.
    """
    graph = GapGraph()
    moved: Dict[int, List[int]] = {}
    moves = shifted_sites = 0
    for row_idx, cells in enumerate(rows):
        old = starts[row_idx]
        new = old
        if cells.segments:
            below = graph.last_row()
            # "alternate": adjacent rows park their gaps (and leftover
            # tails) at opposite ends — best when most rows absorb their
            # free budget.  "forward": every row scans rightward,
            # consolidating all leftover tails into one right-edge channel
            # — better at very low utilization, where per-row leftovers
            # are inevitable and parking them at alternating edges
            # saturates both edges' chain budgets.
            if direction_mode == "alternate":
                rightward = row_idx % 2 == 0
            else:
                rightward = direction_mode == "forward"
            w_row = cells.num_sites
            if not rightward:
                # Work in mirrored coordinates so the planner is always a
                # forward scan; targets are mapped back afterwards.
                los, his, weights = below
                below = (
                    [w_row - hi for hi in reversed(his)],
                    [w_row - lo for lo in reversed(los)],
                    weights[::-1],
                )
            for seg_lo, seg_hi, first, stop in cells.segments:
                widths = cells.widths[first:stop]
                if rightward:
                    p_lo, p_hi = seg_lo, seg_hi
                    order = range(first, stop)
                else:
                    p_lo, p_hi = w_row - seg_hi, w_row - seg_lo
                    widths.reverse()
                    order = range(stop - 1, first - 1, -1)
                plan = _plan_gaps(p_lo, p_hi, widths, below, quota, gap_cap)
                cursor = p_lo
                for i, width, g in zip(order, widths, plan):
                    cursor += g
                    start = cursor if rightward else w_row - cursor - width
                    cursor += width
                    if start != old[i]:
                        if new is old:
                            new = list(old)
                        new[i] = start
                        moves += 1
                        shifted_sites += abs(start - old[i])
            if new is not old:
                moved[row_idx] = new
        # The row is final now; grow the gap graph by it so the next row
        # reads its below-weights without a full rebuild.
        graph.add_row(cells.gaps(new))
    return moved, graph, moves, shifted_sites


def _write_rows(layout: Layout, starts: List[List[int]]) -> None:
    """Rewrite every row of ``layout`` whose cell starts differ."""
    for row, occ in enumerate(layout.occupancy):
        if occ.starts != starts[row]:
            layout.rewrite_row(row, starts[row])


def _respace(
    layout: Layout,
    thresh_er: int,
    score: Optional[Callable[[], float]],
    sites_before: int,
    report: CellShiftReport,
) -> None:
    """The ``"respace"`` strategy: plan each direction policy, adopt the best.

    ``score()`` rates ``layout`` as it stands; when it is ``None``, a
    candidate's exploitable sites are its score.  Trials are start lists:
    ``layout`` is written only to score a trial and to adopt the winner.

    Both scores count sites, so none is below 0.  Once the best score is
    0 no later candidate can score lower, so the remaining policies are
    neither planned nor rated; likewise a policy stops passing once its
    exploitable sites are 0, since no pass could lower them.
    """
    rows = [_RowCells(occ, layout.fixed) for occ in layout.occupancy]
    base = [list(occ.starts) for occ in layout.occupancy]

    def rate(starts: List[List[int]], sites: int) -> float:
        if score is None:
            return float(sites)
        _write_rows(layout, starts)
        return score()

    quota = thresh_er - 1
    # At high free ratios (low utilization) strict per-row fragmentation
    # runs out of admissible columns; capping every gap at half quota lets
    # adjacent rows stack gaps pairwise within one chain budget, roughly
    # doubling the usable column capacity.
    gap_cap = (quota + 1) // 2 if 1.0 - layout.utilization() > 0.40 else None
    # The untouched layout is the first candidate: on degenerate
    # near-empty layouts every direction policy can only fragment the one
    # big component into more exploitable sites, and the right answer is
    # to not move at all.  A later candidate wins only by scoring lower.
    best_score = rate(base, sites_before)
    winner = (base, 0, 0, report.regions_before)
    for mode in ("alternate", "forward", "backward"):
        if best_score <= 0:
            break
        starts = base
        best = sites_before
        moves = shifted_sites = 0
        regions = None
        for _ in range(MAX_ROUNDS):
            if best <= 0:
                break
            moved, graph, pass_moves, pass_sites = _respace_pass(
                rows, starts, quota, gap_cap, mode
            )
            now, components = graph.exploitable(thresh_er)
            if now >= best:
                # A non-improving pass is dropped: keep the state that
                # produced `best`.
                break
            starts = [moved.get(r, row) for r, row in enumerate(starts)]
            best, regions = now, components
            moves += pass_moves
            shifted_sites += pass_sites
        if regions is None:
            continue  # the untouched layout, which is rated already
        trial_score = rate(starts, best)
        if trial_score < best_score:
            best_score = trial_score
            winner = (starts, moves, shifted_sites, regions)
    starts, report.moves, report.shifted_sites, report.regions_after = winner
    _write_rows(layout, starts)
    layout.reorder_fixed_first()


def cell_shift(
    layout: Layout,
    thresh_er: int = DEFAULT_THRESH_ER,
    strategy: str = "respace",
    assets: Optional[object] = None,
    distances: Optional[dict] = None,
) -> CellShiftReport:
    """Run the Cell Shift operator on ``layout`` (mutated in place).

    Two strategies, both restricted to Algorithm 1's move set (horizontal
    in-row shifts of non-fixed cells, cell order preserved):

    * ``"respace"`` (default) — constructive row re-spacing: every gap is
      capped at ``thresh_er − 1`` sites and placed off the columns of the
      row below, so no gap-graph component can reach the threshold.  This
      reaches Algorithm 1's stated post-condition directly.  Three
      direction policies ("alternate", "forward", "backward") each run up
      to :data:`MAX_ROUNDS` passes, keeping a pass only while it lowers the
      exploitable sites.  The candidates are then scored in this order:
      the untouched layout first, then the three policies' results.  The
      first candidate with the lowest score is adopted, so a policy
      replaces the untouched layout only when it scores strictly lower.
    * ``"greedy"`` — the literal Algorithm 1 loop (forward pass plus the
      mirrored reverse pass), repeated up to :data:`MAX_ROUNDS` times.  At
      free-space ratios above a few percent the greedy strands the
      conserved free space in above-threshold blobs at the blocked core
      edges; it is kept as the faithful reference for comparison and as
      the ablation target.

    Args:
        layout: A placed layout; cells in ``layout.fixed`` never move.
        thresh_er: The exploitable-region site threshold.
        strategy: ``"respace"`` or ``"greedy"``.
        assets: (respace) The security-critical cells.  With
            ``distances``, a candidate's score is the distance-aware
            exploitable sites of :func:`find_exploitable_regions`: the
            free (or filler) sites within an asset's exploitable distance
            that form above-threshold regions.  A policy that parks the leftover free
            space in one edge channel beyond every asset's reach then
            scores well.  Without both, the score is the gap graph's
            exploitable sites.
        distances: (respace) Exploitable distance in µm per asset, as
            :func:`find_exploitable_regions` takes them.

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
    sites_before, report.regions_before = layout.gap_graph().exploitable(
        thresh_er
    )
    if strategy == "respace":

        def distance_aware() -> float:
            return float(find_exploitable_regions(
                layout, None, assets, thresh_er=thresh_er, distances=distances
            ).er_sites)

        aware = assets is not None and distances is not None
        _respace(
            layout, thresh_er, distance_aware if aware else None,
            sites_before, report,
        )
        return report
    best = sites_before
    for _ in range(MAX_ROUNDS):
        _shift_pass(layout, thresh_er, reverse=False, report=report)
        _shift_pass(layout, thresh_er, reverse=True, report=report)
        now = _exploitable_sites(layout, thresh_er)
        if now >= best:
            break
        best = now
    report.regions_after = layout.gap_graph().exploitable(thresh_er)[1]
    return report
