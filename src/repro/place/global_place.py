"""Initial (baseline) placement.

This stands in for the full global-placement + legalization flow that
produced the paper's baseline layouts.  It builds a connectivity-aware
serpentine placement: instances are linearly ordered by BFS over the
netlist so connected logic lands close together, then distributed row by
row at the requested utilization, with free sites scattered between cells.
The result has the properties the security analysis cares about — logic
clusters, dispersed free-site gaps forming exploitable regions, and a
realistic utilization — while staying fast and fully deterministic.

The ``packing`` knob (0 = evenly scattered gaps, 1 = cells packed hard to
the left with all free space pushed to the row ends) is what the ICAS
baseline sweeps as its "core density" CAD parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import PlacementError
from repro.geometry import Point
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist
from repro.place.budget import BudgetSet
from repro.tech.technology import Technology


@dataclass(frozen=True)
class GlobalPlacementSpec:
    """Knobs of the baseline placer.

    Attributes:
        target_utilization: Desired fraction of core sites occupied.
        packing: 0..1 — how much of each row's free space is pushed to the
            row end instead of scattered between cells.
        aspect: Core width/height balance; 1.0 aims at a square core in µm.
        num_rows: Optional fixed row count (overrides sizing from
            utilization — used when re-placing into an existing core).
        sites_per_row: Optional fixed sites per row.
        seed: RNG seed for the gap scattering.
    """

    target_utilization: float = 0.6
    packing: float = 0.15
    aspect: float = 1.0
    num_rows: Optional[int] = None
    sites_per_row: Optional[int] = None
    seed: int = 0
    #: instances to pack into one compact 2-D block (a register/asset
    #: bank), placed before the serpentine fill.  Real banks end up as
    #: dense rectangular clusters, not full-width bands.
    clustered: tuple = ()
    #: local placement density inside the clustered block.
    cluster_density: float = 0.72

    def __post_init__(self) -> None:
        if not 0.05 < self.target_utilization <= 1.0:
            raise PlacementError("target_utilization must be in (0.05, 1]")
        if not 0.0 <= self.packing <= 1.0:
            raise PlacementError("packing must be in [0, 1]")
        if not 0.1 < self.cluster_density <= 1.0:
            raise PlacementError("cluster_density must be in (0.1, 1]")


def connectivity_order(netlist: Netlist) -> List[str]:
    """Linear ordering of functional instances by DFS over connectivity.

    Depth-first traversal keeps whole logic cones contiguous in the
    ordering (breadth-first would interleave every cone at the same
    depth), which the serpentine mapper turns into spatial locality.
    Deterministic: ties are broken by insertion order; clock nets are
    skipped so the clock's huge fanout does not glue unrelated registers
    together.
    """
    clock_nets = netlist.clock_nets()
    adjacency: Dict[str, List[str]] = {}
    for inst in netlist.functional_instances():
        neighbors: List[str] = []
        for net_name in inst.connections.values():
            if net_name in clock_nets:
                continue
            net = netlist.net(net_name)
            if net.driver_pin is not None and net.driver_pin.instance != inst.name:
                neighbors.append(net.driver_pin.instance)
            for ref in net.sink_pins:
                if ref.instance != inst.name:
                    neighbors.append(ref.instance)
        adjacency[inst.name] = neighbors
    order: List[str] = []
    visited = set()
    for seed_name in adjacency:
        if seed_name in visited:
            continue
        stack = [seed_name]
        visited.add(seed_name)
        while stack:
            name = stack.pop()
            order.append(name)
            # reversed: visit the first-inserted neighbor first
            for nb in reversed(adjacency.get(name, ())):
                if nb not in visited and nb in adjacency:
                    visited.add(nb)
                    stack.append(nb)
    return order


def size_core(
    netlist: Netlist, technology: Technology, spec: GlobalPlacementSpec
) -> tuple:
    """Choose (num_rows, sites_per_row) for the requested utilization."""
    if spec.num_rows is not None and spec.sites_per_row is not None:
        return spec.num_rows, spec.sites_per_row
    cell_sites = sum(i.width_sites for i in netlist.functional_instances())
    total_sites = max(int(cell_sites / spec.target_utilization), 1)
    # Square core in µm: sites_per_row * site_w ≈ aspect * rows * row_h.
    ratio = technology.row_height / technology.site_width * spec.aspect
    rows = max(int(math.sqrt(total_sites / ratio)), 1)
    sites_per_row = max(int(math.ceil(total_sites / rows)), 1)
    # Make sure the widest cell fits.
    widest = max(
        (i.width_sites for i in netlist.functional_instances()), default=1
    )
    sites_per_row = max(sites_per_row, widest)
    return rows, sites_per_row


def _scatter_gaps(
    rng: np.random.Generator, free: int, slots: int, packing: float
) -> List[int]:
    """Split ``free`` sites into ``slots`` gaps plus a row-end remainder.

    With ``packing`` → 1, everything lands in the final gap (row end).
    """
    if slots <= 0:
        return []
    end_share = int(round(free * packing))
    scatter = free - end_share
    if scatter > 0 and slots > 1:
        weights = rng.random(slots - 1) + 0.05
        weights /= weights.sum()
        gaps = [int(x) for x in np.floor(weights * scatter)]
        # distribute rounding remainder deterministically
        remainder = scatter - sum(gaps)
        for k in range(remainder):
            gaps[k % len(gaps)] += 1
    else:
        gaps = [0] * max(slots - 1, 0)
        end_share = free
    gaps.append(end_share)
    return gaps


def global_place(
    netlist: Netlist,
    technology: Technology,
    spec: GlobalPlacementSpec = GlobalPlacementSpec(),
) -> Layout:
    """Build a placed :class:`Layout` for ``netlist``.

    Raises:
        PlacementError: When the fixed core cannot hold the design.
    """
    rng = np.random.default_rng(spec.seed)
    num_rows, sites_per_row = size_core(netlist, technology, spec)
    layout = Layout(netlist, technology, num_rows=num_rows, sites_per_row=sites_per_row)

    cluster = [n for n in spec.clustered if netlist.has_instance(n)]
    if cluster:
        _place_cluster_block(layout, cluster, rng, spec.cluster_density)

    placed_already = set(cluster)
    order = [n for n in connectivity_order(netlist) if n not in placed_already]
    widths = {name: netlist.instance(name).width_sites for name in order}
    total_cell_sites = sum(widths.values())

    # Per-row capacity after the cluster block (full rows when no cluster).
    capacity = [layout.occupancy[r].free_sites() for r in range(num_rows)]
    if total_cell_sites > sum(capacity):
        raise PlacementError(
            f"core too small: {total_cell_sites} cell sites > "
            f"{sum(capacity)} free core sites"
        )

    # Partition the ordering into rows with a dynamically rebalanced
    # budget proportional to each row's remaining capacity, so the
    # per-row overshoot (a row only closes after exceeding its budget)
    # cannot accumulate into an underfilled final row.
    row_groups: List[List[str]] = [[] for _ in range(num_rows)]
    row_fill = [0] * num_rows
    remaining_sites = total_cell_sites
    row = 0

    def row_budget(r: int, remaining: float) -> float:
        cap_left = sum(capacity[rr] for rr in range(r, num_rows))
        if cap_left <= 0:
            return 0.0
        return remaining * capacity[r] / cap_left

    budget = row_budget(0, remaining_sites)
    for name in order:
        w = widths[name]
        while row < num_rows - 1 and (
            row_fill[row] >= budget
            or row_fill[row] + w > capacity[row]
        ):
            row += 1
            budget = row_budget(row, remaining_sites)
        target = row
        if row_fill[target] + w > capacity[target]:
            target = next(
                (
                    r
                    for r in range(num_rows)
                    if row_fill[r] + w <= capacity[r]
                ),
                None,
            )
            if target is None:
                raise PlacementError("row partitioning overflow")
        row_groups[target].append(name)
        row_fill[target] += w
        remaining_sites -= w

    # Serpentine: reverse odd rows so the ordering snakes through the core.
    for r in range(1, num_rows, 2):
        row_groups[r].reverse()

    overflow: List[str] = []
    for r in range(num_rows):
        _fill_row(layout, r, row_groups[r], widths, rng, spec.packing, overflow)
    if overflow:
        # Rare rounding overflow around the cluster block: legalize the
        # stragglers near the core centre; if scattered gaps are all too
        # narrow (wide cells), compact a row to open one.
        from repro.place.legalize import legalize

        center = layout.core.center
        for name in overflow:
            try:
                legalize(layout, {name: center})
            except PlacementError:
                _compact_for(layout, name)
    assign_port_positions(layout)
    return layout


def _compact_for(layout: Layout, name: str) -> None:
    """Open a contiguous gap for ``name`` by left-compacting one row."""
    width = layout.netlist.instance(name).width_sites
    for r in range(layout.num_rows):
        occ = layout.occupancy[r]
        if occ.free_sites() < width:
            continue
        cursor = 0
        movable = [p.name for p in occ if p.name not in layout.fixed]
        if len(movable) != len(occ.placements):
            continue  # fixed cells present: skip this row
        snapshot = [(p.name, p.start) for p in occ]
        for cell_name, _ in snapshot:
            pl = layout.placement(cell_name)
            w = layout.netlist.instance(cell_name).width_sites
            if pl.start != cursor:
                layout.move_in_row(cell_name, cursor)
            cursor += w
        layout.place(name, r, cursor)
        return
    raise PlacementError(f"no row can host {name!r} even after compaction")


def _place_cluster_block(
    layout: Layout,
    names: Sequence[str],
    rng: np.random.Generator,
    density: float,
) -> None:
    """Pack ``names`` into one compact rectangular block.

    The block sits off-centre (at ~30 %/35 % of the core), square-ish in
    µm, at ``density`` local utilization — the shape a placer gives a
    register bank whose cells are tightly interconnected.
    """
    netlist = layout.netlist
    tech = layout.technology
    widths = [netlist.instance(n).width_sites for n in names]
    group_sites = sum(widths)
    block_sites = int(math.ceil(group_sites / density))
    ratio = tech.row_height / tech.site_width
    block_rows = max(int(round(math.sqrt(block_sites / ratio))), 2)
    block_rows = min(block_rows, layout.num_rows)
    block_cols = int(math.ceil(block_sites / block_rows))
    block_cols = min(block_cols, layout.sites_per_row)
    while block_rows * block_cols < group_sites and block_rows < layout.num_rows:
        block_rows += 1
    # Park the bank flush into a corner (secure-macro floorplanning
    # style): no dead channel between bank and core edge, and the
    # opposite corner is the natural sink for whatever free space the
    # hardening operators cannot fragment.
    row0 = 0
    col0 = 0

    # Serpentine the group through the block rows, scattering the slack.
    per_row = [[] for _ in range(block_rows)]
    fill = [0] * block_rows
    r = 0
    for name, w in zip(names, widths):
        while fill[r] + w > block_cols:
            r += 1
            if r >= block_rows:  # widen the block by one row if rounding bit
                per_row.append([])
                fill.append(0)
                block_rows += 1
                if row0 + block_rows > layout.num_rows:
                    row0 = layout.num_rows - block_rows
                break
        per_row[r].append((name, w))
        fill[r] += w
    for br in range(block_rows):
        if br >= len(per_row) or not per_row[br]:
            continue
        group = per_row[br] if br % 2 == 0 else list(reversed(per_row[br]))
        free = block_cols - fill[br]
        gaps = _scatter_gaps(rng, free, len(group) + 1, 0.3)
        cursor = col0
        for k, (name, w) in enumerate(group):
            cursor += gaps[k] if k < len(gaps) - 1 else 0
            layout.place(name, row0 + br, cursor)
            cursor += w


def _fill_row(
    layout: Layout,
    r: int,
    group: List[str],
    widths: Dict[str, int],
    rng: np.random.Generator,
    packing: float,
    overflow: List[str],
) -> None:
    """Lay one row's cells into its free intervals with scattered gaps."""
    if not group:
        return
    occ = layout.occupancy[r]
    segments = occ.free_intervals()
    used = sum(widths[n] for n in group)
    free = occ.free_sites() - used
    gaps = _scatter_gaps(rng, max(free, 0), len(group) + 1, packing)
    seg_idx = 0
    cursor = segments[0].lo if segments else 0
    for k, name in enumerate(group):
        w = widths[name]
        g = gaps[k] if k < len(gaps) - 1 else 0
        placed = False
        while seg_idx < len(segments):
            seg = segments[seg_idx]
            start = max(cursor, seg.lo) + g
            if start + w <= seg.hi:
                layout.place(name, r, start)
                cursor = start + w
                placed = True
                break
            # gap did not fit: try without it before moving on
            start = max(cursor, seg.lo)
            if start + w <= seg.hi:
                layout.place(name, r, start)
                cursor = start + w
                placed = True
                break
            seg_idx += 1
            if seg_idx < len(segments):
                cursor = segments[seg_idx].lo
        if not placed:
            overflow.append(name)


def refine_wirelength(
    layout: Layout,
    passes: int = 2,
    min_gain_um: float = 3.0,
) -> int:
    """Median-improvement detailed placement.

    For each movable cell whose position is far from the median of its
    connected pins, relocate it near that median.  This is the standard
    wirelength-driven cleanup pass after constructive placement; it pulls
    registers next to their logic cones and collapses straggler nets.

    Args:
        layout: Mutated in place.
        passes: Number of sweeps.
        min_gain_um: Only move cells displaced from their median by more
            than this distance (avoids churn).

    Returns:
        Total number of moves performed.
    """
    from repro.place.eco_place import _relocate, connected_median

    no_budgets = BudgetSet([], layout.num_rows)
    moves = 0
    for _ in range(passes):
        moved_this_pass = 0
        names = [n for n in list(layout.placements) if n not in layout.fixed]
        # Worst-displaced first: they free up space for the rest.
        scored = []
        for name in names:
            m = connected_median(layout, name)
            if m is None:
                continue
            d = layout.cell_center(name).manhattan_distance(m)
            if d > min_gain_um:
                scored.append((d, name, m))
        scored.sort(reverse=True)
        for _, name, target in scored:
            disp = _relocate(
                layout, no_budgets, name, target, row_search_radius=6
            )
            if disp is not None and disp > 0:
                moved_this_pass += 1
        moves += moved_this_pass
        if moved_this_pass == 0:
            break
    return moves


def assign_port_positions(layout: Layout) -> None:
    """Spread the design's ports evenly around the core boundary."""
    core = layout.core
    ports = list(layout.netlist.ports)
    if not ports:
        return
    perimeter = 2 * (core.width + core.height)
    step = perimeter / len(ports)
    for k, port in enumerate(ports):
        d = k * step
        if d < core.width:
            p = Point(d, 0.0)
        elif d < core.width + core.height:
            p = Point(core.width, d - core.width)
        elif d < 2 * core.width + core.height:
            p = Point(2 * core.width + core.height - d, core.height)
        else:
            p = Point(0.0, perimeter - d)
        layout.port_positions[port.name] = p
