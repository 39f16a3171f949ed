"""Incremental, blockage-aware, wirelength-driven ECO placement.

This is the engine the LDA operator (Algorithm 2) drives: after partial
placement blockages are programmed onto the layout, ``eco_place`` moves the
minimum set of movable cells needed to honor every blockage's density cap,
steering each displaced cell toward the median of its connected pins so the
wirelength (and hence timing) impact stays small — the paper's
"wire-length/timing driven" incremental placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import List, Optional, Set

from repro import obs
from repro.errors import NetlistError
from repro.geometry import Point
from repro.kernels.legalize import find_spot, receiving_target
from repro.layout.layout import Layout
from repro.layout.pins import pin_table
from repro.place.budget import BudgetSet, build_budgets
from repro.place.legalize import target_slot


@dataclass
class EcoPlacementReport:
    """What an ECO placement pass did.

    Attributes:
        moved: Names of instances that changed position.
        total_displacement_um: Sum of L1 move distances (µm).
        unresolved_blockages: Blockages still over budget afterwards (their
            remaining movable content could not be relocated).
        relocations: Relocations tried.
        failed_relocations: Relocations that found no legal spot.
    """

    moved: List[str] = field(default_factory=list)
    total_displacement_um: float = 0.0
    unresolved_blockages: List[str] = field(default_factory=list)
    relocations: int = 0
    failed_relocations: int = 0

    @property
    def num_moved(self) -> int:
        """Number of cells moved."""
        return len(self.moved)


def connected_median(layout: Layout, instance_name: str) -> Optional[Point]:
    """Median position of the pins on ``instance_name``'s distinct nets.

    The classic optimal-region estimate for single-cell placement: the
    median x and, separately, the median y over every pin of every net
    the cell connects to, plus those nets' positioned ports.  Each net
    counts once however many of the cell's pins sit on it, and the
    cell's own pin stays in the multiset, once per distinct net.
    Returns ``None`` for unconnected cells (e.g. fillers).

    Raises:
        LayoutError: When a pin on those nets is not placed.
    """
    table = pin_table(layout.netlist)
    try:
        nets = table.inst_nets[table.index[instance_name]]
    except KeyError:
        raise NetlistError(f"unknown instance {instance_name!r}") from None
    net_pins = table.net_pins
    xs, ys = layout.centers_of([i for k in nets for i in net_pins[k]])
    ports = layout.port_positions
    for k in nets:
        driver_port = table.net_driver_port[k]
        if driver_port is not None and driver_port in ports:
            xs.append(ports[driver_port].x)
            ys.append(ports[driver_port].y)
        for port in table.net_sink_ports[k]:
            if port in ports:
                xs.append(ports[port].x)
                ys.append(ports[port].y)
    if not xs:
        return None
    return Point(median(xs), median(ys))


def _relocate(
    layout: Layout,
    budgets: BudgetSet,
    name: str,
    target: Point,
    row_search_radius: int,
) -> Optional[float]:
    """Move ``name`` to a legal, in-budget spot near ``target``.

    Returns the displacement in µm, or ``None`` when no spot was found (the
    cell is restored to its original position).
    """
    width = layout.netlist.instance(name).width_sites
    old = layout.placement(name)
    old_center = layout.cell_center(name)

    layout.unplace(name)
    budgets.release(old.row, old.start, width)

    target_row, target_site = target_slot(layout, target, width)
    spot = find_spot(
        layout, budgets, width, target_row, target_site, row_search_radius
    )
    if spot is None:
        layout.place(name, old.row, old.start)
        budgets.commit(old.row, old.start, width)
        return None
    row, start = spot
    layout.place(name, row, start)
    budgets.commit(row, start, width)
    new_center = layout.cell_center(name)
    return old_center.manhattan_distance(new_center)


def eco_place(
    layout: Layout,
    movable: Optional[Set[str]] = None,
    row_search_radius: int = 12,
    attract_point: Optional[Point] = None,
) -> EcoPlacementReport:
    """Resolve all blockage density caps with minimal, WL-driven moves.

    Args:
        layout: The layout to mutate in place.  Its registered blockages
            define the density caps; instances in ``layout.fixed`` never
            move.
        movable: Optional whitelist of movable instances; default is every
            placed, non-fixed instance.
        row_search_radius: Row search window for relocation targets.
        attract_point: Optional µm point the density flow should converge
            on: evicted cells fill admissible space closest to it first.
            LDA passes the asset-bank centroid so arrivals consume the
            free sites nearest the assets before the outer ring.

    Returns:
        An :class:`EcoPlacementReport`.
    """
    with obs.timed("place.eco"):
        report = _eco_place(layout, movable, row_search_radius, attract_point)
    if obs.is_enabled():
        obs.count("place.eco.moved_cells", report.num_moved)
        obs.count("place.eco.relocations", report.relocations)
        obs.count("place.eco.failed_relocations", report.failed_relocations)
        obs.count(
            "place.eco.unresolved_blockages", len(report.unresolved_blockages)
        )
        obs.observe(
            "place.eco.total_displacement_um", report.total_displacement_um
        )
    return report


def _eco_place(
    layout: Layout,
    movable: Optional[Set[str]],
    row_search_radius: int,
    attract_point: Optional[Point],
) -> EcoPlacementReport:
    report = EcoPlacementReport()
    budgets = build_budgets(layout)
    if not len(budgets):
        return report

    # Process the most over-budget blockages first.
    order = sorted(
        budgets.over_budget(),
        key=lambda b: b.max_used - b.used,
    )
    for budget in order:
        excess = budget.used - budget.max_used
        if excess <= 0:
            continue
        inside = layout.instances_in_rect(budget.blockage.rect)
        candidates = [
            n
            for n in inside
            if n not in layout.fixed and (movable is None or n in movable)
        ]
        # Evict cells whose connectivity already pulls them out of the
        # region first: cheapest displacement, least timing impact.
        def pull_distance(n: str) -> float:
            m = connected_median(layout, n)
            if m is None:
                return 0.0  # fillers and dangling cells are free to move
            return -budget.blockage.rect.manhattan_distance_to_point(m)

        candidates.sort(key=pull_distance)
        failures = 0
        for name in candidates:
            if budget.used <= budget.max_used:
                break
            if failures >= 4:
                break  # nothing admissible left anywhere near; give up
            width = layout.netlist.instance(name).width_sites
            median_pt = connected_median(layout, name) or layout.cell_center(name)
            target = receiving_target(
                layout, budgets, budget, name, width, median_pt,
                attract_point,
            )
            moved = _relocate(layout, budgets, name, target, row_search_radius)
            report.relocations += 1
            if moved is None:
                report.failed_relocations += 1
            if moved is not None and moved > 0:
                report.moved.append(name)
                report.total_displacement_um += moved
                failures = 0
            else:
                failures += 1
        if budget.used > budget.max_used:
            report.unresolved_blockages.append(budget.blockage.name)
    return report
