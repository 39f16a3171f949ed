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
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import NetlistError
from repro.geometry import Point
from repro.kernels.legalize import find_spot, receiving_target
from repro.layout.layout import Layout
from repro.layout.pins import pin_table
from repro.place.budget import BudgetSet, build_budgets
from repro.place.legalize import ROW_SEARCH_RADIUS, target_slot


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
        NetlistError: When the netlist has no instance ``instance_name``.
        LayoutError: When a pin on those nets is not placed.
    """
    return _Medians(layout).of(instance_name)


class _Medians:
    """Connected medians read off per-net sorted pin coordinates.

    Each net's pin x and y, its positioned ports included, are gathered
    and sorted once and kept until a pin on the net moves (:meth:`moved`
    stamps the net with the count of moves so far).  A cell's median
    joins the sorted lists of its distinct nets and sorts the join, which
    merges sorted runs, so a clock net's hundreds of pins are gathered
    and sorted once per blockage instead of once per flip-flop.  The
    values at each rank are those of one sort of the whole multiset, so
    every median is bitwise the one :func:`statistics.median` takes of
    it.  The ECO pass clears :attr:`nets` at each blockage, so the memo
    holds the nets of one blockage's candidates at a time.
    """

    __slots__ = ("layout", "table", "net_moved", "moves", "nets")

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self.table = pin_table(layout.netlist)
        #: per net, the move count when a pin on it last moved.
        self.net_moved = [0] * len(self.table.net_pins)
        self.moves = 0
        #: net → (move count when gathered, sorted xs, sorted ys)
        self.nets: Dict[int, Tuple[int, List[float], List[float]]] = {}

    def _net(self, k: int) -> Tuple[int, List[float], List[float]]:
        """Sorted x and y of net ``k``'s pins and positioned ports."""
        hit = self.nets.get(k)
        if hit is not None and hit[0] >= self.net_moved[k]:
            return hit
        table = self.table
        xs, ys = self.layout.centers_of(table.net_pins[k])
        ports = self.layout.port_positions
        driver_port = table.net_driver_port[k]
        if driver_port is not None and driver_port in ports:
            xs.append(ports[driver_port].x)
            ys.append(ports[driver_port].y)
        for port in table.net_sink_ports[k]:
            if port in ports:
                xs.append(ports[port].x)
                ys.append(ports[port].y)
        xs.sort()
        ys.sort()
        hit = self.nets[k] = (self.moves, xs, ys)
        return hit

    def of(self, name: str) -> Optional[Point]:
        """:func:`connected_median` of ``name`` on the layout as it is."""
        table = self.table
        try:
            nets = table.inst_nets[table.index[name]]
        except KeyError:
            raise NetlistError(f"unknown instance {name!r}") from None
        xs: List[float] = []
        ys: List[float] = []
        for k in nets:
            _, net_xs, net_ys = self._net(k)
            xs += net_xs
            ys += net_ys
        n = len(xs)
        if not n:
            return None
        if len(nets) > 1:
            xs.sort()
            ys.sort()
        i = n // 2
        if n % 2:
            return Point(xs[i], ys[i])
        return Point((xs[i - 1] + xs[i]) / 2, (ys[i - 1] + ys[i]) / 2)

    def moved(self, name: str) -> None:
        """Record that ``name`` moved: the lists of its nets go stale."""
        self.moves += 1
        table = self.table
        for k in table.inst_nets[table.index[name]]:
            self.net_moved[k] = self.moves


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
    attract_point: Optional[Point] = None,
) -> EcoPlacementReport:
    """Resolve all blockage density caps with minimal, WL-driven moves.

    Every placed instance outside ``layout.fixed`` may move; a relocation
    searches :data:`~repro.place.legalize.ROW_SEARCH_RADIUS` rows either
    side of its target row before the whole core.

    Args:
        layout: The layout to mutate in place.  Its registered blockages
            define the density caps; instances in ``layout.fixed`` never
            move.
        attract_point: Optional µm point the density flow should converge
            on: evicted cells fill admissible space closest to it first.
            LDA passes the asset-bank centroid so arrivals consume the
            free sites nearest the assets before the outer ring.

    Returns:
        An :class:`EcoPlacementReport`.
    """
    with obs.timed("place.eco"):
        report = _eco_place(layout, attract_point)
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
    attract_point: Optional[Point],
) -> EcoPlacementReport:
    report = EcoPlacementReport()
    budgets = build_budgets(layout)
    if not len(budgets):
        return report
    medians = _Medians(layout)

    # Process the most over-budget blockages first.
    order = sorted(
        budgets.over_budget(),
        key=lambda b: b.max_used - b.used,
    )
    for budget in order:
        excess = budget.used - budget.max_used
        if excess <= 0:
            continue
        medians.nets.clear()
        inside = layout.instances_in_rect(budget.blockage.rect)
        candidates = [n for n in inside if n not in layout.fixed]
        # Evict cells whose connectivity already pulls them out of the
        # region first: cheapest displacement, least timing impact.
        def pull_distance(n: str) -> float:
            m = medians.of(n)
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
            median_pt = medians.of(name) or layout.cell_center(name)
            target = receiving_target(
                layout, budgets, budget, name, width, median_pt,
                attract_point,
            )
            moved = _relocate(layout, budgets, name, target, ROW_SEARCH_RADIUS)
            report.relocations += 1
            if moved is None:
                report.failed_relocations += 1
            else:
                medians.moved(name)
            if moved is not None and moved > 0:
                report.moved.append(name)
                report.total_displacement_um += moved
                failures = 0
            else:
                failures += 1
        if budget.used > budget.max_used:
            report.unresolved_blockages.append(budget.blockage.name)
    return report
