"""The :class:`Layout`: a netlist bound to rows of placement sites.

A layout owns the core geometry (rows × sites), the placement of every
instance, partial placement blockages, and the I/O pin positions on the
core boundary.  It is the single source of truth every GDSII-Guard
operator, metric, and attacker reads and mutates.

Coordinates: site positions are ``(row, start_site)`` integers; µm
positions derive from :class:`~repro.tech.Technology`.  The core origin is
``(0, 0)`` by convention.

Besides the ``_placements`` map, a layout keeps every instance's row,
start and µm centre in flat lists indexed by the netlist's
:class:`~repro.layout.pins.PinTable`.  The mutation methods write both;
the pin-geometry reads (:meth:`Layout.centers_of`,
:meth:`Layout.net_pin_points`, :meth:`Layout.cell_center`) gather from
the lists and never write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import LayoutError, NetlistError
from repro.geometry import Interval, Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.gaps import GapGraph
from repro.layout.pins import instance_indices, pin_table
from repro.layout.rows import CoreRow, Finding, RowOccupancy
from repro.netlist.netlist import Netlist
from repro.tech.technology import Technology


@dataclass(frozen=True)
class Placement:
    """Where one instance sits: row index and first occupied site."""

    row: int
    start: int


class Layout:
    """A placed design: rows, instance placements, blockages, IO pins."""

    def __init__(
        self,
        netlist: Netlist,
        technology: Technology,
        num_rows: int,
        sites_per_row: int,
    ) -> None:
        if num_rows < 1 or sites_per_row < 1:
            raise LayoutError("core must have at least one row and one site")
        self.technology = technology
        self.rows: List[CoreRow] = [
            CoreRow(
                index=r,
                origin_x=0.0,
                y=r * technology.row_height,
                num_sites=sites_per_row,
            )
            for r in range(num_rows)
        ]
        self.occupancy: List[RowOccupancy] = [RowOccupancy(row) for row in self.rows]
        self._placements: Dict[str, Placement] = {}
        self.blockages: Dict[str, PlacementBlockage] = {}
        #: instances placement operators must not move (critical assets).
        self.fixed: Set[str] = set()
        #: port name → pin location on the core boundary (µm).
        self.port_positions: Dict[str, Point] = {}
        #: µm centre y of each row, and (filled per cell width) the µm
        #: centre x of each start site, read off ``span_rect(...).center``
        #: once: the position lists share these floats instead of holding
        #: a new float per slot.
        self._row_cy: List[float] = [
            self.span_rect(r, 0, 1).center.y for r in range(num_rows)
        ]
        self._start_cx: Dict[int, List[float]] = {}
        self.netlist = netlist

    @property
    def netlist(self) -> Netlist:
        """The bound netlist; rebinding re-keys the position lists."""
        return self._netlist

    @netlist.setter
    def netlist(self, netlist: Netlist) -> None:
        self._netlist = netlist
        #: the netlist's pin-table name → index map (shared, append-only).
        self._index: Dict[str, int] = instance_indices(netlist)
        n = len(self._index)
        self._cx: List[float] = [math.nan] * n
        self._cy: List[float] = [math.nan] * n
        for name, pl in self._placements.items():
            self._write_slot(
                name, pl.row, pl.start, netlist.instance(name).width_sites
            )

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of core rows."""
        return len(self.rows)

    @property
    def sites_per_row(self) -> int:
        """Sites per row (uniform core)."""
        return self.rows[0].num_sites

    @property
    def core(self) -> Rect:
        """Core bounding box in µm."""
        t = self.technology
        return Rect(
            0.0,
            0.0,
            self.sites_per_row * t.site_width,
            self.num_rows * t.row_height,
        )

    @property
    def total_sites(self) -> int:
        """Total placement capacity in sites."""
        return sum(r.num_sites for r in self.rows)

    def site_rect(self, row: int, site: int) -> Rect:
        """µm rectangle of one placement site."""
        t = self.technology
        x = site * t.site_width
        y = row * t.row_height
        return Rect(x, y, x + t.site_width, y + t.row_height)

    def point_to_site(self, p: Point) -> Tuple[int, int]:
        """(row, site) of the site containing µm point ``p`` (clamped)."""
        t = self.technology
        row = min(max(int(p.y / t.row_height), 0), self.num_rows - 1)
        site = min(max(int(p.x / t.site_width), 0), self.sites_per_row - 1)
        return row, site

    # ------------------------------------------------------------------ #
    # placement mutation
    # ------------------------------------------------------------------ #

    def place(self, instance_name: str, row: int, start: int) -> None:
        """Place an unplaced instance at ``(row, start)``."""
        if instance_name in self._placements:
            raise LayoutError(f"{instance_name!r} already placed")
        inst = self.netlist.instance(instance_name)
        if not 0 <= row < self.num_rows:
            raise LayoutError(f"row {row} out of range for {instance_name!r}")
        self.occupancy[row].place(instance_name, start, inst.width_sites)
        self._placements[instance_name] = Placement(row=row, start=start)
        self._write_slot(instance_name, row, start, inst.width_sites)

    def unplace(self, instance_name: str) -> Placement:
        """Remove an instance from the core; returns its old placement."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
        self.occupancy[pl.row].remove(instance_name, start_hint=pl.start)
        del self._placements[instance_name]
        i = self._index[instance_name]
        self._cx[i] = self._cy[i] = math.nan
        return pl

    def move_in_row(self, instance_name: str, new_start: int) -> None:
        """Shift an instance horizontally within its row."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
        self.occupancy[pl.row].move(instance_name, new_start, start_hint=pl.start)
        self._placements[instance_name] = Placement(row=pl.row, start=new_start)
        self._write_slot(
            instance_name,
            pl.row,
            new_start,
            self.netlist.instance(instance_name).width_sites,
        )

    def move_to(self, instance_name: str, row: int, start: int) -> None:
        """Move an instance to an arbitrary ``(row, start)``."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
        if not 0 <= row < self.num_rows:
            raise LayoutError(f"row {row} out of range for {instance_name!r}")
        if pl.row == row:
            self.move_in_row(instance_name, start)
            return
        inst = self.netlist.instance(instance_name)
        if not self.occupancy[row].can_place(start, inst.width_sites):
            raise LayoutError(
                f"cannot move {instance_name!r} to row {row} site {start}"
            )
        self.occupancy[pl.row].remove(instance_name, start_hint=pl.start)
        self.occupancy[row].place(instance_name, start, inst.width_sites)
        self._placements[instance_name] = Placement(row=row, start=start)
        self._write_slot(instance_name, row, start, inst.width_sites)

    def rewrite_row(self, row: int, starts: Sequence[int]) -> None:
        """Shift every cell of ``row`` at once, keeping their order.

        ``starts[i]`` is the new start site of the row's ``i``-th cell
        from the left.  The row is rewritten in place
        (:meth:`RowOccupancy.rewrite`), and each moved cell's placement
        entry keeps its position in :attr:`placements`.

        Raises:
            LayoutError: When a fixed cell would move, or the row rejects
                ``starts``.  Nothing is changed then.
        """
        occ = self.occupancy[row]
        moved = [
            (p, start) for p, start in zip(occ, starts) if start != p.start
        ]
        for p, _ in moved:
            if p.name in self.fixed:
                raise LayoutError(f"{p.name!r} is fixed")
        occ.rewrite(starts)
        placements = self._placements
        for p, start in moved:
            placements[p.name] = Placement(row=row, start=start)
            self._write_slot(p.name, row, start, p.width)

    def reorder_fixed_first(self) -> None:
        """List the fixed cells first in :attr:`placements`, then the rest.

        Each group keeps its prior order.  That is the order unplacing and
        re-placing every movable cell leaves, and the order the density
        map adds bin areas in.
        """
        placements = self._placements
        movable = [
            (name, pl) for name, pl in placements.items()
            if name not in self.fixed
        ]
        if len(movable) == len(placements):
            return
        for name, _ in movable:
            del placements[name]
        placements.update(movable)

    def _write_slot(self, name: str, row: int, start: int, width: int) -> None:
        """Record the centre of ``name`` at ``(row, start)`` in the lists.

        The centre is ``span_rect(row, start, width).center``, taken from
        the centre tables.
        """
        i = self._index.get(name)
        if i is None or i >= len(self._cx):
            i = self._add_slots(name)
        start_cx = self._start_cx.get(width)
        if start_cx is None:
            start_cx = self._start_cx[width] = [
                self.span_rect(0, s, width).center.x
                for s in range(self.sites_per_row)
            ]
        self._cx[i] = start_cx[start]
        self._cy[i] = self._row_cy[row]

    def _add_slots(self, name: str) -> int:
        """Slot index of an instance the netlist gained since the lists grew.

        The lists grow to it; the new slots start unplaced.
        """
        self._index = instance_indices(self.netlist)
        i = self._index[name]
        grow = i + 1 - len(self._cx)
        if grow > 0:
            self._cx.extend([math.nan] * grow)
            self._cy.extend([math.nan] * grow)
        return i

    # ------------------------------------------------------------------ #
    # placement queries
    # ------------------------------------------------------------------ #

    def is_placed(self, instance_name: str) -> bool:
        """Whether the instance currently sits in the core."""
        return instance_name in self._placements

    def placement(self, instance_name: str) -> Placement:
        """Current placement of ``instance_name``."""
        try:
            return self._placements[instance_name]
        except KeyError:
            raise LayoutError(f"{instance_name!r} is not placed") from None

    @property
    def placements(self) -> Dict[str, Placement]:
        """Read-only view of all placements (copy not taken; don't mutate)."""
        return self._placements

    def cell_rect(self, instance_name: str) -> Rect:
        """µm bounding box of a placed instance."""
        pl = self.placement(instance_name)
        inst = self.netlist.instance(instance_name)
        return self.span_rect(pl.row, pl.start, inst.width_sites)

    def span_rect(self, row: int, start: int, width: int) -> Rect:
        """µm box of ``width`` sites of ``row`` from site ``start``."""
        t = self.technology
        x = start * t.site_width
        y = row * t.row_height
        return Rect(x, y, x + width * t.site_width, y + t.row_height)

    def cell_center(self, instance_name: str) -> Point:
        """µm centre of a placed instance (pin-location approximation)."""
        if instance_name not in self._placements:
            raise LayoutError(f"{instance_name!r} is not placed")
        i = self._index[instance_name]
        return Point(self._cx[i], self._cy[i])

    def centers_of(
        self, indices: Sequence[int]
    ) -> Tuple[List[float], List[float]]:
        """µm centre x and y of the instances at pin-table ``indices``.

        Raises:
            LayoutError: Naming the first of them that is not placed.
        """
        cx = self._cx
        try:
            xs = [cx[i] for i in indices]
        except IndexError:  # appended to the netlist, never placed
            xs = [math.nan]
        # An unplaced slot holds NaN, and any NaN makes the sum NaN.
        if math.isnan(sum(xs)):
            names = pin_table(self.netlist).names
            for i in indices:
                if i >= len(cx) or math.isnan(cx[i]):
                    raise LayoutError(f"{names[i]!r} is not placed")
        cy = self._cy
        return xs, [cy[i] for i in indices]

    def slot_points(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """µm x and y of pin-table slots (:meth:`PinTable.net_slots`).

        An instance slot reads the instance's centre, a port slot its
        position, NaN for a port without one.

        Raises:
            LayoutError: Naming the instance of the first slot that is
                not placed.
        """
        table = pin_table(self.netlist)
        n = len(table.names)
        ports = table.net_slots()[2]
        # Ports sit reversed after the instances, where slot ~j wraps to.
        xs = np.full(n + len(ports), math.nan)
        ys = np.full(n + len(ports), math.nan)
        placed = min(n, len(self._cx))
        xs[:placed] = self._cx[:placed]
        ys[:placed] = self._cy[:placed]
        for j, name in enumerate(ports):
            point = self.port_positions.get(name)
            if point is not None:
                xs[-1 - j] = point.x
                ys[-1 - j] = point.y
        x = xs[slots]
        unplaced = np.isnan(x)
        unplaced &= slots >= 0
        if unplaced.any():
            i = int(slots[unplaced.argmax()])
            raise LayoutError(f"{table.names[i]!r} is not placed")
        return x, ys[slots]

    def pin_position(self, instance_name: Optional[str], port_name: Optional[str]) -> Point:
        """Position of an instance pin (cell centre) or a port pin."""
        if instance_name is not None:
            return self.cell_center(instance_name)
        if port_name is not None:
            try:
                return self.port_positions[port_name]
            except KeyError:
                raise LayoutError(f"port {port_name!r} has no position") from None
        raise LayoutError("pin_position needs an instance or a port")

    def net_pin_points(self, net_name: str) -> List[Point]:
        """µm positions of every pin of a net.

        In order: the driver pin, the driving port, the sink pins, then
        the sink ports; a port without a position is left out.  A net has
        one driver, so at most one of the first two is present.
        """
        table = pin_table(self.netlist)
        try:
            k = table.net_index[net_name]
        except KeyError:
            raise NetlistError(f"unknown net {net_name!r}") from None
        xs, ys = self.centers_of(table.net_pins[k])
        ports = self.port_positions
        points: List[Point] = []
        driver_port = table.net_driver_port[k]
        if driver_port is not None and driver_port in ports:
            points.append(ports[driver_port])
        points.extend(map(Point, xs, ys))
        for port in table.net_sink_ports[k]:
            if port in ports:
                points.append(ports[port])
        return points

    def used_sites(self) -> int:
        """Total occupied sites."""
        return sum(occ.used_sites() for occ in self.occupancy)

    def utilization(self) -> float:
        """Fraction of core sites occupied."""
        return self.used_sites() / self.total_sites

    def free_intervals_per_row(self) -> List[List[Interval]]:
        """Free gaps of every row, bottom to top."""
        return [occ.free_intervals() for occ in self.occupancy]

    def gap_graph(self) -> GapGraph:
        """Build the paper's gap graph over the whole core."""
        return GapGraph.from_free_intervals(self.free_intervals_per_row())

    def instances_in_rect(self, rect: Rect) -> List[str]:
        """Names of placed instances whose cell box intersects ``rect``."""
        result: List[str] = []
        for row in self.rows_in_rect(rect):
            result.extend(self.occupants_in_rect(self.occupancy[row], rect))
        return result

    def rows_in_rect(self, rect: Rect) -> List[int]:
        """Indices of the rows whose strip intersects ``rect``."""
        t = self.technology
        row_lo = max(int(rect.ylo / t.row_height), 0)
        row_hi = min(int(rect.yhi / t.row_height) + 1, self.num_rows)
        return [
            row
            for row in range(row_lo, row_hi)
            if self.rows[row].y < rect.yhi
            and self.rows[row].y + t.row_height > rect.ylo
        ]

    def occupants_in_rect(self, occ: RowOccupancy, rect: Rect) -> List[str]:
        """Names of ``occ``'s cells whose x extent intersects ``rect``."""
        site_width = self.technology.site_width
        return [
            p.name
            for p in occ
            if p.start * site_width < rect.xhi
            and rect.xlo < p.end * site_width
        ]

    def rect_to_row_span(self, rect: Rect) -> List[Tuple[int, Interval]]:
        """Rows and site intervals covered by a µm rectangle.

        Partial site/row coverage counts as covered (conservative for
        blockage accounting).
        """
        t = self.technology
        spans: List[Tuple[int, Interval]] = []
        row_lo = max(int(rect.ylo / t.row_height + 1e-9), 0)
        row_hi = min(
            int((rect.yhi - 1e-9) / t.row_height) + 1,
            self.num_rows,
        )
        site_lo = max(int(rect.xlo / t.site_width + 1e-9), 0)
        site_hi = min(
            int((rect.xhi - 1e-9) / t.site_width) + 1,
            self.sites_per_row,
        )
        if site_hi <= site_lo:
            return spans
        for row in range(row_lo, row_hi):
            spans.append((row, Interval(site_lo, site_hi)))
        return spans

    # ------------------------------------------------------------------ #
    # blockages
    # ------------------------------------------------------------------ #

    def add_blockage(self, blockage: PlacementBlockage) -> None:
        """Register a partial placement blockage."""
        if blockage.name in self.blockages:
            raise LayoutError(f"duplicate blockage {blockage.name!r}")
        self.blockages[blockage.name] = blockage

    def clear_blockages(self) -> None:
        """Remove all placement blockages (LDA does this every iteration)."""
        self.blockages.clear()

    def blockage_density_cap(self, row: int, site: int) -> float:
        """Tightest blockage density bound covering site ``(row, site)``."""
        rect = self.site_rect(row, site)
        cap = 1.0
        for b in self.blockages.values():
            if b.rect.intersects(rect):
                cap = min(cap, b.max_density)
        return cap

    def region_density(self, rect: Rect) -> float:
        """Occupied fraction of the sites covered by ``rect``."""
        total = 0
        used = 0
        for row, iv in self.rect_to_row_span(rect):
            total += len(iv)
            occ = self.occupancy[row]
            for p in occ:
                if p.start >= iv.hi:
                    break
                lo = max(p.start, iv.lo)
                hi = min(p.end, iv.hi)
                if hi > lo:
                    used += hi - lo
        if total == 0:
            return 0.0
        return used / total

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def clone(self) -> "Layout":
        """Deep-copy the placement state; the netlist object is shared.

        Sharing the netlist is safe because the threat model (and every
        operator in this library) treats it as immutable; the clone's
        ``netlist.signature()`` must stay equal to the original's.
        """
        other = Layout.__new__(Layout)
        other._netlist = self.netlist
        other._index = self._index
        other.technology = self.technology
        other.rows = self.rows  # immutable row geometry, shareable
        other._row_cy = self._row_cy
        other._start_cx = self._start_cx
        other.occupancy = [occ.copy() for occ in self.occupancy]
        other._placements = dict(self._placements)
        other.blockages = dict(self.blockages)
        other.fixed = set(self.fixed)
        other.port_positions = dict(self.port_positions)
        other._cx = list(self._cx)
        other._cy = list(self._cy)
        return other

    def findings(self) -> Iterator[Finding]:
        """Every placement-legality defect, row by row.

        A row's own findings (:meth:`RowOccupancy.findings`), then per
        record ``map`` (the placement map disagrees), ``unknown`` (not in
        the netlist) and ``width`` (not its master's); last one ``ghost``
        per map entry no record names.
        """
        placements, netlist = self._placements, self.netlist
        for occ in self.occupancy:
            index = occ.row.index
            yield from occ.findings()
            for p in occ:
                pl = placements.get(p.name)
                if pl is None or pl.row != index or pl.start != p.start:
                    yield Finding("map", index, p.name,
                                  f"placement map desynchronized at {p.name!r}")
                if not netlist.has_instance(p.name):
                    yield Finding("unknown", index, p.name,
                                  f"placed cell {p.name!r} is not in the netlist")
                    continue
                master = netlist.instance(p.name).master
                if master.width_sites != p.width:
                    yield Finding("width", index, p.name,
                                  f"{p.name!r} is {p.width} sites wide, master "
                                  f"{master.name} is {master.width_sites}")
        named = {p.name for occ in self.occupancy for p in occ}
        for name, placed in placements.items():
            if name not in named:
                yield Finding("ghost", placed.row, name,
                              f"placement map holds ghost {name!r}")

    def hard_blockage_hits(
        self, rows: Optional[Mapping[int, RowOccupancy]] = None
    ) -> Iterator[Tuple[PlacementBlockage, str]]:
        """``(blockage, cell)`` for every cell inside a hard blockage.

        ``rows`` maps row indices to substitute occupancies; given, only
        those rows are read, in place of the layout's own.
        """
        if rows is None:
            rows = dict(enumerate(self.occupancy))
        for b in self.blockages.values():
            if b.is_hard:
                for index in self.rows_in_rect(b.rect):
                    if index in rows:
                        for name in self.occupants_in_rect(rows[index], b.rect):
                            yield b, name

    def validate(self) -> None:
        """Raise :class:`LayoutError` on the first :meth:`findings` finding.

        Also on a stale position list.  A cell inside a hard blockage
        passes: it breaks a design rule (#DRC, lint L003), not the data.
        """
        for finding in self.findings():
            raise LayoutError(finding.message)
        self._validate_slots()

    def _validate_slots(self) -> None:
        """Check the position lists against ``_placements``."""
        names = pin_table(self.netlist).names
        n = len(self._cx)
        if not len(self._cy) == n <= len(names):
            raise LayoutError("position lists have inconsistent lengths")
        for i, name in enumerate(names):
            pl = self._placements.get(name)
            if pl is None:
                if i < n and not (
                    math.isnan(self._cx[i]) and math.isnan(self._cy[i])
                ):
                    raise LayoutError(f"position slot of {name!r} is stale")
                continue
            center = self.span_rect(
                pl.row, pl.start, self.netlist.instance(name).width_sites
            ).center
            if i >= n or (self._cx[i], self._cy[i]) != (center.x, center.y):
                raise LayoutError(
                    f"position slot of {name!r} desynchronized"
                )

    def __repr__(self) -> str:
        return (
            f"Layout({self.netlist.name!r}, {self.num_rows} rows x "
            f"{self.sites_per_row} sites, util={self.utilization():.2f})"
        )
