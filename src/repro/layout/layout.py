"""The :class:`Layout`: a netlist bound to rows of placement sites.

A layout owns the core geometry (rows × sites), the placement of every
instance, partial placement blockages, and the I/O pin positions on the
core boundary.  It is the single source of truth every GDSII-Guard
operator, metric, and attacker reads and mutates.

Coordinates: site positions are ``(row, start_site)`` integers; µm
positions derive from :class:`~repro.tech.Technology`.  The core origin is
``(0, 0)`` by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LayoutError
from repro.geometry import Interval, Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.gaps import GapGraph
from repro.layout.rows import CoreRow, RowOccupancy
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
        self.netlist = netlist
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

    def site_origin(self, row: int, site: int) -> Point:
        """µm coordinates of the lower-left corner of ``(row, site)``."""
        t = self.technology
        return Point(site * t.site_width, row * t.row_height)

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

    def unplace(self, instance_name: str) -> Placement:
        """Remove an instance from the core; returns its old placement."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
        self.occupancy[pl.row].remove(instance_name, start_hint=pl.start)
        del self._placements[instance_name]
        return pl

    def move_in_row(self, instance_name: str, new_start: int) -> None:
        """Shift an instance horizontally within its row."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
        self.occupancy[pl.row].move(instance_name, new_start, start_hint=pl.start)
        self._placements[instance_name] = Placement(row=pl.row, start=new_start)

    def move_to(self, instance_name: str, row: int, start: int) -> None:
        """Move an instance to an arbitrary ``(row, start)``."""
        if instance_name in self.fixed:
            raise LayoutError(f"{instance_name!r} is fixed")
        pl = self.placement(instance_name)
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
        return self.cell_rect(instance_name).center

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
        """µm positions of every pin of a net (driver + sinks)."""
        net = self.netlist.net(net_name)
        points: List[Point] = []
        if net.driver_pin is not None:
            points.append(self.cell_center(net.driver_pin.instance))
        if net.driver_port is not None and net.driver_port in self.port_positions:
            points.append(self.port_positions[net.driver_port])
        for ref in net.sink_pins:
            points.append(self.cell_center(ref.instance))
        for port in net.sink_ports:
            if port in self.port_positions:
                points.append(self.port_positions[port])
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
        other.netlist = self.netlist
        other.technology = self.technology
        other.rows = self.rows  # immutable row geometry, shareable
        other.occupancy = [occ.copy() for occ in self.occupancy]
        other._placements = dict(self._placements)
        other.blockages = dict(self.blockages)
        other.fixed = set(self.fixed)
        other.port_positions = dict(self.port_positions)
        return other

    def validate(self) -> None:
        """Check placement/occupancy consistency; raise on corruption."""
        placed = 0
        for occ in self.occupancy:
            occ.check_invariants()
            for p in occ:
                pl = self._placements.get(p.name)
                if pl is None or pl.row != occ.row.index or pl.start != p.start:
                    raise LayoutError(f"placement map desynchronized at {p.name!r}")
                inst = self.netlist.instance(p.name)
                if inst.width_sites != p.width:
                    raise LayoutError(f"{p.name!r} width mismatch")
                placed += 1
        if placed != len(self._placements):
            raise LayoutError("placement map contains ghosts")

    def __repr__(self) -> str:
        return (
            f"Layout({self.netlist.name!r}, {self.num_rows} rows x "
            f"{self.sites_per_row} sites, util={self.utilization():.2f})"
        )
