"""Core rows and per-row site occupancy.

A core row is a horizontal strip of placement sites.  Occupancy is kept as
a list of non-overlapping :class:`RowPlacement` records sorted by start
site; lookups use binary search.  This representation makes the queries the
Cell-Shift operator needs — "gap intervals of this row", "cell immediately
right of site s" — O(log n), and single-cell moves O(n) worst case (list
splice), which is plenty for the design sizes the benchmark suite builds.
Each occupancy also keeps its free sites as one Python int
(:attr:`RowOccupancy.free`), updated by every mutation, for the
legalizer's bitset search.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence

from repro.errors import LayoutError
from repro.geometry import Interval

#: Every :class:`Finding` kind: the row scan's, then ``Layout.findings``'.
FINDING_KINDS = ("index", "overlap", "out_of_row", "empty",
                 "map", "unknown", "width", "ghost")


class Finding(NamedTuple):
    """One placement-legality defect a scan found.

    Attributes:
        kind: One of :data:`FINDING_KINDS`.
        row: The row it sits in.
        name: The instance it concerns ("" for a whole row).
        message: One line that says what is wrong and where.
    """

    kind: str
    row: int
    name: str
    message: str


@dataclass(frozen=True)
class CoreRow:
    """Geometry of one core row.

    Attributes:
        index: 0-based row index, bottom row first.
        origin_x: x coordinate of site 0 (µm).
        y: y coordinate of the row's bottom edge (µm).
        num_sites: Number of placement sites in the row.
    """

    index: int
    origin_x: float
    y: float
    num_sites: int

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise LayoutError(f"row {self.index}: num_sites must be >= 1")


@dataclass
class RowPlacement:
    """One placed instance inside a row: sites ``[start, start+width)``."""

    name: str
    start: int
    width: int

    @property
    def end(self) -> int:
        """One past the last occupied site."""
        return self.start + self.width


class RowOccupancy:
    """Mutable site occupancy of a single core row."""

    def __init__(self, row: CoreRow) -> None:
        self.row = row
        self._starts: List[int] = []  # parallel to _items, sorted
        self._items: List[RowPlacement] = []
        #: bumped on every occupancy mutation; the vectorized kernels key
        #: their per-row bitmap caches on (occupancy, version).
        self.version = 0
        #: the free sites as an int: bit ``s`` is set when site ``s`` is
        #: free.  Every mutation keeps it current.
        self.free = (1 << row.num_sites) - 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def placements(self) -> List[RowPlacement]:
        """Placements sorted by start site (the internal list; don't mutate)."""
        return self._items

    @property
    def starts(self) -> List[int]:
        """Start-site index parallel to :attr:`placements` (don't mutate)."""
        return self._starts

    def copy(self) -> "RowOccupancy":
        """An independent occupancy of the same row with the same cells."""
        other = RowOccupancy(self.row)
        other._starts = list(self._starts)
        other._items = [
            RowPlacement(name=p.name, start=p.start, width=p.width)
            for p in self._items
        ]
        other.free = self.free
        return other

    def used_sites(self) -> int:
        """Total number of occupied sites."""
        return sum(p.width for p in self._items)

    def _index_at_or_after(self, site: int) -> int:
        """Index of the first placement whose start is >= ``site``."""
        return bisect.bisect_left(self._starts, site)

    def placement_of(self, name: str, start_hint: Optional[int] = None) -> RowPlacement:
        """Find the placement record for instance ``name``.

        ``start_hint`` (its known start site) makes the lookup O(log n).
        """
        if start_hint is not None:
            i = bisect.bisect_left(self._starts, start_hint)
            if i < len(self._items) and self._items[i].name == name:
                return self._items[i]
        for p in self._items:
            if p.name == name:
                return p
        raise LayoutError(f"instance {name!r} not in row {self.row.index}")

    def can_place(self, start: int, width: int) -> bool:
        """Whether sites ``[start, start+width)`` are inside the row and free."""
        if start < 0 or start + width > self.row.num_sites or width < 1:
            return False
        i = self._index_at_or_after(start)
        if i < len(self._items) and self._items[i].start < start + width:
            return False
        if i > 0 and self._items[i - 1].end > start:
            return False
        return True

    def place(self, name: str, start: int, width: int) -> RowPlacement:
        """Occupy sites ``[start, start+width)`` for instance ``name``."""
        if not self.can_place(start, width):
            raise LayoutError(
                f"cannot place {name!r} at row {self.row.index} sites "
                f"[{start}, {start + width}): occupied or out of row"
            )
        p = RowPlacement(name=name, start=start, width=width)
        i = self._index_at_or_after(start)
        self._starts.insert(i, start)
        self._items.insert(i, p)
        self.free &= ~(((1 << width) - 1) << start)
        self.version += 1
        return p

    def remove(self, name: str, start_hint: Optional[int] = None) -> RowPlacement:
        """Vacate the sites of instance ``name`` and return its record."""
        p = self.placement_of(name, start_hint)
        i = bisect.bisect_left(self._starts, p.start)
        del self._starts[i]
        del self._items[i]
        self.free |= ((1 << p.width) - 1) << p.start
        self.version += 1
        return p

    def move(self, name: str, new_start: int, start_hint: Optional[int] = None) -> None:
        """Move instance ``name`` to ``new_start`` within this row."""
        p = self.placement_of(name, start_hint)
        old_start = p.start
        if new_start == old_start:
            return
        i = bisect.bisect_left(self._starts, old_start)
        del self._starts[i]
        del self._items[i]
        if not self.can_place(new_start, p.width):
            # restore before failing
            self._starts.insert(i, old_start)
            self._items.insert(i, p)
            raise LayoutError(
                f"cannot move {name!r} to row {self.row.index} site {new_start}"
            )
        p.start = new_start
        j = self._index_at_or_after(new_start)
        self._starts.insert(j, new_start)
        self._items.insert(j, p)
        mask = (1 << p.width) - 1
        self.free = (self.free | mask << old_start) & ~(mask << new_start)
        self.version += 1

    def rewrite(self, starts: Sequence[int]) -> None:
        """Shift every cell of the row at once, keeping their order.

        ``starts[i]`` is the new start site of the ``i``-th cell from the
        left.  The sorted lists and the placement records are rewritten in
        place, and :attr:`version` is bumped once.

        Raises:
            LayoutError: When ``starts`` does not give one start per cell,
                or a cell would overlap its left neighbour or leave the
                row.  The row and its version are then unchanged.
        """
        items = self._items
        if len(starts) != len(items):
            raise LayoutError(
                f"row {self.row.index} holds {len(items)} cells, "
                f"got {len(starts)} starts"
            )
        end = 0
        for p, start in zip(items, starts):
            if start < end:
                raise LayoutError(
                    f"cannot shift {p.name!r} to row {self.row.index} site "
                    f"{start}: overlaps its left neighbour or leaves the row"
                )
            end = start + p.width
        if end > self.row.num_sites:
            raise LayoutError(
                f"cannot shift {items[-1].name!r} past the end of row "
                f"{self.row.index}"
            )
        taken = 0
        for p, start in zip(items, starts):
            p.start = start
            taken |= ((1 << p.width) - 1) << start
        self._starts = list(starts)
        self.free = ((1 << self.row.num_sites) - 1) & ~taken
        self.version += 1

    def cell_right_of(self, site: int) -> Optional[RowPlacement]:
        """First placement starting at or after ``site``."""
        i = self._index_at_or_after(site)
        if i < len(self._items):
            return self._items[i]
        return None

    def cell_left_of(self, site: int) -> Optional[RowPlacement]:
        """Last placement ending at or before ``site``."""
        i = self._index_at_or_after(site)
        # _items[i-1] starts before `site`; walk left until one ends <= site
        j = i - 1
        while j >= 0:
            if self._items[j].end <= site:
                return self._items[j]
            j -= 1
        return None

    def occupant_at(self, site: int) -> Optional[RowPlacement]:
        """Placement covering ``site``, or ``None`` when the site is free."""
        i = bisect.bisect_right(self._starts, site) - 1
        if i >= 0 and self._items[i].start <= site < self._items[i].end:
            return self._items[i]
        return None

    def free_intervals(self) -> List[Interval]:
        """Maximal free gaps of the row, left to right."""
        gaps: List[Interval] = []
        cursor = 0
        for p in self._items:
            if p.start > cursor:
                gaps.append(Interval(cursor, p.start))
            cursor = p.end
        if cursor < self.row.num_sites:
            gaps.append(Interval(cursor, self.row.num_sites))
        return gaps

    def free_sites(self) -> int:
        """Total number of free sites in the row."""
        return self.row.num_sites - self.used_sites()

    def largest_gap(self) -> int:
        """Width of the widest free gap (0 when the row is full)."""
        gaps = self.free_intervals()
        return max((len(g) for g in gaps), default=0)

    def findings(self) -> Iterator[Finding]:
        """This row's legality defects, in one pass from left to right.

        Per record ``index`` (its index entry is missing or differs),
        ``overlap``, ``out_of_row`` and ``empty`` (width below 1); last
        one ``index`` for surplus index entries.
        """
        index, num_sites = self.row.index, self.row.num_sites
        starts, items = self._starts, self._items
        n = len(starts)
        # The first record has no left neighbour to overlap.
        prev_end = items[0].start if items else 0
        prev_name = ""
        for i, p in enumerate(items):
            start = p.start
            end = start + p.width
            if i >= n or starts[i] != start:
                yield Finding("index", index, p.name,
                              f"row {index} index desynchronized at {p.name!r}")
            if start < prev_end:
                yield Finding("overlap", index, p.name,
                              f"{p.name!r} overlaps {prev_name!r} in row {index}")
            if start < 0 or end > num_sites:
                yield Finding("out_of_row", index, p.name,
                              f"{p.name!r} at [{start}, {end}) leaves row {index}")
            if p.width < 1:
                yield Finding("empty", index, p.name,
                              f"{p.name!r} has non-positive width {p.width}")
            if end > prev_end:
                prev_end, prev_name = end, p.name
        if n > len(items):
            yield Finding("index", index, "",
                          f"row {index} index has {n - len(items)} surplus starts")
