"""Core rows and per-row site occupancy.

A core row is a horizontal strip of placement sites.  Occupancy is kept as
a list of non-overlapping :class:`RowPlacement` records sorted by start
site; lookups use binary search.  This representation makes the queries the
Cell-Shift operator needs — "gap intervals of this row", "cell immediately
right of site s" — O(log n), and single-cell moves O(n) worst case (list
splice), which is plenty for the design sizes the benchmark suite builds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import LayoutError
from repro.geometry import Interval


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
        self.version += 1
        return p

    def remove(self, name: str, start_hint: Optional[int] = None) -> RowPlacement:
        """Vacate the sites of instance ``name`` and return its record."""
        p = self.placement_of(name, start_hint)
        i = bisect.bisect_left(self._starts, p.start)
        del self._starts[i]
        del self._items[i]
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

    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests and debug builds."""
        prev_end = 0
        for start, p in zip(self._starts, self._items):
            if start != p.start:
                raise LayoutError("row index desynchronized")
            if p.start < prev_end:
                raise LayoutError(
                    f"overlap in row {self.row.index} at site {p.start}"
                )
            if p.end > self.row.num_sites:
                raise LayoutError(f"{p.name!r} exceeds row {self.row.index}")
            prev_end = p.end
