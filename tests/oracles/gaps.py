"""Oracle: the gap graph built in one batch (§III-B-1).

A verbatim copy of ``repro.layout.gaps`` as it stood before the graph
was grown row by row: every gap of every row is listed first, indexed in
a dict, and adjacent rows are unioned by a separate array union-find.
``repro.layout.gaps.GapGraph`` grows the same graph one row at a time;
its component weights, exploitable sites and components (in order, with
their gaps) must equal this copy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Interval


@dataclass(frozen=True)
class Gap:
    """One maximal free interval: the gap graph's vertex.

    Attributes:
        row: Row index.
        lo: First free site (inclusive).
        hi: One past the last free site.
    """

    row: int
    lo: int
    hi: int

    @property
    def weight(self) -> int:
        """Number of free sites, the paper's ``w(v)``."""
        return self.hi - self.lo

    @property
    def interval(self) -> Interval:
        """The gap's site interval."""
        return Interval(self.lo, self.hi)

    def x_overlaps(self, other: "Gap") -> bool:
        """Whether the two gaps share at least one x (site column)."""
        return self.lo < other.hi and other.lo < self.hi


@dataclass
class GapComponent:
    """A connected component of the gap graph (the paper's ``C``)."""

    gaps: List[Gap] = field(default_factory=list)

    @property
    def weight(self) -> int:
        """Total free sites, the paper's ``w(C)``."""
        return sum(g.weight for g in self.gaps)

    def rows(self) -> List[int]:
        """Sorted distinct row indices the component spans."""
        return sorted({g.row for g in self.gaps})

    def bounding_sites(self) -> Tuple[int, int]:
        """(min lo, max hi) over all gaps — x extent in sites."""
        return (min(g.lo for g in self.gaps), max(g.hi for g in self.gaps))


class _UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class GapGraph:
    """The gap graph of a set of rows.

    Built from per-row gap lists (``rows_gaps[i]`` = sorted gaps of row i).
    Exposes component queries keyed by gap, as Algorithm 1 requires
    (``compo(v)``).
    """

    def __init__(self, rows_gaps: Sequence[Sequence[Gap]]) -> None:
        self._gaps: List[Gap] = [g for row in rows_gaps for g in row]
        self._rows_gaps: List[List[Gap]] = [list(row) for row in rows_gaps]
        self._index: Dict[Gap, int] = {g: i for i, g in enumerate(self._gaps)}
        self._uf = _UnionFind(len(self._gaps))
        self._link_adjacent_rows()
        self._component_weight: Dict[int, int] = {}
        for i, g in enumerate(self._gaps):
            root = self._uf.find(i)
            self._component_weight[root] = self._component_weight.get(root, 0) + g.weight

    @classmethod
    def from_free_intervals(
        cls, intervals_per_row: Sequence[Sequence[Interval]]
    ) -> "GapGraph":
        """Build from :meth:`RowOccupancy.free_intervals` output per row."""
        rows_gaps = [
            [Gap(row=r, lo=iv.lo, hi=iv.hi) for iv in ivs]
            for r, ivs in enumerate(intervals_per_row)
        ]
        return cls(rows_gaps)

    def _link_adjacent_rows(self) -> None:
        """Union gaps in adjacent rows that overlap in x (two-pointer scan)."""
        for r in range(len(self._rows_gaps) - 1):
            lower = self._rows_gaps[r]
            upper = self._rows_gaps[r + 1]
            i = j = 0
            while i < len(lower) and j < len(upper):
                a, b = lower[i], upper[j]
                if a.x_overlaps(b):
                    self._uf.union(self._index[a], self._index[b])
                if a.hi <= b.hi:
                    i += 1
                else:
                    j += 1

    @property
    def gaps(self) -> List[Gap]:
        """All gaps (vertices) of the graph."""
        return list(self._gaps)

    def row_gaps(self, row: int) -> List[Gap]:
        """Gaps of one row, left to right."""
        return list(self._rows_gaps[row])

    def component_weight_of(self, gap: Gap) -> int:
        """The paper's ``w(compo(v))`` for vertex ``gap``."""
        root = self._uf.find(self._index[gap])
        return self._component_weight[root]

    def components(self) -> List[GapComponent]:
        """All connected components."""
        by_root: Dict[int, GapComponent] = {}
        for i, g in enumerate(self._gaps):
            by_root.setdefault(self._uf.find(i), GapComponent()).gaps.append(g)
        return list(by_root.values())

    def exploitable_components(self, thresh_er: int) -> List[GapComponent]:
        """Components whose weight reaches ``thresh_er``."""
        return [c for c in self.components() if c.weight >= thresh_er]

    def same_component(self, a: Gap, b: Gap) -> bool:
        """Whether two gaps share a component."""
        return self._uf.find(self._index[a]) == self._uf.find(self._index[b])
