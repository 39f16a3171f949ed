"""Gap graph: the paper's undirected model of empty sites (§III-B-1).

A *gap* (the paper's vertex ``v``) is a maximal run of contiguous free
sites in one row; its weight ``w(v)`` is the number of sites.  Two gaps are
connected iff they sit in adjacent rows and overlap in x (some of their
sites are vertically aligned).  A *component* ``C`` is a connected subgraph;
``w(C)`` is the sum of its gaps' weights.  Components with
``w(C) >= thresh_er`` are exploitable regions (before the exploitable-
distance filter applied by :mod:`repro.security.exploitable`).

The graph is grown bottom-up, one row at a time, by a union-find whose
roots carry their component's weight; the partition does not depend on
the union order.  Tests cross-check it against a DFS oracle (networkx),
matching the paper's DFS formulation.
"""

from __future__ import annotations

from bisect import bisect_left
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


class GapGraph:
    """The gap graph of a stack of rows, grown bottom-up.

    Built empty, or from per-row gap lists (``rows_gaps[i]`` = the sorted
    gaps of row ``i``).  Every gap is a node, numbered bottom row first
    and left to right in a row.  :meth:`add_row` appends the next row up
    and unions each of its gaps with the gaps of the row below it
    overlaps; a root's entry in the weight list is its component's
    weight (other entries are stale).  The last row's component weights
    (:meth:`last_row`) and the exploitable sites and count
    (:meth:`exploitable`) are read off the roots; :class:`Gap` and
    :class:`GapComponent` objects are built only by the queries that
    return them.
    """

    __slots__ = ("_parent", "_weight", "_lo", "_hi", "_row_start")

    def __init__(self, rows_gaps: Sequence[Sequence[Gap]] = ()) -> None:
        self._parent: List[int] = []
        self._weight: List[int] = []
        self._lo: List[int] = []
        self._hi: List[int] = []
        #: the node of each row's first gap, then one past the last node.
        self._row_start: List[int] = [0]
        for row in rows_gaps:
            self.add_row([(g.lo, g.hi) for g in row])

    @classmethod
    def from_free_intervals(
        cls, intervals_per_row: Sequence[Sequence[Interval]]
    ) -> "GapGraph":
        """Build from :meth:`RowOccupancy.free_intervals` output per row."""
        graph = cls()
        for ivs in intervals_per_row:
            graph.add_row([(iv.lo, iv.hi) for iv in ivs])
        return graph

    def _find(self, x: int) -> int:
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def add_row(self, gaps: Sequence[Tuple[int, int]]) -> None:
        """Append the next row up: its gaps as ``(lo, hi)``, left to right."""
        parent, weight = self._parent, self._weight
        los, his = self._lo, self._hi
        i = self._row_start[-2] if len(self._row_start) > 1 else 0
        j = first = len(parent)
        for lo, hi in gaps:
            parent.append(len(parent))
            weight.append(hi - lo)
            los.append(lo)
            his.append(hi)
        stop = len(parent)
        self._row_start.append(stop)
        # Two-pointer scan of the sorted gaps of the row below and this
        # row; union by weight, so a root's weight is its component's.
        find = self._find
        while i < first and j < stop:
            if los[i] < his[j] and los[j] < his[i]:
                ra, rb = find(i), find(j)
                if ra != rb:
                    if weight[ra] < weight[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    weight[ra] += weight[rb]
            if his[i] <= his[j]:
                i += 1
            else:
                j += 1

    def last_row(self) -> Tuple[List[int], List[int], List[int]]:
        """The last row's gap starts, ends and component weights.

        Three new lists, empty before the first row.
        """
        rs = self._row_start
        lo, hi = (rs[-2], rs[-1]) if len(rs) > 1 else (0, 0)
        weight, find = self._weight, self._find
        return (
            self._lo[lo:hi],
            self._hi[lo:hi],
            [weight[find(node)] for node in range(lo, hi)],
        )

    def exploitable(self, thresh_er: int) -> Tuple[int, int]:
        """Free sites and number of the components weighing ``thresh_er`` up.

        These are ``sum(c.weight ...)`` and ``len(...)`` of
        :meth:`exploitable_components`, read off the roots.
        """
        sites = count = 0
        weight = self._weight
        for node, up in enumerate(self._parent):
            if up == node and weight[node] >= thresh_er:
                sites += weight[node]
                count += 1
        return sites, count

    def row_gaps(self, row: int) -> List[Gap]:
        """Gaps of one row, left to right."""
        lo, hi = self._row_start[row], self._row_start[row + 1]
        return [
            Gap(row, a, b) for a, b in zip(self._lo[lo:hi], self._hi[lo:hi])
        ]

    def _node(self, gap: Gap) -> int:
        rs = self._row_start
        return bisect_left(self._lo, gap.lo, rs[gap.row], rs[gap.row + 1])

    def component_weight_of(self, gap: Gap) -> int:
        """The paper's ``w(compo(v))`` for vertex ``gap``."""
        return self._weight[self._find(self._node(gap))]

    def same_component(self, a: Gap, b: Gap) -> bool:
        """Whether two gaps share a component."""
        return self._find(self._node(a)) == self._find(self._node(b))

    def exploitable_components(self, thresh_er: int) -> List[GapComponent]:
        """Components whose weight reaches ``thresh_er``.

        Ordered by their first gap (bottom row first, then left to
        right), each listing its gaps in the same order.
        """
        weight, find = self._weight, self._find
        los, his, rs = self._lo, self._hi, self._row_start
        by_root: Dict[int, GapComponent] = {}
        for row in range(len(rs) - 1):
            for node in range(rs[row], rs[row + 1]):
                root = find(node)
                if weight[root] >= thresh_er:
                    by_root.setdefault(root, GapComponent()).gaps.append(
                        Gap(row, los[node], his[node])
                    )
        return list(by_root.values())

    def components(self) -> List[GapComponent]:
        """All components, ordered as :meth:`exploitable_components`."""
        return self.exploitable_components(0)
