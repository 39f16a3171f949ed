"""Blockage density budgets used by the legalizer and the ECO placer.

A :class:`BlockageBudget` turns each partial placement blockage into a
site-count budget: ``capacity × max_density`` sites may be occupied inside
its rectangle.  A :class:`BudgetSet` indexes the budgets by row so the hot
query — "may I place w sites at (row, start)?" — only consults the few
budgets that actually cover the row.  A budget's ``used`` is a property:
however it changes (:meth:`BlockageBudget.commit`, ``release``, or a
direct write), every set holding the budget mirrors the new value and,
when the budget's headroom clamped at 0 moved, bumps the epochs of the
budget's rows.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry import Interval
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout


class BlockageBudget:
    """Site budget of one partial placement blockage."""

    def __init__(self, layout: Layout, blockage: PlacementBlockage) -> None:
        self.blockage = blockage
        self._spans: Dict[int, Interval] = {
            row: iv for row, iv in layout.rect_to_row_span(blockage.rect)
        }
        capacity = sum(len(iv) for iv in self._spans.values())
        self.capacity = capacity
        self.max_used = int(capacity * blockage.max_density)
        #: the sets holding this budget (weakly, so a set is freed when
        #: its last user drops it), told of every change to ``used``.
        self._sets: List["weakref.ref[BudgetSet]"] = []
        # Occupied sites of a span = its length minus its free sites,
        # counted in the row's free-site bitset.
        self._used = 0
        for row, iv in self._spans.items():
            free = layout.occupancy[row].free >> iv.lo
            free &= (1 << len(iv)) - 1
            self._used += len(iv) - bin(free).count("1")

    @property
    def used(self) -> int:
        """Sites of the blockage's rectangle taken by placed cells."""
        return self._used

    @used.setter
    def used(self, value: int) -> None:
        old, self._used = self._used, value
        for ref in self._sets:
            budgets = ref()
            if budgets is not None:
                budgets._moved(self, old)

    @property
    def rows(self) -> Iterator[int]:
        """Rows the blockage covers."""
        return iter(self._spans)

    def row_span(self, row: int) -> Optional[Interval]:
        """The blockage's site interval on ``row`` (None when not covered)."""
        return self._spans.get(row)

    def _overlap(self, row: int, start: int, width: int) -> int:
        """Sites of a candidate placement falling inside the blockage."""
        iv = self._spans.get(row)
        if iv is None:
            return 0
        lo, hi = max(start, iv.lo), min(start + width, iv.hi)
        return max(hi - lo, 0)

    def allows(self, row: int, start: int, width: int) -> bool:
        """Whether placing ``width`` sites at ``(row, start)`` stays in budget.

        A placement that does not overlap the blockage is always allowed —
        an already-over-budget region must not veto moves elsewhere.
        """
        ov = self._overlap(row, start, width)
        if ov == 0:
            return True
        return self.used + ov <= self.max_used

    def commit(self, row: int, start: int, width: int) -> None:
        """Record a placement inside (or partly inside) the blockage."""
        self.used += self._overlap(row, start, width)

    def release(self, row: int, start: int, width: int) -> None:
        """Undo :meth:`commit` for a removed placement."""
        self.used -= self._overlap(row, start, width)

    @property
    def over_budget(self) -> bool:
        """Whether current occupancy already exceeds the density cap."""
        return self.used > self.max_used


class BudgetSet:
    """All budgets of a layout, indexed by row for fast admission checks."""

    def __init__(self, budgets: List[BlockageBudget], num_rows: int) -> None:
        self.budgets = budgets
        #: per row, each covering budget with its site span ``(lo, hi)``
        #: there and its position in ``budgets``, in ``budgets`` order.
        self.spans: List[List[Tuple[BlockageBudget, int, int, int]]] = [
            [] for _ in range(num_rows)
        ]
        for i, b in enumerate(budgets):
            for row, iv in b._spans.items():
                if 0 <= row < num_rows:
                    self.spans[row].append((b, iv.lo, iv.hi, i))
        #: budget id → its position in ``budgets``.
        self.index: Dict[int, int] = {id(b): i for i, b in enumerate(budgets)}
        for b in budgets:
            b._sets.append(weakref.ref(self))
        #: every budget's ``used``, in ``budgets`` order, for the
        #: receiving-target scan; kept in step with every change to a
        #: budget's ``used``.
        self.used = np.array([b.used for b in budgets], dtype=np.int64)
        #: every budget's headroom ``max_used − used``, in ``budgets``
        #: order, for the legal-start search.
        self.headroom: List[int] = [b.max_used - b.used for b in budgets]
        #: per row, bumped whenever the headroom of a budget covering the
        #: row, clamped at 0, moves: the starts a budget forbids depend on
        #: nothing else of it.  The legal-start search keys its row caches
        #: on it.
        self.row_epoch: List[int] = [0] * num_rows
        #: the position of each budget whose clamped headroom grew, in
        #: the order it grew (the rows it covers may admit new starts).
        self.grown: List[int] = []

    def __iter__(self) -> Iterator[BlockageBudget]:
        return iter(self.budgets)

    def __len__(self) -> int:
        return len(self.budgets)

    def row_budgets(self, row: int) -> List[BlockageBudget]:
        """Budgets covering one row."""
        if 0 <= row < len(self.spans):
            return [b for b, _, _, _ in self.spans[row]]
        return []

    def allows(self, row: int, start: int, width: int) -> bool:
        """Whether every budget admits the candidate placement."""
        return all(b.allows(row, start, width) for b in self.row_budgets(row))

    def commit(self, row: int, start: int, width: int) -> None:
        """Commit the placement to the covering budgets."""
        for b in self._overlapped(row, start, width):
            b.commit(row, start, width)

    def release(self, row: int, start: int, width: int) -> None:
        """Release a removed placement from the covering budgets."""
        for b in self._overlapped(row, start, width):
            b.release(row, start, width)

    def _overlapped(
        self, row: int, start: int, width: int
    ) -> List[BlockageBudget]:
        """Budgets whose span on ``row`` meets sites ``[start, start+width)``."""
        if not 0 <= row < len(self.spans):
            return []
        end = start + width
        return [b for b, lo, hi, _ in self.spans[row] if lo < end and start < hi]

    def _moved(self, b: BlockageBudget, old: int) -> None:
        """Mirror ``b``'s new ``used``; note a change of its clamped headroom.

        ``old`` is ``b.used`` before the change.
        """
        i = self.index[id(b)]
        self.used[i] = b.used
        self.headroom[i] = b.max_used - b.used
        before = max(b.max_used - old, 0)
        after = max(b.max_used - b.used, 0)
        if before != after:
            if after > before:
                self.grown.append(i)
            epoch = self.row_epoch
            for row in b.rows:
                epoch[row] += 1

    def over_budget(self) -> List[BlockageBudget]:
        """All budgets currently above their cap."""
        return [b for b in self.budgets if b.over_budget]


def build_budgets(layout: Layout) -> BudgetSet:
    """Budgets for every blockage registered on ``layout``."""
    return BudgetSet(
        [BlockageBudget(layout, b) for b in layout.blockages.values()],
        layout.num_rows,
    )
