"""Scalar oracle for the cell-shift re-space's below-row weights.

``_IncrementalBelow`` grows one union-find over rows ``0..r`` as the
re-space finalizes them.  The oracle rebuilds the whole gap graph of
those rows from scratch and reads each gap's component weight off it.
"""

from __future__ import annotations

from typing import List

from repro.core.cell_shift import _BelowGap, _graph_upto
from repro.layout.layout import Layout


def _below_weights(layout: Layout, row_idx: int) -> List[_BelowGap]:
    """Gaps of ``row_idx − 1`` with the weight of their full component."""
    if row_idx == 0:
        return []
    graph = _graph_upto(layout, row_idx - 1)
    return [
        _BelowGap(g.lo, g.hi, graph.component_weight_of(g))
        for g in graph.row_gaps(row_idx - 1)
    ]
