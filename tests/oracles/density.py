"""Scalar oracle for the density map's per-bin used area.

One cell and one bin at a time: each placed cell's box is intersected
with every bin its index range covers, and the overlap area is added to
the bin.  :class:`repro.place.density.DensityMap` builds the same sums
in one vector pass.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Rect
from repro.layout.layout import Layout


def _used(layout: Layout, nx: int, ny: int) -> np.ndarray:
    """Placed cell area inside each of the ``nx × ny`` bins."""
    core = layout.core
    bin_w = core.width / nx
    bin_h = core.height / ny
    used = np.zeros((nx, ny), dtype=float)
    for name in layout.placements:
        rect = layout.cell_rect(name)
        ix_lo = max(int(rect.xlo / bin_w), 0)
        ix_hi = min(int(np.ceil(rect.xhi / bin_w)), nx)
        iy_lo = max(int(rect.ylo / bin_h), 0)
        iy_hi = min(int(np.ceil(rect.yhi / bin_h)), ny)
        for ix in range(ix_lo, ix_hi):
            for iy in range(iy_lo, iy_hi):
                bin_rect = Rect(
                    ix * bin_w, iy * bin_h, (ix + 1) * bin_w, (iy + 1) * bin_h
                )
                overlap = rect.intersection(bin_rect)
                if overlap is not None:
                    used[ix, iy] += overlap.area
    return used
