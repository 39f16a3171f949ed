"""Bin-based placement density map.

Used by the DRC checker (congestion hot spots), the ICAS baseline (its
density parameter sweep observes the map), and tests.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.geometry import Rect
from repro.layout.layout import Layout


class DensityMap:
    """Utilization of a layout on a regular ``nx × ny`` bin grid."""

    def __init__(self, layout: Layout, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise PlacementError("density map needs at least one bin per axis")
        self.layout = layout
        self.nx = nx
        self.ny = ny
        core = layout.core
        self._bin_w = core.width / nx
        self._bin_h = core.height / ny
        self._used = np.zeros((nx, ny), dtype=float)
        self._capacity = np.zeros((nx, ny), dtype=float)
        self._build()

    def _build(self) -> None:
        """Add every placed cell's area to the bins it covers, pro-rated.

        One vector pass: each cell's µm box is ``span_rect``'s, a cell
        covers bins ``[⌊xlo/w⌋, ⌈xhi/w⌉) × [⌊ylo/h⌋, ⌈yhi/h⌉)`` (clamped to
        the grid), and a bin gets the cell's overlap area
        ``(min − max) × (min − max)`` when the interiors meet (strict
        ``<``, as :meth:`~repro.geometry.Rect.intersects`).  The areas are
        added with ``np.add.at`` by cell, then bin column, then bin row,
        so every bin's float sum is the one a cell-by-cell loop makes.
        """
        # Capacity: core area per bin (all bins inside the core by design).
        self._capacity[:, :] = self._bin_w * self._bin_h
        placements = self.layout.placements
        n = len(placements)
        if not n:
            return
        t = self.layout.technology
        instance = self.layout.netlist.instance
        rows = np.fromiter((p.row for p in placements.values()), np.int64, n)
        starts = np.fromiter(
            (p.start for p in placements.values()), np.int64, n
        )
        widths = np.fromiter(
            (instance(name).width_sites for name in placements), np.int64, n
        )
        xlo = starts * t.site_width
        ylo = rows * t.row_height
        xhi = xlo + widths * t.site_width
        yhi = ylo + t.row_height
        bw, bh = self._bin_w, self._bin_h
        ix_lo = np.maximum((xlo / bw).astype(np.int64), 0)
        ix_hi = np.minimum(np.ceil(xhi / bw).astype(np.int64), self.nx)
        iy_lo = np.maximum((ylo / bh).astype(np.int64), 0)
        iy_hi = np.minimum(np.ceil(yhi / bh).astype(np.int64), self.ny)
        span_x = np.maximum(ix_hi - ix_lo, 0)
        span_y = np.maximum(iy_hi - iy_lo, 0)
        count = span_x * span_y
        cell = np.repeat(np.arange(n), count)
        k = np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
        ix = ix_lo[cell] + k // span_y[cell]
        iy = iy_lo[cell] + k % span_y[cell]
        bxlo, bxhi = ix * bw, (ix + 1) * bw
        bylo, byhi = iy * bh, (iy + 1) * bh
        xlo, xhi, ylo, yhi = xlo[cell], xhi[cell], ylo[cell], yhi[cell]
        meets = (xlo < bxhi) & (bxlo < xhi) & (ylo < byhi) & (bylo < yhi)
        area = (np.minimum(xhi, bxhi) - np.maximum(xlo, bxlo)) * (
            np.minimum(yhi, byhi) - np.maximum(ylo, bylo)
        )
        np.add.at(self._used, (ix[meets], iy[meets]), area[meets])

    def bin_rect(self, ix: int, iy: int) -> Rect:
        """µm rectangle of bin ``(ix, iy)``."""
        return Rect(
            ix * self._bin_w,
            iy * self._bin_h,
            (ix + 1) * self._bin_w,
            (iy + 1) * self._bin_h,
        )

    def density(self, ix: int, iy: int) -> float:
        """Utilization of one bin in [0, ~1]."""
        cap = self._capacity[ix, iy]
        if cap <= 0:
            return 0.0
        return float(self._used[ix, iy] / cap)

    def as_array(self) -> np.ndarray:
        """Density of every bin as an ``(nx, ny)`` array."""
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(self._capacity > 0, self._used / self._capacity, 0.0)
        return d

    def max_density(self) -> float:
        """Highest bin utilization."""
        return float(self.as_array().max())

    def bins_above(self, threshold: float) -> List[Tuple[int, int]]:
        """Bins whose utilization exceeds ``threshold``."""
        arr = self.as_array()
        return [tuple(idx) for idx in np.argwhere(arr > threshold)]
