"""The global-routing gcell grid.

The core is tiled into gcells (a few sites wide, two rows tall).  Every
gcell × layer has a track capacity derived from the layer's pitch and the
gcell's extent perpendicular to the routing direction; routed segments
consume capacity (scaled by the NDR width factor); the router commits
them into :attr:`RoutingGrid.usage` with
:func:`repro.kernels.routegrid.apply_line`.  Overflow — usage above
capacity — is the congestion signal for DRC counting and rip-up.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.geometry import Rect
from repro.tech.technology import Technology

#: Gcell extent in sites / rows — chosen so gcells are near-square in µm
#: for the Nangate-like technology (15 × 0.19 ≈ 2 × 1.4).
GCELL_SITES = 24
GCELL_ROWS = 3

#: Fraction of the theoretical tracks actually routable (the rest is lost
#: to pins, power stripes, and vias — the usual global-routing derate).
CAPACITY_DERATE = 0.75


class RoutingGrid:
    """Track capacities and usage over a gcell grid.

    Attributes:
        nx, ny: Grid dimensions in gcells.
        capacity: ``(K, nx, ny)`` float array of track capacity.
        usage: ``(K, nx, ny)`` float array of consumed tracks.
    """

    def __init__(self, technology: Technology, core: Rect) -> None:
        self.technology = technology
        self.core = core
        self.gcell_w = GCELL_SITES * technology.site_width
        self.gcell_h = GCELL_ROWS * technology.row_height
        self.nx = max(int(np.ceil(core.width / self.gcell_w)), 1)
        self.ny = max(int(np.ceil(core.height / self.gcell_h)), 1)
        k = technology.num_layers
        self.capacity = np.zeros((k, self.nx, self.ny), dtype=float)
        self.usage = np.zeros((k, self.nx, self.ny), dtype=float)
        for layer in technology.layers:
            if layer.direction == "H":
                tracks = self.gcell_h / layer.track_pitch
            else:
                tracks = self.gcell_w / layer.track_pitch
            self.capacity[layer.index - 1, :, :] = tracks * CAPACITY_DERATE

    # ------------------------------------------------------------------ #
    # coordinate mapping
    # ------------------------------------------------------------------ #

    def gcell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Gcell indices containing µm point ``(x, y)`` (clamped)."""
        ix = min(max(int(x / self.gcell_w), 0), self.nx - 1)
        iy = min(max(int(y / self.gcell_h), 0), self.ny - 1)
        return ix, iy

    def gcell_rect(self, ix: int, iy: int) -> Rect:
        """µm rectangle of gcell ``(ix, iy)`` (clipped to the core)."""
        return Rect(
            ix * self.gcell_w,
            iy * self.gcell_h,
            min((ix + 1) * self.gcell_w, self.core.xhi),
            min((iy + 1) * self.gcell_h, self.core.yhi),
        )

    def gcells_in_rect(self, rect: Rect) -> Iterator[Tuple[int, int]]:
        """All gcells whose area intersects ``rect``."""
        ix_lo = max(int(rect.xlo / self.gcell_w), 0)
        iy_lo = max(int(rect.ylo / self.gcell_h), 0)
        ix_hi = min(int(np.ceil(rect.xhi / self.gcell_w)), self.nx)
        iy_hi = min(int(np.ceil(rect.yhi / self.gcell_h)), self.ny)
        for ix in range(ix_lo, ix_hi):
            for iy in range(iy_lo, iy_hi):
                yield ix, iy

    # ------------------------------------------------------------------ #
    # congestion queries
    # ------------------------------------------------------------------ #

    def overflow_map(self) -> np.ndarray:
        """Per (layer, gcell) overflow: ``max(usage - capacity, 0)``."""
        return np.maximum(self.usage - self.capacity, 0.0)

    def num_overflows(self, slack: float = 0.0) -> int:
        """Number of gcell×layer bins with usage above capacity + slack."""
        return int(np.count_nonzero(self.usage > self.capacity + slack))

    def total_overflow(self) -> float:
        """Sum of overflow over all bins (tracks)."""
        return float(self.overflow_map().sum())

    def free_tracks(self) -> np.ndarray:
        """Per (layer, gcell) unused tracks: ``max(capacity - usage, 0)``."""
        return np.maximum(self.capacity - self.usage, 0.0)

    def free_tracks_total(self) -> float:
        """Unused track capacity over the entire core (all layers)."""
        return float(self.free_tracks().sum())

    def free_tracks_over(
        self, rect: Rect, free: Optional[np.ndarray] = None
    ) -> float:
        """Unused tracks over µm region ``rect``, pro-rated by area overlap.

        This is the paper's *Free Routing Tracks* primitive: the routing
        resource an attacker could still use above a given region.
        ``free`` is :meth:`free_tracks` of the grid as it stands, built
        here when not given; a caller asking about many rectangles
        builds it once.
        """
        total = 0.0
        if free is None:
            free = self.free_tracks()
        for ix, iy in self.gcells_in_rect(rect):
            cell_rect = self.gcell_rect(ix, iy)
            overlap = cell_rect.intersection(rect)
            if overlap is None or cell_rect.area <= 0:
                continue
            frac = overlap.area / cell_rect.area
            total += float(free[:, ix, iy].sum()) * frac
        return total
