"""Scalar oracles for the density map's per-bin used area and LDA's caps.

:func:`_used`: one cell and one bin at a time, each placed cell's box is
intersected with every bin its index range covers, and the overlap area
is added to the bin.  :class:`repro.place.density.DensityMap` builds the
same sums in one vector pass.

:func:`asset_density_caps`: LDA's per-tile caps with the bias search
mapping ``np.vectorize(_sigmoid)`` over every tile at every step.
:func:`repro.core.local_density.asset_density_caps` maps the sigmoid
over the distinct z-scores only.
"""

from __future__ import annotations

import numpy as np

from repro.core.local_density import _gaussian_blur, _sigmoid
from repro.geometry import Rect
from repro.layout.layout import Layout
from repro.security.assets import SecurityAssets


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


def asset_density_caps(
    layout: Layout, assets: SecurityAssets, n: int
) -> np.ndarray:
    """The ``n × n`` density caps, one vectorized sigmoid per bias step."""
    counts = np.zeros((n, n), dtype=float)
    core = layout.core
    tile_w = core.width / n
    tile_h = core.height / n
    for name in assets:
        if not layout.is_placed(name):
            continue
        c = layout.cell_center(name)
        ix = min(int(c.x / tile_w), n - 1)
        iy = min(int(c.y / tile_h), n - 1)
        counts[ix, iy] += 1.0
    counts = _gaussian_blur(counts, max(n / 8.0, 0.8))
    mu = float(counts.mean())
    sigma = float(counts.std())
    if sigma == 0.0:
        z = np.zeros_like(counts)
    else:
        z = (counts - mu) / sigma
    gain = 3.5
    needed = layout.utilization() * 1.03
    vec_sigmoid = np.vectorize(_sigmoid)
    bias_lo, bias_hi = -4.0, 12.0
    for _ in range(48):
        bias = 0.5 * (bias_lo + bias_hi)
        caps = vec_sigmoid(gain * z + bias)
        if float(caps.mean()) < needed:
            bias_lo = bias
        else:
            bias_hi = bias
    return vec_sigmoid(gain * z + bias_hi)
