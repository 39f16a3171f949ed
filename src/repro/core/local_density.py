"""Dynamic Local Density Adjustment (LDA) — Algorithm 2 of the paper.

For timing-tight or low-utilization designs, aggressive cell shifting
deteriorates fragile timing.  LDA instead partitions the core into an
``N × N`` grid and programs a *partial placement blockage* in every tile,
capping its placement density at ``sigmoid((n_assets − µ)/σ)`` — tiles
rich in security-critical cells get a high cap (cells may pack tightly
around the assets, starving the attacker of nearby free sites) while
asset-free tiles get a low cap (free space is pushed away from the
assets).  A wirelength-driven incremental ECO placement then realizes the
density targets; the whole cycle repeats ``n_iter`` times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import FlowError
from repro.geometry import Point, Rect
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout
from repro.place.eco_place import EcoPlacementReport, eco_place
from repro.security.assets import SecurityAssets


@dataclass
class LdaReport:
    """What an LDA run did.

    Attributes:
        iterations: ECO placement reports, one per iteration.
        grid_n: The N used.
    """

    grid_n: int
    iterations: List[EcoPlacementReport] = field(default_factory=list)

    @property
    def total_moved(self) -> int:
        """Cells moved across all iterations."""
        return sum(r.num_moved for r in self.iterations)

    @property
    def total_displacement_um(self) -> float:
        """Total displacement across all iterations (µm)."""
        return sum(r.total_displacement_um for r in self.iterations)


def _sigmoid(z: float) -> float:
    """Numerically safe logistic function."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _gaussian_blur(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding (no scipy needed)."""
    if sigma <= 0:
        return grid
    radius = max(int(3 * sigma), 1)
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()

    def conv1d(arr: np.ndarray) -> np.ndarray:
        padded = np.pad(arr, ((radius, radius), (0, 0)), mode="reflect")
        out = np.zeros_like(arr)
        for k, w in enumerate(kernel):
            out += w * padded[k : k + arr.shape[0], :]
        return out

    return conv1d(conv1d(grid).T).T


def asset_density_caps(
    layout: Layout,
    assets: SecurityAssets,
    n: int,
    smoothing_sigma: Optional[float] = None,
) -> np.ndarray:
    """The paper's per-tile density upper bounds (lines 4–9 of Alg. 2).

    Counts security-critical cells per tile, *smooths* the counts
    spatially (the paper's "smoothed into a valid density value" — the
    blur spreads each asset's influence over its exploitable
    neighborhood, so the whole region around the asset bank may pack
    densely, not just the asset tiles themselves), z-scores them, and
    squashes through a sigmoid.  A zero standard deviation (uniform
    assets) yields 0.5 everywhere.

    The map is then *feasibility-biased*: a real tool treats a partial
    blockage as best-effort, but our ECO placer enforces caps as hard
    budgets, so a constant is added to the z-scores (preserving their
    ordering) until the capped capacity carries the design's occupied
    sites with ~5 % headroom.
    """
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
    sigma_tiles = smoothing_sigma if smoothing_sigma is not None else max(n / 8.0, 0.8)
    counts = _gaussian_blur(counts, sigma_tiles)
    mu = float(counts.mean())
    sigma = float(counts.std())
    if sigma == 0.0:
        z = np.zeros_like(counts)
    else:
        z = (counts - mu) / sigma

    # Sharpen the sigmoid (gain) so asset-neighborhood tiles saturate
    # toward cap 1.0 while asset-free tiles drop well below the design
    # utilization — the density *contrast* is what drives enough eviction
    # volume to actually absorb the free space around the assets.  The
    # bias then places the map at the feasibility boundary: total capped
    # capacity = occupied sites × a small headroom.
    gain = 3.5
    util = layout.utilization()
    needed = util * 1.03
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


def asset_centroid(layout: Layout, assets: SecurityAssets) -> Optional[Point]:
    """Mean cell centre of the placed assets; ``None`` when none is placed.

    LDA's attraction point: the density flow converges on the asset bank.
    """
    placed_assets = [a for a in assets if layout.is_placed(a)]
    if not placed_assets:
        return None
    return Point(
        sum(layout.cell_center(a).x for a in placed_assets)
        / len(placed_assets),
        sum(layout.cell_center(a).y for a in placed_assets)
        / len(placed_assets),
    )


def local_density_adjustment(
    layout: Layout,
    assets: SecurityAssets,
    n: int = 8,
    n_iter: int = 1,
    min_cap: float = 0.05,
    keep_blockages: bool = False,
    attract_point=None,
) -> LdaReport:
    """Run LDA on ``layout`` (mutated in place).

    Args:
        layout: A placed layout; cells in ``layout.fixed`` never move.
        assets: The security-critical cells steering the density map.
        n: Grid dimension (tiles per axis) — ``LDA::N`` of Table I.
        n_iter: Number of blockage/ECO-place cycles — ``LDA::n_iter``.
        min_cap: Floor on the tile density cap, so the sigmoid's left tail
            cannot demand a physically absurd full eviction.
        keep_blockages: Leave the last iteration's blockages registered on
            the layout (useful for inspection; the flow clears them).
        attract_point: Override for the asset-attraction point (normally
            :func:`asset_centroid` at call time).  Resume-style
            callers — a run continuing from an ``n_iter - j`` prefix —
            must pass the original layout's centroid so the continued
            iterations reproduce the longer run exactly.

    Returns:
        An :class:`LdaReport`.
    """
    if n < 1:
        raise FlowError("LDA grid N must be >= 1")
    if n_iter < 1:
        raise FlowError("LDA n_iter must be >= 1")
    assets.validate_against(layout.netlist)
    report = LdaReport(grid_n=n)
    core = layout.core
    tile_w = core.width / n
    tile_h = core.height / n
    # Density flow converges on the asset bank: arrivals consume the free
    # sites nearest the assets first.
    attract = (
        attract_point if attract_point is not None
        else asset_centroid(layout, assets)
    )
    # Blockage names carry no iteration index: each iteration starts from
    # a cleared set, and a run continued from a cached prefix restarts
    # its count, which must not change what the report names.
    for _ in range(n_iter):
        layout.clear_blockages()
        caps = asset_density_caps(layout, assets, n)
        for ix in range(n):
            for iy in range(n):
                cap = max(float(caps[ix, iy]), min_cap)
                rect = Rect(
                    ix * tile_w,
                    iy * tile_h,
                    (ix + 1) * tile_w,
                    (iy + 1) * tile_h,
                )
                layout.add_blockage(
                    PlacementBlockage(
                        name=f"lda_{ix}_{iy}",
                        rect=rect,
                        max_density=cap,
                    )
                )
        report.iterations.append(eco_place(layout, attract_point=attract))
    if not keep_blockages:
        layout.clear_blockages()
    return report
