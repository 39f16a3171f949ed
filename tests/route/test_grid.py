"""Tests for the routing grid."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.kernels.routegrid import apply_line, code_scores, piece_codes, ratio_grid
from repro.route.grid import RoutingGrid
from repro.route.router import _TIERS, _clamp_tier
from repro.tech.technology import nangate45_like


def add_run(grid, layer, horizontal, lo, hi, fixed, demand):
    """Commit ``demand`` tracks along one straight run of gcells.

    The commit keeps a throwaway ratio grid of the run's layer in step.
    """
    kept = ratio_grid(
        grid.usage, grid.capacity, [0.0] * grid.capacity.shape[0],
        [(layer, layer)],
    )
    apply_line(
        grid.usage.reshape(-1).data, (layer - 1) * grid.nx * grid.ny, grid.ny,
        horizontal, lo, hi, fixed, demand,
        (kept.ratio.reshape(-1).data, kept.cap, 0.0, kept.shifts[layer - 1]),
    )


@pytest.fixture()
def grid(tech):
    return RoutingGrid(tech, Rect(0, 0, 30.0, 30.0))


class TestGeometry:
    def test_dimensions(self, grid):
        assert grid.nx >= 1 and grid.ny >= 1
        assert grid.capacity.shape == (10, grid.nx, grid.ny)

    def test_gcell_of_clamps(self, grid):
        assert grid.gcell_of(-5, -5) == (0, 0)
        assert grid.gcell_of(1e9, 1e9) == (grid.nx - 1, grid.ny - 1)

    def test_gcells_in_rect(self, grid):
        cells = list(grid.gcells_in_rect(Rect(0, 0, 30, 30)))
        assert len(cells) == grid.nx * grid.ny

    def test_capacity_direction_dependent(self, grid, tech):
        # H layers: tracks derived from gcell height; V: from width.
        for layer in tech.layers:
            cap = grid.capacity[layer.index - 1, 0, 0]
            extent = grid.gcell_h if layer.direction == "H" else grid.gcell_w
            assert cap == pytest.approx(extent / layer.track_pitch * 0.75)


class TestUsageAccounting:
    def test_add_remove_symmetry(self, grid):
        add_run(grid, 3, True, 0, 1, 0, 1.5)  # cells (0, 0), (1, 0)
        assert grid.usage[2, 0, 0] == 1.5
        assert grid.usage[2, 1, 0] == 1.5
        add_run(grid, 3, True, 0, 1, 0, -1.5)
        assert grid.usage[2, 0, 0] == 0.0
        assert not grid.usage.any()

    def test_overflow_counting(self, grid):
        cap = grid.capacity[0, 0, 0]
        add_run(grid, 1, True, 0, 0, 0, cap + 1)
        assert grid.num_overflows() == 1
        assert grid.num_overflows(slack=2.0) == 0
        assert grid.total_overflow() == pytest.approx(1.0)

    def test_shape_scores(self, grid):
        # One cell (0, 0) of a horizontal piece, scored on layer 1.
        cap = grid.capacity[0, 0, 0]
        ratio = ratio_grid(grid.usage, grid.capacity, [cap / 2] * 10, [(1, 2)]).ratio
        codes, _ = piece_codes(
            grid.nx, grid.ny, np.array([True]), np.array([0]), np.array([0]),
            np.array([0]),
        )
        [[score]] = code_scores(ratio, codes, np.array([0]))
        assert score == pytest.approx(0.5)

    @pytest.mark.parametrize("num_layers", [1, 3, 10])
    def test_commits_keep_the_ratio_grid(self, num_layers):
        """Commits with the ratio argument leave a fresh grid's ratios.

        On 1 and 3 layers clamped tiers share layers, so a bin feeds
        several ratio cells; a bin with zero capacity holds NaN.
        """
        tech = nangate45_like(num_layers=num_layers)
        grid = RoutingGrid(tech, Rect(0, 0, 30.0, 30.0))
        grid.capacity[0, 0, 1] = 0.0
        k, cells = num_layers, grid.nx * grid.ny
        tiers = [_clamp_tier(h, v, k) for h, v in _TIERS]
        demand = [1.0 + 0.5 * (i % 2) for i in range(k)]
        kept = ratio_grid(grid.usage, grid.capacity, demand, tiers)
        view = kept.ratio.reshape(-1).data
        runs = [(1, True, 0, grid.nx - 1, 1, 2.0), (k, False, 0, grid.ny - 1, 0, 1.5),
                (1, False, 1, 2, 0, -0.5)]
        for layer, horizontal, lo, hi, fixed, delta in runs:
            apply_line(
                grid.usage.reshape(-1).data, (layer - 1) * cells, grid.ny,
                horizontal, lo, hi, fixed, delta,
                (view, kept.cap, demand[layer - 1], kept.shifts[layer - 1]),
            )
            fresh = ratio_grid(grid.usage, grid.capacity, demand, tiers)
            assert kept.ratio.tobytes() == fresh.ratio.tobytes()
        assert np.isnan(kept.ratio).any()


class TestFreeTracks:
    def test_empty_grid_full_free(self, grid):
        assert grid.free_tracks_total() == pytest.approx(grid.capacity.sum())

    def test_free_tracks_over_region_prorated(self, grid):
        total = grid.free_tracks_over(grid.core)
        half = grid.free_tracks_over(
            Rect(0, 0, grid.core.width / 2, grid.core.height)
        )
        assert half == pytest.approx(total / 2, rel=0.15)

    def test_usage_reduces_free_tracks(self, grid):
        before = grid.free_tracks_total()
        add_run(grid, 3, True, 0, 1, 0, 2.0)
        assert grid.free_tracks_total() == pytest.approx(before - 4.0)

    def test_overflow_does_not_go_negative(self, grid):
        cap = grid.capacity[2, 0, 0]
        add_run(grid, 3, True, 0, 0, 0, cap + 100)
        rect = grid.gcell_rect(0, 0)
        assert grid.free_tracks_over(rect) >= 0.0
