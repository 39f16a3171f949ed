"""Tests for the additive-Trojan attacker."""

import numpy as np
import pytest

from repro.errors import SecurityError
from repro.security.trojan import (
    AttackReport,
    TrojanSpec,
    _nearest_asset_distance,
    _try_place_gates,
    attempt_insertion,
    materialize_implant,
    rank_regions,
)


class TestTrojanSpec:
    def test_default_footprint(self, tiny_design):
        spec = TrojanSpec()
        total = spec.total_sites(tiny_design["layout"])
        assert total == 4 * 3 + 2 * 2  # 4 NAND + 2 INV (A2-class, no FF)

    def test_custom_gates(self, tiny_design):
        spec = TrojanSpec(gate_masters=("INV_X1",))
        assert spec.total_sites(tiny_design["layout"]) == 2

    def test_empty_footprint_rejected(self):
        with pytest.raises(SecurityError, match="at least one gate"):
            TrojanSpec(gate_masters=())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SecurityError, match="unknown placement"):
            TrojanSpec(strategy="diagonal")


class TestAttack:
    def test_baseline_layout_is_attackable(self, misty_design):
        d = misty_design
        report = attempt_insertion(
            d.layout, d.sta, d.assets, routing=d.routing
        )
        assert report.success
        assert report.gates_placed == len(TrojanSpec().gate_masters)
        assert report.region_sites >= 20

    def test_layout_not_mutated(self, misty_design):
        d = misty_design
        before = dict(d.layout.placements)
        sig = d.netlist.signature()
        attempt_insertion(d.layout, d.sta, d.assets, routing=d.routing)
        assert d.layout.placements == before
        assert d.netlist.signature() == sig

    def test_no_regions_no_attack(self, tiny_design):
        # Distance 0 everywhere -> no exploitable regions -> attack fails.
        from repro.security.exploitable import find_exploitable_regions

        report = attempt_insertion(
            tiny_design["layout"],
            tiny_design["sta"],
            tiny_design["assets"],
            thresh_er=10**9,  # impossible threshold
        )
        assert not report.success
        assert "no exploitable regions" in report.reason

    def test_hardened_layout_resists(self, misty_design):
        """After CS hardening, the attacker must fail or be far displaced."""
        from repro.core.cell_shift import cell_shift
        from repro.route.router import global_route
        from repro.security.exploitable import exploitable_distance
        from repro.timing.sta import run_sta

        d = misty_design
        layout = d.layout.clone()
        dists = {
            a: exploitable_distance(d.layout, d.sta, a) for a in d.assets
        }
        cell_shift(layout, thresh_er=20, assets=d.assets, distances=dists)
        routing = global_route(layout)
        sta = run_sta(layout, d.constraints, routing=routing)
        report = attempt_insertion(layout, sta, d.assets, routing=routing)
        assert not report.success

    def test_report_bool(self):
        assert not AttackReport(success=False, reason="x")
        assert AttackReport(success=True, reason="y")

    def test_tap_distance_exactly_at_limit_passes(self, misty_design):
        """Boundary semantics: a distance *at* the limit is still legal."""
        d = misty_design
        free = attempt_insertion(d.layout, d.sta, d.assets, routing=d.routing)
        assert free.success
        at_limit = attempt_insertion(
            d.layout,
            d.sta,
            d.assets,
            routing=d.routing,
            spec=TrojanSpec(tap_limit_um=free.region_distance_um),
        )
        assert at_limit.success
        assert at_limit.region_distance_um == free.region_distance_um

    def test_tap_limit_beyond_distance_fails(self, misty_design):
        """Only far regions could hold the fat Trojan; the limit rejects
        them, so the reported failure is the tap-limit one."""
        from repro.security.exploitable import find_exploitable_regions

        d = misty_design
        regions = find_exploitable_regions(
            d.layout, d.sta, d.assets, routing=d.routing
        ).regions
        dists = [
            _nearest_asset_distance(d.layout, r, d.assets)[0]
            for r in regions
        ]
        limit = 1.0
        assert any(limit < x < float("inf") for x in dists)
        biggest = max(r.num_sites for r in regions)
        report = attempt_insertion(
            d.layout,
            d.sta,
            d.assets,
            routing=d.routing,
            spec=TrojanSpec(
                gate_masters=("DFF_X1",) * (biggest + 1),
                tap_limit_um=limit,
            ),
        )
        assert not report.success
        assert "tap limit" in report.reason
        assert report.region_distance_um > limit

    def test_attack_on_randomly_perturbed_layouts(
        self, tiny_design, session_rng
    ):
        """The attacker behaves sanely on any legal placement variant."""
        from repro.route.router import global_route
        from repro.timing.sta import run_sta

        d = tiny_design
        rng = session_rng.child("trojan-perturb")
        for _ in range(3):
            layout = d["layout"].clone()
            movable = [
                name
                for name in layout.placements
                if name not in layout.fixed and name not in d["assets"]
            ]
            for name in rng.sample(movable, k=min(6, len(movable))):
                width = layout.netlist.instance(name).width_sites
                old = layout.placements[name]
                layout.unplace(name)
                for _ in range(100):
                    row = rng.randrange(layout.num_rows)
                    start = rng.randrange(
                        0, max(1, layout.sites_per_row - width)
                    )
                    if layout.occupancy[row].can_place(start, width):
                        layout.place(name, row, start)
                        break
                else:
                    layout.place(name, old.row, old.start)
            routing = global_route(layout)
            sta = run_sta(layout, d["constraints"], routing=routing)
            before = dict(layout.placements)
            report = attempt_insertion(
                layout, sta, d["assets"], routing=routing
            )
            assert layout.placements == before
            if report.success:
                assert report.gates_placed == len(TrojanSpec().gate_masters)
            else:
                assert report.reason


class TestHelpers:
    """Edge cases for the distance/packing helpers."""

    @staticmethod
    def _regions(d):
        from repro.security.exploitable import find_exploitable_regions

        return find_exploitable_regions(
            d.layout, d.sta, d.assets, routing=d.routing
        ).regions

    def test_nearest_asset_distance_no_assets(self, misty_design):
        """A layout with no assets at all has no victim to measure to."""
        region = self._regions(misty_design)[0]
        dist, victim = _nearest_asset_distance(
            misty_design.layout, region, []
        )
        assert dist == float("inf")
        assert victim is None

    def test_nearest_asset_distance_skips_unplaced_assets(
        self, misty_design
    ):
        region = self._regions(misty_design)[0]
        dist, victim = _nearest_asset_distance(
            misty_design.layout, region, ["phantom_asset"]
        )
        assert dist == float("inf")
        assert victim is None

    def test_zero_free_sites_rejects_every_strategy(self, misty_design):
        from repro.layout.gaps import Gap, GapComponent
        from repro.security.exploitable import ExploitableRegion

        region = ExploitableRegion(GapComponent(gaps=[Gap(0, 5, 5)]))
        assert region.num_sites == 0
        assert (
            _try_place_gates(misty_design.layout, region, TrojanSpec())
            is None
        )
        assert (
            _try_place_gates(
                misty_design.layout,
                region,
                TrojanSpec(strategy="random_fit"),
                rng=np.random.default_rng(1),
            )
            is None
        )

    def test_oversized_footprint_never_fits(self, misty_design):
        d = misty_design
        region = max(self._regions(d), key=lambda r: r.num_sites)
        spec = TrojanSpec(
            gate_masters=("DFF_X1",) * (region.num_sites + 1)
        )
        assert _try_place_gates(d.layout, region, spec) is None

    def test_first_fit_places_inside_the_region_gaps(self, misty_design):
        d = misty_design
        region = max(self._regions(d), key=lambda r: r.num_sites)
        spec = TrojanSpec()
        placements = _try_place_gates(d.layout, region, spec)
        assert placements is not None
        assert len(placements) == len(spec.gate_masters)
        gaps = [(g.row, g.lo, g.hi) for g in region.component.gaps]
        lib = d.layout.netlist.library
        for master, row, start in placements:
            width = lib.cell(master).width_sites
            assert any(
                row == g_row and g_lo <= start and start + width <= g_hi
                for g_row, g_lo, g_hi in gaps
            )

    def test_random_fit_is_seed_deterministic(self, misty_design):
        d = misty_design
        region = max(self._regions(d), key=lambda r: r.num_sites)
        spec = TrojanSpec(strategy="random_fit")
        first = _try_place_gates(
            d.layout, region, spec, rng=np.random.default_rng(42)
        )
        second = _try_place_gates(
            d.layout, region, spec, rng=np.random.default_rng(42)
        )
        assert first is not None
        assert first == second


class TestMaterializeErrors:
    def test_failed_report_rejected(self, misty_design):
        with pytest.raises(SecurityError, match="successful report"):
            materialize_implant(
                misty_design.layout,
                AttackReport(success=False, reason="x"),
                TrojanSpec(),
            )

    def test_report_without_victim_rejected(self, misty_design):
        report = AttackReport(
            success=True,
            reason="y",
            placements=(("INV_X1", 0, 0),),
        )
        with pytest.raises(SecurityError, match="no victim"):
            materialize_implant(misty_design.layout, report, TrojanSpec())


class TestRegionRanking:
    def test_ranked_attempts_equal_unranked_ones(self, misty_design):
        d = misty_design
        for thresh_er in (12, 20):
            ranked = rank_regions(
                d.layout, d.sta, d.assets, thresh_er, d.routing
            )
            assert ranked.num_regions >= len(ranked.candidates) > 0
            for strategy in ("first_fit", "random_fit"):
                spec = TrojanSpec(strategy=strategy)
                for seed in range(3):
                    kwargs = dict(
                        routing=d.routing,
                        spec=spec,
                        thresh_er=thresh_er,
                    )
                    plain = attempt_insertion(
                        d.layout, d.sta, d.assets,
                        rng=np.random.default_rng(seed), **kwargs,
                    )
                    memo = attempt_insertion(
                        d.layout, d.sta, d.assets,
                        rng=np.random.default_rng(seed), ranked=ranked,
                        **kwargs,
                    )
                    assert memo == plain

    def test_candidates_are_best_first(self, misty_design):
        d = misty_design
        ranked = rank_regions(d.layout, d.sta, d.assets, 20, d.routing)
        scores = [
            region.num_sites / (1.0 + dist)
            for region, dist, _ in ranked.candidates
        ]
        assert scores == sorted(scores, reverse=True)

    def test_ranking_for_another_thresh_er_is_refused(self, misty_design):
        d = misty_design
        ranked = rank_regions(d.layout, d.sta, d.assets, 12, d.routing)
        with pytest.raises(SecurityError, match="Thresh_ER 12, not 20"):
            attempt_insertion(
                d.layout, d.sta, d.assets, thresh_er=20, ranked=ranked
            )
