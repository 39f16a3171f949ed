"""Oracle test: the red-team impact delta equals the rebuilt implant.

:class:`~repro.redteam.impact.ImplantImpact` computes an implant's TNS
and #DRC from the target's base timing state.  For every successful
report it must return exactly what timing and checking the rebuilt
design returns: ``run_sta(materialize_implant(...)).tns`` and
``check_drc(materialize_implant(...)).count``, compared with float
``==``.  The cases cover generated designs (hypothesis), PRESENT and
AES_1 at tightened clocks, every footprint, sequential and combinational
victims, a clock-less netlist, a hard blockage under a gate, and a
layout stuffed with fillers.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generators import GeneratorParams, generate_design
from repro.drc.checker import check_drc
from repro.errors import LayoutError
from repro.layout.blockage import PlacementBlockage
from repro.layout.layout import Layout
from repro.place.fillers import insert_fillers
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.redteam import AttackCampaign, AttackGrid, LayoutAttackSurface
from repro.redteam.grid import FOOTPRINTS, GRID_PRESETS
from repro.redteam.impact import ImplantImpact
from repro.security.assets import annotate_key_assets
from repro.security.trojan import (
    STRATEGIES,
    AttackReport,
    TrojanSpec,
    attempt_insertion,
    implant_wiring,
    materialize_implant,
)
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import run_sta

from tests.conftest import make_inverter_chain
from tests.redteam.conftest import FAST_SUPERVISION


def impact_of(layout, constraints):
    """The fast path's state for one target."""
    return ImplantImpact(layout, constraints, check_drc(layout).count)


def oracle(layout, report, constraints):
    """(TNS, #DRC) of the rebuilt implanted design."""
    implanted = materialize_implant(layout, report)
    return run_sta(implanted, constraints).tns, check_drc(implanted).count


def assert_matches_oracle(impact, layout, report, constraints):
    fast = impact.measure(implant_wiring(layout, report))
    assert fast == oracle(layout, report, constraints)
    return fast


def first_fit(layout, masters):
    """(master, row, start) for ``masters`` in the free gaps, row by row."""
    lib = layout.netlist.library
    slots = [
        [row, gap.lo, gap.hi]
        for row, gaps in enumerate(layout.free_intervals_per_row())
        for gap in gaps
    ]
    placements = []
    for master in masters:
        width = lib.cell(master).width_sites
        slot = next(s for s in slots if s[2] - s[1] >= width)
        placements.append((master, slot[0], slot[1]))
        slot[1] += width
    return tuple(placements)


def crafted(victim, placements):
    return AttackReport(
        success=True,
        reason="crafted",
        placements=placements,
        victim=victim,
    )


def tightened(design, factor):
    return design.constraints.with_period(
        factor * design.constraints.clock_period
    )


@functools.lru_cache(maxsize=None)
def generated(seed, utilization):
    """A small generated design: layout, scan STA, assets, worst arrival."""
    netlist = generate_design(
        f"gen{seed}",
        nangate45_library(),
        GeneratorParams(
            n_state=8, n_key=4, cone_inputs=2, cone_depth=2,
            n_inputs=4, n_outputs=4, seed=seed,
        ),
    )
    assets = annotate_key_assets(netlist)
    layout = global_place(
        netlist,
        nangate45_like(num_layers=10),
        GlobalPlacementSpec(
            target_utilization=utilization, seed=seed,
            clustered=tuple(assets),
        ),
    )
    probe = run_sta(layout, TimingConstraints(clock_period=1000.0))
    worst = max(e.arrival for e in probe.endpoints)
    sta = run_sta(layout, TimingConstraints(clock_period=1.5 * worst))
    return layout, sta, assets, worst


class TestGeneratedDesigns:
    @given(
        design_seed=st.integers(0, 20),
        utilization=st.sampled_from([0.3, 0.6]),
        footprint=st.sampled_from(sorted(FOOTPRINTS)),
        strategy=st.sampled_from(STRATEGIES),
        thresh_er=st.sampled_from([4, 12, 20]),
        clock=st.sampled_from([0.3, 0.7, 1.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=60)
    def test_delta_equals_oracle(
        self, design_seed, utilization, footprint, strategy, thresh_er,
        clock, seed,
    ):
        layout, sta, assets, worst = generated(design_seed, utilization)
        constraints = TimingConstraints(clock_period=clock * worst)
        report = attempt_insertion(
            layout, sta, assets,
            spec=TrojanSpec(
                gate_masters=FOOTPRINTS[footprint], strategy=strategy
            ),
            thresh_er=thresh_er,
            rng=np.random.default_rng(seed),
        )
        if report.success:
            assert_matches_oracle(
                impact_of(layout, constraints), layout, report, constraints
            )

    def test_every_footprint_succeeds_somewhere(self):
        # The property above is vacuous for a footprint that never seats.
        layout, sta, assets, worst = generated(0, 0.3)
        constraints = TimingConstraints(clock_period=0.3 * worst)
        impact = impact_of(layout, constraints)
        base = run_sta(layout, constraints).tns
        for footprint, masters in sorted(FOOTPRINTS.items()):
            report = attempt_insertion(
                layout, sta, assets,
                spec=TrojanSpec(gate_masters=masters), thresh_er=4,
            )
            assert report.success, footprint
            tns, _ = assert_matches_oracle(
                impact, layout, report, constraints
            )
            assert tns != base, footprint


@pytest.mark.parametrize(
    "design_name, factor",
    [
        ("PRESENT", 0.3),
        pytest.param("AES_1", 0.5, marks=pytest.mark.slow),
    ],
)
def test_benchmark_designs_match_oracle(design_name, factor):
    """Every default-grid spec, three seeds, at a clock that bites."""
    from repro.bench.designs import build_design

    d = build_design(design_name)
    constraints = tightened(d, factor)
    impact = impact_of(d.layout, constraints)
    base = run_sta(d.layout, constraints).tns
    moved = 0
    for point in GRID_PRESETS["default"].points:
        for seed in range(3):
            report = attempt_insertion(
                d.layout, d.sta, d.assets,
                routing=d.routing,
                spec=point.trojan_spec(),
                thresh_er=point.thresh_er,
                rng=np.random.default_rng(seed),
            )
            if report.success:
                tns, _ = assert_matches_oracle(
                    impact, d.layout, report, constraints
                )
                moved += tns != base
    assert moved > 0


class TestCraftedImplants:
    @pytest.mark.parametrize("footprint", sorted(FOOTPRINTS))
    @pytest.mark.parametrize("sequential", [True, False])
    def test_sequential_and_combinational_victims(
        self, footprint, sequential
    ):
        layout, _, assets, worst = generated(1, 0.3)
        victim = next(
            name
            for name in assets
            if layout.netlist.instance(name).is_sequential == sequential
        )
        constraints = TimingConstraints(clock_period=0.3 * worst)
        report = crafted(victim, first_fit(layout, FOOTPRINTS[footprint]))
        assert_matches_oracle(
            impact_of(layout, constraints), layout, report, constraints
        )

    def test_clockless_netlist_clocks_the_dff_from_the_tap(
        self, library, tech
    ):
        netlist = make_inverter_chain(library, length=6)
        layout = Layout(netlist, tech, num_rows=4, sites_per_row=80)
        for i in range(6):
            layout.place(f"inv{i}", i % 4, 4 + 10 * i)
        from repro.place.global_place import assign_port_positions

        assign_port_positions(layout)
        report = crafted("inv2", first_fit(layout, FOOTPRINTS["a2-dff"]))
        wiring = implant_wiring(layout, report)
        dff = wiring.gates[-1]
        assert dict(dff.inputs)["CK"] == wiring.tap_net == "n2"
        probe = run_sta(layout, TimingConstraints(clock_period=1000.0))
        worst = max(e.arrival for e in probe.endpoints)
        constraints = TimingConstraints(clock_period=0.3 * worst)
        assert_matches_oracle(
            impact_of(layout, constraints), layout, report, constraints
        )

    def test_hard_blockage_under_a_gate_counts(self, present_design):
        d = present_design
        layout = d.layout.clone()
        report = crafted("kctl_1", first_fit(layout, FOOTPRINTS["a2"]))
        _, row, start = report.placements[0]
        layout.add_blockage(
            PlacementBlockage(
                "hard", layout.span_rect(row, start, 1), max_density=0.0
            )
        )
        constraints = tightened(d, 0.3)
        _, drc = assert_matches_oracle(
            impact_of(layout, constraints), layout, report, constraints
        )
        assert drc - check_drc(layout).count == 1

    @pytest.mark.parametrize("where", ["occupied", "outside"])
    def test_bad_gate_site_raises_like_place(self, present_design, where):
        d = present_design
        cell = next(iter(d.layout.occupancy[0]))
        row, start = (0, cell.start) if where == "occupied" else (-1, 0)
        report = crafted("kctl_1", (("INV_X1", row, start),))
        impact = impact_of(d.layout, d.constraints)
        with pytest.raises(LayoutError) as fast:
            impact.measure(implant_wiring(d.layout, report))
        with pytest.raises(LayoutError) as slow:
            materialize_implant(d.layout, report)
        assert str(fast.value) == str(slow.value)
        expected = "occupied" if where == "occupied" else "out of range"
        assert expected in str(fast.value)


@pytest.fixture(scope="module")
def filled_present(present_design):
    """PRESENT with every gap stuffed with fillers (private netlist)."""
    layout = present_design.layout.clone()
    layout.netlist = present_design.netlist.copy()
    assert insert_fillers(layout).cells_added > 0
    return layout


class TestFilledLayout:
    def test_implant_deletes_the_fillers_it_covers(
        self, present_design, filled_present
    ):
        d = present_design
        report = attempt_insertion(filled_present, d.sta, d.assets)
        assert report.success
        wiring = implant_wiring(filled_present, report)
        assert wiring.fillers
        implanted = materialize_implant(filled_present, report)
        for name in wiring.fillers:
            assert filled_present.netlist.instance(name).is_filler
            assert not implanted.is_placed(name)
        constraints = tightened(d, 0.3)
        assert_matches_oracle(
            impact_of(filled_present, constraints),
            filled_present, report, constraints,
        )

    def test_campaign_on_a_filled_layout_completes(
        self, present_design, filled_present
    ):
        d = present_design
        constraints = tightened(d, 0.3)
        surface = LayoutAttackSurface(
            "filled", filled_present, d.sta, d.assets,
            constraints=constraints,
        )
        result = AttackCampaign(
            [("filled", surface)],
            AttackGrid.preset("quick"),
            attempts=2,
            seed=0,
            supervision=FAST_SUPERVISION,
        ).run()
        assert result.resilience.task_failures == 0
        base = run_sta(filled_present, constraints).tns
        successes = 0
        points = {p.spec_id: p for p in result.grid.points}
        for row in result.rows():
            point = points[row["spec_id"]]
            for outcome in row["outcomes"]:
                if not outcome["success"]:
                    continue
                successes += 1
                report = attempt_insertion(
                    filled_present, d.sta, d.assets,
                    spec=point.trojan_spec(),
                    thresh_er=point.thresh_er,
                    rng=np.random.default_rng(outcome["seed"]),
                )
                tns, drc = oracle(filled_present, report, constraints)
                assert outcome["tns_delta"] == tns - base
                assert outcome["drc_delta"] == drc - check_drc(
                    filled_present
                ).count
        assert successes > 0
