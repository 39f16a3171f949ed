"""Golden fixtures for the red-team attack payloads.

Four pins:

* the :class:`~repro.security.trojan.AttackReport` payload shape,
* the full canonical campaign-summary JSON of a fake-tier campaign
  (bitwise — this is the document the differential suite compares, so
  any drift in float formatting, key order, or aggregation shows here),
* (slow) the reduced success-rate table of a real PRESENT quick
  campaign, asserting the hardened layout is never easier to attack
  than the baseline on any grid spec,
* (slow) the full summary of the same campaign with implant impact
  measured at a 0.3x clock, which pins real ``tns_delta`` and
  ``drc_delta`` values bitwise.

Refresh intentionally with ``pytest --update-goldens``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.redteam import AttackCampaign, AttackGrid, AttackSpecPoint
from repro.security.trojan import AttackReport
from repro.service.testing import FakeAttackSurface

from tests.golden.test_service_schema import render
from tests.redteam.conftest import FAST_SUPERVISION


def test_attack_report_payload_golden(golden):
    report = AttackReport(
        success=True,
        reason="trojan gates placed and tap corridor routable",
        region_sites=24,
        gates_placed=6,
        tap_length_um=12.5,
        region_distance_um=12.5,
        placements=(("NAND2_X1", 3, 17), ("INV_X1", 3, 20)),
        victim="key_reg_0",
    )
    payload = dataclasses.asdict(report)
    golden(
        "attack_report.json",
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


@pytest.fixture()
def fake_campaign_summary():
    grid = AttackGrid(
        "test",
        (
            AttackSpecPoint("a2-er20-first", "a2"),
            AttackSpecPoint(
                "lean-er12-random", "lean", thresh_er=12,
                strategy="random_fit",
            ),
        ),
    )
    return AttackCampaign(
        [
            ("baseline", FakeAttackSurface("baseline", resistance=0.25)),
            ("hardened", FakeAttackSurface("hardened", resistance=0.6)),
        ],
        grid,
        attempts=3,
        seed=7,
        supervision=FAST_SUPERVISION,
    ).run()


def test_campaign_summary_golden(golden, fake_campaign_summary):
    """Bitwise pin of the canonical summary document."""
    golden("campaign_summary.json", fake_campaign_summary.to_json())


def test_campaign_summary_schema_golden(golden, fake_campaign_summary):
    """Type-skeleton pin: field names and JSON types, values erased."""
    golden(
        "campaign_summary_schema.json",
        render(fake_campaign_summary.summary()),
    )


@pytest.fixture(scope="module")
def present_hardened(present_design):
    """PRESENT after one CS hardening, with its routed STA."""
    from repro.core.flow import GDSIIGuard
    from repro.core.params import FlowConfig
    from repro.timing.sta import run_sta

    d = present_design
    guard = GDSIIGuard(
        d.layout, d.constraints, d.assets, baseline_routing=d.routing
    )
    scales = (1.0,) * d.technology.num_layers
    flow = guard.run(FlowConfig("CS", 2, 1, scales))
    sta = run_sta(flow.layout, d.constraints, routing=flow.routing)
    return flow, sta


def present_quick_campaign(d, hardened, constraints, measure_impact):
    """The quick grid, 2 attempts, seed 0, on baseline and hardened."""
    from repro.redteam import LayoutAttackSurface

    flow, hardened_sta = hardened
    baseline = LayoutAttackSurface(
        "baseline", d.layout, d.sta, d.assets,
        routing=d.routing, constraints=constraints,
        measure_impact=measure_impact,
    )
    target = LayoutAttackSurface(
        "hardened", flow.layout, hardened_sta, d.assets,
        routing=flow.routing, constraints=constraints,
        measure_impact=measure_impact,
    )
    return AttackCampaign(
        [("baseline", baseline), ("hardened", target)],
        AttackGrid.preset("quick"),
        attempts=2,
        seed=0,
        supervision=FAST_SUPERVISION,
    ).run()


@pytest.mark.slow
def test_present_quick_campaign_rates_golden(
    golden, present_design, present_hardened
):
    """Hardened PRESENT resists at least as well as baseline, per spec."""
    d = present_design
    result = present_quick_campaign(
        d, present_hardened, d.constraints, measure_impact=False
    )

    rates = {}
    for row in result.rows():
        rates.setdefault(row["target"], {})[row["spec_id"]] = [
            row["successes"], row["attempts"], row["first_success_attempt"]
        ]
    for spec_id, (successes, _, _) in rates["hardened"].items():
        assert successes <= rates["baseline"][spec_id][0], (
            f"hardened PRESENT is easier to attack than baseline on "
            f"{spec_id}"
        )
    golden(
        "present_attack_rates.json",
        json.dumps(rates, indent=2, sort_keys=True) + "\n",
    )


@pytest.mark.slow
def test_present_attack_impact_golden(
    golden, present_design, present_hardened
):
    """Real implant impact values, bitwise: TNS at a 0.3x clock and DRC.

    At the design's own clock every implant delta is 0.0; at 0.3x the
    implants move TNS, so the pin covers the tap-net patch, the Trojan
    chain and the endpoint order of the impact measurement.
    """
    d = present_design
    tight = d.constraints.with_period(0.3 * d.constraints.clock_period)
    result = present_quick_campaign(
        d, present_hardened, tight, measure_impact=True
    )
    deltas = [
        o["tns_delta"]
        for row in result.rows()
        for o in row["outcomes"]
        if o["success"]
    ]
    assert deltas and all(v is not None for v in deltas)
    assert any(v != 0.0 for v in deltas)
    golden("present_attack_impact.json", result.to_json())
