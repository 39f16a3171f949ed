"""The attack surface's region-ranking memo: invisible in every outcome.

A :class:`~repro.redteam.LayoutAttackSurface` ranks its exploitable
regions once per Thresh_ER and reuses the ranking for every attempt.
The memo is a cache of a pure function of the target, so neither the
order attempts run in nor whether the memo is cold or warm may change a
single outcome dict, and a full campaign leaves the design untouched.
"""

from __future__ import annotations

import random

import repro.redteam.surface as surface_module
from repro.redteam import AttackCampaign, AttackGrid, LayoutAttackSurface
from repro.redteam.campaign import derive_attempt_seed
from repro.redteam.surface import AttackAttempt

from tests.redteam.conftest import FAST_SUPERVISION
from tests.redteam.test_trojan_properties import layout_fingerprint


def fresh_surface(d):
    """A new surface (cold memo) measuring impact at a 0.3x clock."""
    return LayoutAttackSurface(
        "baseline", d.layout, d.sta, d.assets,
        routing=d.routing,
        constraints=d.constraints.with_period(
            0.3 * d.constraints.clock_period
        ),
    )


def default_grid_attempts(attempts):
    grid = AttackGrid.preset("default")
    return [
        AttackAttempt(
            "baseline", point, i,
            derive_attempt_seed(5, "baseline", point.spec_id, i),
        )
        for point in grid.points
        for i in range(attempts)
    ]


def test_order_and_memo_state_never_change_outcomes(present_design):
    d = present_design
    tasks = default_grid_attempts(3)
    key = {id(t): (t.point.spec_id, t.attempt) for t in tasks}

    # Every attempt on its own new surface: the memo is always cold.
    oracle = {key[id(t)]: fresh_surface(d).run(t).objectives for t in tasks}
    assert any(o["success"] and o["tns_delta"] for o in oracle.values())

    shuffled = list(tasks)
    random.Random(3).shuffle(shuffled)
    surface = fresh_surface(d)
    filling = {key[id(t)]: surface.run(t).objectives for t in shuffled}
    shuffled.reverse()
    warm = {key[id(t)]: surface.run(t).objectives for t in shuffled}
    assert filling == oracle
    assert warm == oracle


def test_one_ranking_per_thresh_er(present_design, monkeypatch):
    calls = []
    real = surface_module.rank_regions

    def counting(layout, sta, assets, thresh_er, routing):
        calls.append(thresh_er)
        return real(layout, sta, assets, thresh_er, routing)

    monkeypatch.setattr(surface_module, "rank_regions", counting)
    surface = fresh_surface(present_design)
    for task in default_grid_attempts(2):
        surface.run(task)
    assert sorted(calls) == [12, 20, 28]


def test_full_campaign_leaves_the_design_untouched(present_design):
    d = present_design
    before = layout_fingerprint(d.layout)
    result = AttackCampaign(
        [("baseline", fresh_surface(d))],
        AttackGrid.preset("default"),
        attempts=2,
        seed=5,
        supervision=FAST_SUPERVISION,
    ).run()
    assert any(row["successes"] for row in result.rows())
    assert layout_fingerprint(d.layout) == before
