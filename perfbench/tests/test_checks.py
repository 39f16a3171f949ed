"""Output checks: a clean result passes, a corrupted one counts as failed.

Each workload is shrunk to the small PRESENT design so the suite runs in
seconds; the check code is the benchmark's own, unchanged.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.workloads import AttackAES1, ExploreAES1, HardenSuite, Hooks


class SmallHarden(HardenSuite):
    designs = ("PRESENT",)


class SmallExplore(ExploreAES1):
    design_name = "PRESENT"
    ga_seed = 3
    generations = 1


class SmallAttack(AttackAES1):
    design_name = "PRESENT"
    grid = "ci"
    attempts = 2


def _run(cls, tmp_path, seed=1):
    workload = cls(seed, seconds=1.0, workdir=tmp_path)
    workload.imports()
    workload.build()
    workload.construct()
    return workload, workload.run(Hooks())


def test_harden_check_counts_a_corrupted_layout_as_failed(tmp_path):
    from repro.geometry import Rect
    from repro.layout.blockage import PlacementBlockage

    workload, outcome = _run(SmallHarden, tmp_path)
    assert outcome.ops == 2 and outcome.failed == 0
    assert workload.check(outcome) == 0

    _, result = outcome.state["hardened"][0]
    layout = result.layout
    cell = next(iter(sorted(layout.placements)))
    # a hard blockage over a placed cell is an L003 error
    layout.add_blockage(
        PlacementBlockage("corrupt", layout.cell_rect(cell), 0.0)
    )
    assert isinstance(layout.cell_rect(cell), Rect)
    assert workload.check(outcome) == 1


def test_explore_check_counts_a_wrong_front_objective_as_failed(tmp_path):
    workload, outcome = _run(SmallExplore, tmp_path)
    assert outcome.ops >= 1 and outcome.failed == 0
    assert workload.check(outcome) == 0

    from repro.optimize.nsga2 import fast_non_dominated_sort

    result = outcome.state["results"][0]
    front = fast_non_dominated_sort(result.population)[0]
    victim = front[0]
    i = next(k for k, ind in enumerate(result.population) if ind is victim)
    score, neg_tns = victim.objectives
    # a better score keeps the corrupted individual on rank 0
    result.population[i] = dataclasses.replace(
        victim, objectives=(score - 1.0, neg_tns)
    )
    assert workload.check(outcome) == 1


def test_attack_check_counts_a_hardened_regression_as_failed(tmp_path):
    workload, outcome = _run(SmallAttack, tmp_path)
    assert outcome.ops == 2 * 2 * 2 and outcome.failed == 0
    assert workload.check(outcome) == 0

    result = outcome.state["results"][0]
    spec = result.grid.points[0].spec_id
    for row in result.outcomes["hardened"][spec]:
        row["success"] = True
    for row in result.outcomes["baseline"][spec]:
        row["success"] = False
    # the whole (hardened, spec) batch fails: its rate beats the baseline,
    # and its first success no longer replays to the recorded region
    assert workload.check(outcome) >= result.attempts


def test_attack_check_counts_a_non_replaying_success_as_failed(tmp_path):
    workload, outcome = _run(SmallAttack, tmp_path)
    result = outcome.state["results"][0]
    rows = [
        row
        for by_spec in result.outcomes.values()
        for batch in by_spec.values()
        for row in batch
        if row["success"]
    ]
    if not rows:
        pytest.skip("no successful attempt to corrupt at this seed")
    rows[0]["region_sites"] += 1
    assert workload.check(outcome) == 1
