"""Differential determinism tests for attack campaigns.

The contract under test: a campaign summary is a pure function of
``(targets, grid, attempts, seed)`` — worker count, kill/resume
schedule, and injected worker faults must never change a byte of
:meth:`~repro.redteam.campaign.CampaignResult.to_json`.

Fast tier drives the arithmetic ``FakeAttackSurface`` (its kill at
every boundary sweep runs for both run kinds in
``tests/resilience/test_resumable_run.py``); the ``slow`` markers replay
the same scenarios on the real PRESENT benchmark.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedInterrupt
from repro.redteam import AttackCampaign, AttackGrid
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisionConfig

from tests.redteam.conftest import FAST_SUPERVISION


def interrupted_then_resumed(make, run_dir, batch, processes=0):
    """Run until the injected interrupt after ``batch``, then resume."""
    faults.install(
        FaultPlan([FaultSpec(generation=batch, kind="interrupt")])
    )
    try:
        with pytest.raises(InjectedInterrupt):
            make(checkpoint_dir=run_dir, processes=processes).run()
    finally:
        faults.clear()
    resumed = make(
        checkpoint_dir=run_dir, resume=True, processes=processes
    ).run()
    assert resumed.resumed_from == batch
    return resumed


class TestFakeTierDifferential:
    def test_worker_count_never_changes_the_summary(self, make_campaign):
        oracle = make_campaign(processes=0).run().to_json()
        assert make_campaign(processes=1).run().to_json() == oracle
        assert make_campaign(processes=4).run().to_json() == oracle

    def test_kill_resume_across_worker_counts(
        self, make_campaign, tmp_path
    ):
        # Checkpoint under 4 workers, resume serial: identity excludes
        # the worker count, and the bytes must still match.
        oracle = make_campaign(processes=0).run().to_json()
        faults.install(
            FaultPlan([FaultSpec(generation=1, kind="interrupt")])
        )
        try:
            with pytest.raises(InjectedInterrupt):
                make_campaign(
                    checkpoint_dir=tmp_path, processes=4
                ).run()
        finally:
            faults.clear()
        resumed = make_campaign(
            checkpoint_dir=tmp_path, resume=True, processes=0
        ).run()
        assert resumed.resumed_from == 1
        assert resumed.to_json() == oracle

    def test_injected_worker_faults_never_change_the_summary(
        self, make_campaign
    ):
        oracle = make_campaign(processes=0).run().to_json()
        plan = FaultPlan(
            [
                FaultSpec(generation=0, individual=1, attempt=0,
                          kind="crash"),
                FaultSpec(generation=2, individual=0, attempt=0,
                          kind="error"),
                FaultSpec(generation=1, individual=2, attempt=0,
                          kind="hang", hang_s=30.0),
            ]
        )
        faults.install(plan)
        try:
            chaotic = make_campaign(
                processes=2,
                supervision=SupervisionConfig(
                    timeout_s=0.5, backoff_s=0.0, poll_s=0.01
                ),
            ).run()
        finally:
            faults.clear()
        assert chaotic.to_json() == oracle
        counters = chaotic.resilience.as_dict()
        assert counters["retries"] > 0


@pytest.mark.slow
class TestPresentTierDifferential:
    """The acceptance scenario on the real PRESENT benchmark."""

    ATTEMPTS = 2
    SEED = 5

    def make(self, present_surface, checkpoint_dir=None, resume=False,
             processes=0):
        return AttackCampaign(
            [("baseline", present_surface)],
            AttackGrid.preset("ci"),
            attempts=self.ATTEMPTS,
            seed=self.SEED,
            processes=processes,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            supervision=FAST_SUPERVISION,
        )

    def test_worker_count_never_changes_the_summary(self, present_surface):
        oracle = self.make(present_surface).run().to_json()
        parallel = self.make(present_surface, processes=2).run().to_json()
        assert parallel == oracle

    def test_kill_at_every_checkpoint_resumes_bitwise(
        self, present_surface, tmp_path
    ):
        oracle = self.make(present_surface).run().to_json()
        for batch in range(2):  # 1 target x 2 ci specs
            resumed = interrupted_then_resumed(
                lambda **kw: self.make(present_surface, **kw),
                tmp_path / f"b{batch}",
                batch,
            )
            assert resumed.to_json() == oracle
