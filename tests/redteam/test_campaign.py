"""Engine-behavior tests for :mod:`repro.redteam.campaign`."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import (
    CheckpointError,
    ExplorationCancelled,
    SecurityError,
)
from repro.redteam import (
    AttackCampaign,
    AttackGrid,
    AttackSpecPoint,
    CampaignCheckpoint,
    derive_attempt_seed,
)
from repro.resilience.checkpoint import CheckpointManager
from repro.service.testing import FakeAttackSurface


class TestSeedDerivation:
    def test_pinned_value(self):
        # sha256-derived: a change here silently invalidates every
        # recorded campaign, so the constant is pinned.
        assert derive_attempt_seed(0, "baseline", "a2-er20-first", 0) == (
            15783693253200928713
        )

    def test_every_coordinate_matters(self):
        base = derive_attempt_seed(1, "t", "s", 2)
        assert derive_attempt_seed(2, "t", "s", 2) != base
        assert derive_attempt_seed(1, "u", "s", 2) != base
        assert derive_attempt_seed(1, "t", "x", 2) != base
        assert derive_attempt_seed(1, "t", "s", 3) != base


class TestGrid:
    def test_presets_roundtrip(self):
        for name in ("ci", "quick", "default"):
            grid = AttackGrid.preset(name)
            assert AttackGrid.from_payload(grid.to_payload()) == grid

    def test_unknown_preset_rejected(self):
        with pytest.raises(SecurityError, match="unknown attack grid"):
            AttackGrid.preset("nope")

    def test_duplicate_spec_ids_rejected(self):
        point = AttackSpecPoint("dup", "a2")
        with pytest.raises(SecurityError, match="duplicate spec ids"):
            AttackGrid("bad", (point, point))

    def test_unknown_footprint_rejected(self):
        with pytest.raises(SecurityError, match="unknown footprint"):
            AttackSpecPoint("x", "not-a-footprint")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SecurityError, match="unknown strategy"):
            AttackSpecPoint("x", "a2", strategy="diagonal")


class TestCampaignValidation:
    def test_needs_targets(self, fake_grid):
        with pytest.raises(SecurityError, match="at least one target"):
            AttackCampaign([], fake_grid)

    def test_needs_attempts(self, fake_targets, fake_grid):
        with pytest.raises(SecurityError, match="at least one attempt"):
            AttackCampaign(fake_targets, fake_grid, attempts=0)

    def test_duplicate_targets_rejected(self, fake_grid):
        targets = [
            ("same", FakeAttackSurface("same")),
            ("same", FakeAttackSurface("same")),
        ]
        with pytest.raises(SecurityError, match="duplicate target ids"):
            AttackCampaign(targets, fake_grid)


class TestCampaignRun:
    def test_summary_shape_and_order(self, make_campaign, fake_grid):
        result = make_campaign().run()
        summary = result.summary()
        assert summary["kind"] == "redteam-campaign"
        assert summary["schema_version"] == 1
        assert summary["targets"] == ["baseline", "hardened"]
        # canonical order: targets outer, grid points inner
        assert [(r["target"], r["spec_id"]) for r in summary["results"]] == [
            (t, p.spec_id)
            for t in ("baseline", "hardened")
            for p in fake_grid.points
        ]
        for row in summary["results"]:
            assert row["attempts"] == 5
            assert len(row["outcomes"]) == 5
            assert row["success_rate"] == row["successes"] / 5
            if row["successes"]:
                assert row["first_success_attempt"] == min(
                    o["attempt"] for o in row["outcomes"] if o["success"]
                )
            else:
                assert row["first_success_attempt"] is None

    def test_summary_survives_json_roundtrip(self, make_campaign):
        summary = make_campaign().run().summary()
        assert json.loads(json.dumps(summary)) == summary

    def test_seed_changes_outcomes(self, make_campaign):
        a = make_campaign(seed=1).run().to_json()
        b = make_campaign(seed=2).run().to_json()
        assert a != b

    def test_success_rate_accessor(self, make_campaign):
        result = make_campaign().run()
        row = result.rows()[0]
        assert result.success_rate(row["target"], row["spec_id"]) == (
            row["success_rate"]
        )

    def test_on_batch_progress(self, make_campaign, fake_grid):
        seen = []
        make_campaign(progress=seen.append).run()
        # "generation" counts completed batches: a finished run reads 4/4
        assert [e["generation"] for e in seen] == [1, 2, 3, 4]
        assert all(e["generations"] == 4 for e in seen)
        assert (seen[0]["target"], seen[0]["spec_id"]) == (
            "baseline", "a2-er20-first"
        )
        assert (seen[-1]["target"], seen[-1]["spec_id"]) == (
            "hardened", "lean-er12-random"
        )
        assert all(e["attempts"] == 5 for e in seen)

    def test_cancel_at_batch_boundary(self, make_campaign, tmp_path):
        fired = []

        def stop():
            fired.append(True)
            return len(fired) >= 2  # cancel after the second batch

        with pytest.raises(ExplorationCancelled) as exc:
            make_campaign(checkpoint_dir=tmp_path, should_stop=stop).run()
        assert exc.value.generation == 1
        # the cancelled batches are durable: resume completes bitwise
        # identically to an uninterrupted campaign
        oracle = make_campaign().run().to_json()
        resumed = make_campaign(checkpoint_dir=tmp_path, resume=True).run()
        assert resumed.resumed_from == 1
        assert resumed.to_json() == oracle

    def test_obs_counters(self, make_campaign):
        obs.enable()
        try:
            make_campaign().run()
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snapshot["redteam.batches"]["value"] == 4
        assert snapshot["redteam.attempts"]["value"] == 20
        assert "redteam.checkpoints" not in snapshot  # no checkpoint dir
        assert 0 < snapshot["redteam.successes"]["value"] <= 20


class TestCheckpointing:
    def test_resume_without_checkpoint_starts_fresh(
        self, make_campaign, tmp_path
    ):
        fresh = make_campaign(checkpoint_dir=tmp_path, resume=True).run()
        assert fresh.resumed_from is None
        assert fresh.to_json() == make_campaign().run().to_json()

    def test_completed_run_resumes_to_identical_summary(
        self, make_campaign, tmp_path
    ):
        first = make_campaign(checkpoint_dir=tmp_path).run()
        again = make_campaign(checkpoint_dir=tmp_path, resume=True).run()
        assert again.resumed_from == 3  # last batch: nothing re-ran
        assert again.to_json() == first.to_json()

    def test_identity_mismatch_rejected(self, make_campaign, tmp_path):
        make_campaign(checkpoint_dir=tmp_path).run()
        with pytest.raises(CheckpointError, match="differing: seed"):
            make_campaign(
                checkpoint_dir=tmp_path, resume=True, seed=99
            ).run()

    def test_worker_count_not_part_of_identity(
        self, make_campaign, tmp_path
    ):
        make_campaign(checkpoint_dir=tmp_path, processes=2).run()
        resumed = make_campaign(
            checkpoint_dir=tmp_path, resume=True, processes=0
        ).run()
        assert resumed.resumed_from == 3

    def test_foreign_checkpoint_kind_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_payload({"kind": "exploration", "generation": 1})
        with pytest.raises(CheckpointError, match="not a red-team"):
            CampaignCheckpoint.load(manager)

    def test_malformed_checkpoint_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_payload({"kind": "redteam", "batch": "x"})
        with pytest.raises(CheckpointError, match="malformed campaign"):
            CampaignCheckpoint.load(manager)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p["resilience"].update(retries="x"),
            lambda p: p.update(batch=0, outcomes={}),
            lambda p: p["outcomes"]["baseline"]["a2-er20-first"][0].pop(
                "success"
            ),
        ],
        ids=[
            "resilience-retries", "batch-without-outcomes",
            "row-without-success",
        ],
    )
    def test_malformed_field_fails_resume(
        self, make_campaign, tmp_path, corrupt
    ):
        """A bad field fails ``--resume`` with a typed error, never a raw
        exception from the restore or the summary."""
        make_campaign(checkpoint_dir=tmp_path).run()
        path = CheckpointManager(tmp_path).path
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed campaign"):
            make_campaign(checkpoint_dir=tmp_path, resume=True).run().to_json()

    def test_checkpoint_payload_roundtrip(self, make_campaign, tmp_path):
        make_campaign(checkpoint_dir=tmp_path).run()
        ckpt = CampaignCheckpoint.load(CheckpointManager(tmp_path))
        assert ckpt is not None
        assert ckpt.batch == 3
        again = CampaignCheckpoint.from_payload(ckpt.to_payload())
        assert again.to_payload() == ckpt.to_payload()
