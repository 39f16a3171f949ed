"""CLI failure paths: every bad input exits non-zero with a one-line
actionable message on stderr and never a traceback.

These run ``python -m repro.cli`` as a subprocess — the honest test that
no exception escapes ``main()`` — and stay cheap because every failure
fires before any flow evaluation runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def assert_clean_failure(proc, *needles):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    for needle in needles:
        assert needle in proc.stderr, proc.stderr


class TestCliFailurePaths:
    def test_bad_design_name(self):
        proc = run_cli("baseline", "NOPE")
        assert_clean_failure(proc, "invalid choice", "NOPE")

    def test_bad_design_name_on_explore(self):
        proc = run_cli("explore", "not-a-design")
        assert_clean_failure(proc, "invalid choice")

    def test_corrupt_checkpoint_on_explore_resume(self, tmp_path):
        ckdir = tmp_path / "run"
        ckdir.mkdir()
        (ckdir / "checkpoint.json").write_text("{definitely not json")
        proc = run_cli(
            "explore", "PRESENT", "--population", "4", "--generations", "1",
            "--checkpoint-dir", str(ckdir), "--resume",
        )
        assert_clean_failure(
            proc, "repro: error:", "corrupt checkpoint", "--resume"
        )
        # one-line message: actionable, not a dump
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_version_incompatible_checkpoint_rejected(self, tmp_path):
        from repro.resilience.checkpoint import CHECKPOINT_SCHEMA_VERSION

        ckdir = tmp_path / "run"
        ckdir.mkdir()
        (ckdir / "checkpoint.json").write_text(json.dumps(
            {"kind": "exploration",
             "schema_version": CHECKPOINT_SCHEMA_VERSION + 1}
        ))
        proc = run_cli(
            "explore", "PRESENT", "--population", "4", "--generations", "1",
            "--checkpoint-dir", str(ckdir), "--resume",
        )
        assert_clean_failure(proc, "repro: error:", "schema version")

    def test_unwritable_checkpoint_dir_on_explore(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file: mkdir under it fails even as root
        proc = run_cli(
            "explore", "PRESENT", "--population", "4", "--generations", "1",
            "--checkpoint-dir", str(blocker / "run"),
        )
        assert_clean_failure(
            proc, "repro: error:", "not writable", "--checkpoint-dir"
        )

    def test_ga_settings_mismatch_on_resume(self, tmp_path, make_explorer):
        """A checkpoint written with different GA settings is refused with
        a message naming the differing knobs."""
        ckdir = tmp_path / "run"
        make_explorer(checkpoint_dir=ckdir).explore()  # FakeGuard, seed 3
        proc = run_cli(
            "explore", "PRESENT", "--population", "4", "--generations", "1",
            "--seed", "5", "--checkpoint-dir", str(ckdir), "--resume",
        )
        assert_clean_failure(
            proc, "repro: error:", "different settings"
        )
