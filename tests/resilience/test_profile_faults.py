"""``repro profile`` under injected faults (the REPRO_FAULTS env hook).

Acceptance check from the issue: the ``resilience.*`` counters printed by
``repro profile`` must equal the injected fault counts, and the stage
table must stay complete (partial worker deltas folded) despite the
chaos.  Runs the real PRESENT benchmark in a subprocess → slow tier.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def counter_value(output: str, name: str) -> int:
    match = re.search(rf"{re.escape(name)}\s*\|\s*(\d+)", output)
    assert match, f"{name} not found in:\n{output}"
    return int(match.group(1))


@pytest.mark.slow
class TestProfileUnderFaults:
    def test_resilience_counters_match_injected_faults(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        # profile explores once, so each attempt-0 spec fires exactly once
        plan_path.write_text(json.dumps({
            "faults": [
                {"generation": 0, "individual": 0, "attempt": 0,
                 "kind": "crash"},
                {"generation": 1, "individual": 0, "attempt": 0,
                 "kind": "error"},
            ]
        }))
        env = dict(os.environ, REPRO_FAULTS=str(plan_path))
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "profile", "PRESENT",
                "--population", "4", "--generations", "1", "--seed", "3",
                "--processes", "2",
                "--trace", str(tmp_path / "trace.jsonl"),
                "--json", str(tmp_path / "metrics.json"),
            ],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        # the stage table is complete despite the faults
        assert "Stage profile — PRESENT" in out
        assert "flow.place_op" in out
        assert "memo hit rate" in out
        # resilience counters equal the injected fault counts
        assert "Resilience counters" in out
        assert counter_value(out, "resilience.worker_deaths") == 1
        assert counter_value(out, "resilience.task_failures") == 1
        assert counter_value(out, "resilience.retries") == 2
        # the archived snapshot carries the same counters
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["metrics"]["resilience.worker_deaths"]["value"] == 1
        assert metrics["metrics"]["resilience.retries"]["value"] == 2
