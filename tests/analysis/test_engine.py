"""Engine-level tests: pragmas, baseline ratchet, rule selection, the
HEAD self-check, and the ``repro analyze`` CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_sources, analyze_tree
from repro.analysis.baseline import (
    BASELINE_SCHEMA_VERSION,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import select_rules
from repro.analysis.model import SourceModule
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
RATCHET = REPO_ROOT / "tools" / "analysis_ratchet.json"

ALL_RULE_IDS = [
    "DET101", "DET102", "DET103", "DET104", "DET201", "DET202", "DET301",
    "EFF101", "EFF102", "EFF103", "ASY101", "ASY102", "FRK101", "FRK102",
]

ASY_DEFECT = SourceModule(
    name="repro.service.fake",
    relpath="src/repro/service/fake.py",
    source="import time\n\nasync def handler():\n    time.sleep(1)\n",
)


class TestSelectRules:
    def test_default_is_the_whole_catalogue(self):
        assert select_rules(None) == sorted(ALL_RULE_IDS)

    def test_family_prefix_expands(self):
        assert select_rules(["ASY"]) == ["ASY101", "ASY102"]
        assert select_rules(["DET"]) == ALL_RULE_IDS[:7]
        assert select_rules(["eff101"]) == ["EFF101"]

    def test_unknown_selector_raises_repro_error(self):
        with pytest.raises(ReproError, match="unknown analysis rule"):
            select_rules(["DET999"])


class TestPragmas:
    def test_pragma_on_the_finding_line_suppresses(self):
        code = (
            "import time\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # repro-lint: disable=ASY101 "
            "documented pause\n"
        )
        report = analyze_sources([ASY_DEFECT._replace(source=code)])
        assert report.findings == []

    def test_pragma_for_another_rule_does_not_suppress(self):
        code = (
            "import time\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # repro-lint: disable=ASY102\n"
        )
        report = analyze_sources([ASY_DEFECT._replace(source=code)])
        assert [f.rule_id for f in report.findings] == ["ASY101"]


class TestBaseline:
    def test_baselined_findings_are_silenced_but_counted(self):
        live = analyze_sources([ASY_DEFECT])
        (finding,) = live.findings
        report = analyze_sources(
            [ASY_DEFECT], baseline_keys=[finding.key()]
        )
        assert report.findings == []
        assert [f.key() for f in report.baselined] == [finding.key()]
        assert report.exit_code("warning") == 0

    def test_stale_key_fails_the_run(self):
        report = analyze_sources(
            [ASY_DEFECT],
            baseline_keys=["EFF101:gone.fn:mutates_arg:x"],
        )
        assert report.stale_baseline == ["EFF101:gone.fn:mutates_arg:x"]
        assert report.exit_code("error") == 1  # ratchet only goes down

    def test_roundtrip_write_and_load(self, tmp_path):
        live = analyze_sources([ASY_DEFECT])
        path = tmp_path / "ratchet.json"
        write_baseline(path, live.findings)
        keys = load_baseline(path)
        assert keys == [live.findings[0].key()]
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == BASELINE_SCHEMA_VERSION

    def test_missing_file_is_empty_and_malformed_raises(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ReproError, match="malformed"):
            load_baseline(bad)

    def test_syntax_error_in_tree_raises(self):
        broken = SourceModule("m", "src/repro/m.py", "def broken(:\n")
        with pytest.raises(ReproError, match="cannot parse"):
            analyze_sources([broken])


class TestHeadSelfCheck:
    """The acceptance criterion: HEAD analyzes clean with an *empty*
    shipped baseline — every finding was fixed or pragma-justified."""

    def test_shipped_baseline_is_empty(self):
        assert load_baseline(RATCHET) == []

    def test_tree_is_clean_at_fail_on_warning(self):
        report = analyze_tree(REPO_ROOT, baseline=RATCHET)
        assert report.findings == [], "\n".join(
            f.format() for f in report.findings
        )
        assert report.stale_baseline == []
        assert report.exit_code("warning") == 0
        # sanity: the run actually covered the tree with every rule
        assert report.modules > 100 and report.functions > 500
        assert report.rules_run == sorted(ALL_RULE_IDS)


class TestCli:
    def run_cli(self, *args):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro", "analyze", *args],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )

    def test_head_gate_exits_zero(self):
        proc = self.run_cli("--fail-on", "warning")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "analysis clean" in proc.stdout

    def test_json_artifact_written(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self.run_cli("--rules", "ASY", "--format", "json",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text())
        assert payload["rules_run"] == ["ASY101", "ASY102"]
        assert payload["counts"]["total"] == 0

    def test_list_rules_prints_catalogue(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ALL_RULE_IDS:
            assert rule_id in proc.stdout

    def test_unknown_rule_is_an_actionable_error(self):
        proc = self.run_cli("--rules", "NOPE")
        assert proc.returncode == 2
        assert "unknown analysis rule" in proc.stderr
