"""Tests for the command-line interface (fast paths only)."""

import pytest

from repro.cli import _parse_scales, build_parser, main
from repro.errors import FlowError


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["designs"])
        assert args.command == "designs"
        args = parser.parse_args(["harden", "PRESENT", "--op", "LDA"])
        assert args.op == "LDA"
        args = parser.parse_args(["attack", "PRESENT", "--hardened"])
        assert args.hardened
        args = parser.parse_args(
            ["profile", "PRESENT", "--population", "4", "--trace", "t.jsonl"]
        )
        assert args.command == "profile"
        assert args.population == 4
        assert args.trace == "t.jsonl"

    def test_unknown_design_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["baseline", "DES"])

    def test_attack_campaign_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["attack", "PRESENT", "--grid", "ci", "--attempts", "2",
             "--seed", "9", "--processes", "3", "--resume",
             "--gate-hardened"]
        )
        assert args.grid == "ci"
        assert args.attempts == 2
        assert args.seed == 9
        assert args.processes == 3
        assert args.resume
        assert args.gate_hardened
        # legacy single-shot mode: no campaign flag set
        args = parser.parse_args(["attack", "PRESENT"])
        assert args.grid is None and args.attempts is None
        assert args.front is None

    def test_submit_attack_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["submit", "PRESENT", "--kind", "attack",
             "--attempts", "6", "--grid", "default"]
        )
        assert args.kind == "attack"
        assert args.attempts == 6
        assert args.grid == "default"


class TestScales:
    def test_single_value_broadcast(self):
        assert _parse_scales("1.2", 10) == tuple([1.2] * 10)

    def test_full_vector(self):
        raw = ",".join(["1.0"] * 9 + ["1.5"])
        scales = _parse_scales(raw, 10)
        assert scales[-1] == 1.5

    def test_wrong_length_rejected(self):
        with pytest.raises(FlowError, match="1 or 10"):
            _parse_scales("1.0,1.2", 10)

    def test_invalid_value_rejected(self):
        with pytest.raises(FlowError, match="not in"):
            _parse_scales("1.3", 10)

    @pytest.mark.parametrize("rws", ["abc", "1,2", "1.3"])
    def test_bad_rws_exits_2_with_one_line(self, rws, capsys):
        assert main(["harden", "PRESENT", "--rws", rws]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1


class TestCommands:
    def test_baseline_command(self, capsys):
        assert main(["baseline", "PRESENT"]) == 0
        out = capsys.readouterr().out
        assert "tns" in out

    def test_harden_command_with_export(self, tmp_path, capsys):
        rc = main(
            ["harden", "PRESENT", "--op", "CS", "--rws", "1.0",
             "--out", str(tmp_path / "exp")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "security score" in out
        assert (tmp_path / "exp" / "PRESENT.gds").exists()
        assert (tmp_path / "exp" / "PRESENT.def").exists()
        assert (tmp_path / "exp" / "PRESENT.v").exists()

    def test_signoff_command(self, capsys):
        assert main(["signoff", "PRESENT"]) == 0
        out = capsys.readouterr().out
        assert "worst corner" in out

    def test_report_command(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "PRESENT", "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "# Security report" in text
        assert "Exploitable regions" in text
        assert "Trojan insertion attempt" in text

    def test_attack_command_baseline_succeeds(self, capsys):
        rc = main(["attack", "PRESENT"])
        out = capsys.readouterr().out
        assert rc == 1  # attacker breached the unprotected layout
        assert "SUCCESS" in out

    def test_attack_campaign_command(self, tmp_path, capsys):
        import json

        out = tmp_path / "summary.json"
        rc = main(
            ["attack", "PRESENT", "--grid", "ci", "--attempts", "2",
             "--seed", "3", "--json", str(out)]
        )
        assert rc == 0  # campaign mode reports rates; no breach exit code
        printed = capsys.readouterr().out
        assert "Attack campaign — PRESENT" in printed
        assert "baseline" in printed
        payload = json.loads(out.read_text())
        assert payload["kind"] == "redteam-campaign"
        assert payload["targets"] == ["baseline"]
        assert sorted(r["spec_id"] for r in payload["results"]) == [
            "a2-er20-first", "lean-er12-first",
        ]

    def test_attack_zero_attempts_is_rejected(self, capsys):
        rc = main(["attack", "PRESENT", "--grid", "ci", "--attempts", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "at least one attempt" in err

    @pytest.mark.parametrize("content", [
        None,
        "{not json",
        "[1, 2]",
        '[{"genome": "x"}]',
        '[{"op_select": "CS"}]',
        '[{"op_select": "CS", "lda_n": 2, "lda_n_iter": 1, '
        '"rws_scales": [1.0]}]',
    ])
    def test_attack_unreadable_front_exits_2(self, tmp_path, capsys,
                                             content):
        front = tmp_path / "front.json"
        if content is not None:
            front.write_text(content)
        assert main(["attack", "PRESENT", "--front", str(front)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: --front {front}: ")
        assert err.count("\n") == 1

    def test_attack_gate_needs_hardened_target(self, tmp_path):
        with pytest.raises(SystemExit, match="hardened target"):
            main(
                ["attack", "PRESENT", "--grid", "ci", "--attempts", "1",
                 "--gate-hardened"]
            )

    def test_profile_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.jsonl"
        metrics_json = tmp_path / "metrics.json"
        rc = main(
            ["profile", "PRESENT", "--population", "4", "--generations", "1",
             "--seed", "3", "--trace", str(trace), "--json", str(metrics_json)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # the per-stage table with wall time, peak RSS, and call counts
        assert "Stage profile — PRESENT" in out
        assert "flow.place_op" in out
        assert "peak RSS MB" in out
        assert "memo hit rate" in out
        # the JSONL trace exists and nests flow spans under the explorer
        from repro import obs

        events = obs.read_trace(trace)
        begins = [e for e in events if e["ev"] == "begin"]
        assert any(e["name"] == "explorer.explore" for e in begins)
        assert any(
            e["name"] == "flow.run" and e["depth"] >= 2 for e in begins
        )
        import json

        payload = json.loads(metrics_json.read_text())
        assert payload["meta"]["design"] == "PRESENT"
        assert payload["metrics"]["flow.run.calls"]["value"] >= 1


def _one_error_line(capsys, fragment: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and fragment in err
    assert err.count("\n") == 1


class TestSupervisionArgs:
    EXPLORE = ["explore", "PRESENT", "--population", "4", "--generations", "1"]

    @pytest.mark.parametrize(
        "extra, fragment",
        [
            (["--eval-timeout", "-1"], "timeout must be > 0"),
            (["--eval-timeout", "0"], "timeout must be > 0"),
            (["--max-retries", "-1"], "max retries must be >= 0"),
            (["--processes", "-1"], "processes must be >= 0"),
        ],
    )
    def test_explore_rejects_bad_supervision(self, extra, fragment, capsys):
        assert main(self.EXPLORE + extra) == 2
        _one_error_line(capsys, fragment)

    def test_attack_rejects_negative_processes(self, capsys):
        assert main(["attack", "PRESENT", "--processes", "-1"]) == 2
        _one_error_line(capsys, "processes must be >= 0")


class TestServeBind:
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_out_of_range_port(self, port, tmp_path, capsys):
        argv = ["serve", "--port", port, "--state-dir", str(tmp_path)]
        assert main(argv) == 2
        _one_error_line(capsys, f"cannot listen on 127.0.0.1:{port}")

    def test_port_in_use(self, tmp_path, capsys):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = str(taken.getsockname()[1])
            argv = ["serve", "--port", port, "--state-dir", str(tmp_path)]
            assert main(argv) == 2
        _one_error_line(capsys, "address already in use")
