"""Tests for ``tools/perf_gate.py``: decisions against the real bounds, and checkout set-up."""

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perf_gate  # noqa: E402
from perf_gate import (  # noqa: E402
    LAYER_BOUND,
    LAYER_SHARE,
    TRACED,
    compare,
    workload_record,
)

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]

#: Layer self times (ms/op) summing to 1000 with 0.1% unattributed:
#: the router holds 79.9% of traced wall, placement 15%, DRC 3% and
#: power 2%.
LEDGER = {
    "route.global_route.self_ms": 800.0,
    "core.place_op.self_ms": 150.0,
    "drc.check.self_ms": 30.0,
    "power.analyze.self_ms": 20.0,
    "unattributed_share": 0.001,
}


def record():
    return {
        "rev": "base",
        "workloads": {
            name: {
                "medians": {"ops_per_s": 1.0, "setup_s": 2.0,
                            "peak_rss_mb": 100.0},
                "attempted": 40,
                "failed": 0,
                "ledger": dict(LEDGER),
            }
            for name in WORKLOADS
        },
    }


def failures(head, base=None):
    return [c for c in compare(base or record(), head, BENCHMARK)
            if c.failed]


def scaled(metric, factor, workload="explore_aes1"):
    head = record()
    head["workloads"][workload]["medians"][metric] *= factor
    return head


def test_identical_records_pass():
    base = record()
    assert failures(copy.deepcopy(base), base) == []


def test_every_workload_metric_and_gated_layer_is_checked():
    subjects = {(c.workload, c.subject)
                for c in compare(record(), record(), BENCHMARK)}
    for workload in WORKLOADS:
        for name in METRICS + ["failed operations",
                               "layer route.global_route",
                               "layer core.place_op"]:
            assert (workload, name) in subjects


class TestEndToEnd:
    def test_ops_per_s_21_percent_worse_fails_naming_the_workload(self):
        (fail,) = failures(scaled("ops_per_s", 0.79, "harden_suite"))
        assert (fail.workload, fail.subject) == ("harden_suite",
                                                 "ops_per_s")
        assert "harden_suite: ops_per_s" in str(fail)

    def test_ops_per_s_19_percent_worse_passes(self):
        assert failures(scaled("ops_per_s", 0.81)) == []

    def test_peak_rss_11_percent_higher_fails(self):
        (fail,) = failures(scaled("peak_rss_mb", 1.11))
        assert (fail.workload, fail.subject) == ("explore_aes1",
                                                 "peak_rss_mb")

    def test_peak_rss_9_percent_higher_passes(self):
        assert failures(scaled("peak_rss_mb", 1.09)) == []

    def test_setup_s_24_percent_higher_passes(self):
        assert failures(scaled("setup_s", 1.24)) == []


class TestFailedOperations:
    def test_higher_failure_share_fails(self):
        head = record()
        head["workloads"]["attack_aes1"]["failed"] = 1
        (fail,) = failures(head)
        assert (fail.workload, fail.subject) == ("attack_aes1",
                                                 "failed operations")


class TestLayers:
    def test_gated_layer_slowed_past_bound_fails_naming_the_layer(self):
        head = record()
        head["workloads"]["harden_suite"]["ledger"][
            "core.place_op.self_ms"] = 150.0 * (1.0 + LAYER_BOUND) + 1.0
        (fail,) = failures(head)
        assert (fail.workload, fail.subject) == ("harden_suite",
                                                 "layer core.place_op")

    def test_gated_layer_slowed_within_bound_passes(self):
        head = record()
        head["workloads"]["harden_suite"]["ledger"][
            "core.place_op.self_ms"] = 150.0 * (1.0 + LAYER_BOUND) - 1.0
        assert failures(head) == []

    def test_small_layer_slowed_threefold_passes(self):
        assert 0.03 < LAYER_SHARE
        head = record()
        head["workloads"]["explore_aes1"]["ledger"][
            "drc.check.self_ms"] = 90.0
        assert failures(head) == []

    def test_gated_layer_head_no_longer_calls_fails(self):
        base = record()
        base["workloads"]["harden_suite"]["ledger"][
            "core.place_op.calls"] = 16
        head = record()
        head["workloads"]["harden_suite"]["ledger"].update({
            "core.place_op.calls": 0, "core.place_op.self_ms": 0.0})
        (fail,) = failures(head, base)
        assert (fail.workload, fail.subject) == ("harden_suite",
                                                 "layer core.place_op")
        assert "16 calls -> none in head" in str(fail)

    def test_gated_layer_missing_from_head_fails(self):
        base = record()
        base["workloads"]["explore_aes1"]["ledger"][
            "route.global_route.calls"] = 10
        head = record()
        ledger = head["workloads"]["explore_aes1"]["ledger"]
        del ledger["route.global_route.self_ms"]
        (fail,) = failures(head, base)
        assert (fail.workload, fail.subject) == ("explore_aes1",
                                                 "layer route.global_route")

    def test_gated_layer_head_still_calls_is_timed(self):
        base = record()
        base["workloads"]["harden_suite"]["ledger"][
            "core.place_op.calls"] = 16
        head = copy.deepcopy(base)
        head["workloads"]["harden_suite"]["ledger"][
            "core.place_op.calls"] = 8
        assert failures(head, base) == []
        head["workloads"]["harden_suite"]["ledger"][
            "core.place_op.self_ms"] = 150.0 * (1.0 + LAYER_BOUND) + 1.0
        (fail,) = failures(head, base)
        assert "ms/op" in fail.detail

    def test_layer_base_never_called_is_not_a_vanished_layer(self):
        base = record()
        base["workloads"]["harden_suite"]["ledger"][
            "core.place_op.calls"] = 0
        head = record()
        head["workloads"]["harden_suite"]["ledger"][
            "core.place_op.calls"] = 0
        assert failures(head, base) == []

    def test_small_layer_head_no_longer_calls_passes(self):
        base = record()
        base["workloads"]["explore_aes1"]["ledger"]["drc.check.calls"] = 10
        head = record()
        head["workloads"]["explore_aes1"]["ledger"].update({
            "drc.check.calls": 0, "drc.check.self_ms": 0.0})
        assert failures(head, base) == []

    def test_share_counts_unattributed_time(self):
        # With 30% unattributed, placement's 150 of 1000 ms is 10.5% of
        # wall and stays gated; DRC's 30 is 2.1% and is not.
        base = record()
        base["workloads"]["explore_aes1"]["ledger"][
            "unattributed_share"] = 0.3
        subjects = {c.subject for c in compare(base, record(), BENCHMARK)
                    if c.workload == "explore_aes1"}
        assert "layer core.place_op" in subjects
        assert "layer drc.check" not in subjects


def test_workload_missing_from_head_fails():
    head = record()
    del head["workloads"]["attack_aes1"]
    (fail,) = failures(head)
    assert fail.workload == "attack_aes1"
    assert "missing from head" in str(fail)


def test_workload_record_takes_medians_and_counts_every_run():
    runs = [
        {"attempted": 10, "failed": 0, "ops_per_s": v, "setup_s": 1.0,
         "peak_rss_mb": 80.0}
        for v in (0.5, 0.4, 0.6)
    ]
    traced = [
        {"attempted": 10, "failed": failed, "host.cal_ms": cal, **LEDGER}
        for failed, cal in ((1, 20.0), (0, 22.0), (0, 21.0))
    ]
    rec = workload_record(runs, traced, METRICS)
    assert rec["medians"] == pytest.approx(
        {"ops_per_s": 0.5, "setup_s": 1.0, "peak_rss_mb": 80.0}
    )
    assert (rec["attempted"], rec["failed"]) == (60, 1)
    assert rec["ledgers"] is traced
    assert rec["host.cal_ms"] == 21.0


def traced_record(place_ms, calls=(16, 16, 16)):
    """A record whose harden_suite ran traced once per ``place_ms`` value."""
    rec = record()
    traced = [
        {"attempted": 16, "failed": 0, "host.cal_ms": 20.0, **LEDGER,
         "core.place_op.self_ms": ms, "core.place_op.calls": n}
        for ms, n in zip(place_ms, calls)
    ]
    rec["workloads"]["harden_suite"] = workload_record(
        [{"attempted": 40, "failed": 0, "ops_per_s": 1.0, "setup_s": 2.0,
          "peak_rss_mb": 100.0}], traced, METRICS)
    return rec


class TestTracedMedian:
    """Layers are gated on the median of each side's traced runs."""

    def test_traced_runs_alternate_and_every_ledger_is_kept(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(perf_gate, "precompile", lambda *args: None)

        def run_bench(checkout, command, workload, seconds, trace, label):
            if trace:
                calls.append(str(checkout))
            return {"attempted": 1, "failed": 0, "host.cal_ms": 1.0,
                    **{m: 1.0 for m in METRICS}, **LEDGER}

        monkeypatch.setattr(perf_gate, "run_bench", run_bench)
        records = perf_gate.measure(
            {"base": Path("base"), "head": Path("head")},
            {"base": "b", "head": "h"},
            {**BENCHMARK, "workloads": BENCHMARK["workloads"][:1]},
        )
        assert TRACED == 3
        assert calls == ["base", "head", "head", "base", "base", "head"]
        for record in records.values():
            (rec,) = record["workloads"].values()
            assert len(rec["ledgers"]) == TRACED

    def test_the_median_picks_the_middle_run(self):
        rec = traced_record([100.0, 300.0, 200.0])
        ledger = rec["workloads"]["harden_suite"]["ledger"]
        assert ledger["core.place_op.self_ms"] == 200.0
        assert len(rec["workloads"]["harden_suite"]["ledgers"]) == 3

    def test_one_outlier_run_does_not_fail(self):
        base = traced_record([150.0, 150.0, 150.0])
        head = traced_record([150.0, 150.0 * (1.0 + 2 * LAYER_BOUND), 150.0])
        assert failures(head, base) == []

    def test_a_slowdown_in_every_run_still_fails(self):
        base = traced_record([150.0, 150.0, 150.0])
        slow = 150.0 * (1.0 + LAYER_BOUND) + 1.0
        head = traced_record([slow, slow + 5.0, slow - 0.5])
        (fail,) = failures(head, base)
        assert (fail.workload, fail.subject) == ("harden_suite",
                                                 "layer core.place_op")

    def test_calls_that_differ_across_a_sides_runs_fail(self):
        base = traced_record([150.0, 150.0, 150.0])
        head = traced_record([150.0, 150.0, 150.0], calls=(16, 16, 17))
        (fail,) = failures(head, base)
        assert (fail.workload, fail.subject) == ("harden_suite",
                                                 "layer core.place_op")
        assert "head calls differ across traced runs: [16, 16, 17]" in str(
            fail)


class TestPrecompile:
    def test_writes_bytecode_even_when_the_environment_forbids_it(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "mod.py").write_text("X = 1\n")
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        perf_gate.precompile(tmp_path, [sys.executable, "perfbench/run.py"])
        assert list((tmp_path / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))

    def test_each_checkout_compiles_before_its_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(perf_gate, "precompile",
                            lambda checkout, command: calls.append(
                                ("compile", checkout)))

        def run_bench(checkout, command, workload, seconds, trace, label):
            calls.append(("run", checkout))
            return {"attempted": 1, "failed": 0, "host.cal_ms": 1.0,
                    **{m: 1.0 for m in METRICS}}

        monkeypatch.setattr(perf_gate, "run_bench", run_bench)
        checkouts = {"base": Path("base"), "head": Path("head")}
        perf_gate.measure(checkouts, {"base": "b", "head": "h"},
                          {**BENCHMARK, "workloads": BENCHMARK["workloads"][:1]})
        for checkout in checkouts.values():
            mine = [kind for kind, where in calls if where == checkout]
            assert mine[0] == "compile" and mine.count("compile") == 1
