"""Chaos tests for the exploration loop: kill/resume and injected worker
faults, asserting bitwise-identical Pareto fronts throughout.

Fast tier drives the millisecond-scale ``FakeGuard`` (its kill at every
boundary sweep runs for both run kinds in ``test_resumable_run.py``);
the ``slow`` markers re-run the acceptance scenario on the real
PRESENT benchmark (pop 10, gen 4, seed 9), sharing one warm guard across
runs — valid because a warm operator memo equals a fresh guard bitwise
(``tests/core/test_flow.py::TestOperatorMemo``), so a warm cache changes
runtime only, never objectives.
"""

from __future__ import annotations

import pytest

from repro.core.flow import GDSIIGuard
from repro.errors import CheckpointError, InjectedInterrupt
from repro.lint import run_lint
from repro.optimize.explorer import ParetoExplorer
from repro.optimize.nsga2 import NSGA2Config
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import SupervisionConfig
from tests.resilience.conftest import front_key


def interrupted_then_resumed(make, run_dir, generation, processes=0):
    """Run until the injected interrupt after ``generation``, then resume."""
    faults.install(FaultPlan(
        [FaultSpec(generation=generation, kind="interrupt")]
    ))
    try:
        with pytest.raises(InjectedInterrupt):
            make(checkpoint_dir=run_dir, processes=processes).explore()
    finally:
        faults.clear()
    resumed = make(
        checkpoint_dir=run_dir, resume=True, processes=processes
    ).explore()
    assert resumed.resumed_from == generation
    return resumed


class TestFakeGuardChaos:
    def test_parallel_resume_matches_serial_oracle(
        self, make_explorer, tmp_path
    ):
        oracle = make_explorer(processes=0).explore()
        resumed = interrupted_then_resumed(
            make_explorer, tmp_path, generation=1, processes=2
        )
        assert front_key(resumed) == front_key(oracle)
        assert resumed.history == oracle.history

    def test_resume_without_checkpoint_starts_fresh(
        self, make_explorer, tmp_path
    ):
        fresh = make_explorer(checkpoint_dir=tmp_path, resume=True).explore()
        oracle = make_explorer().explore()
        assert fresh.resumed_from is None
        assert front_key(fresh) == front_key(oracle)

    def test_resume_with_different_ga_settings_rejected(
        self, make_explorer, tmp_path, fake_space
    ):
        make_explorer(checkpoint_dir=tmp_path).explore()
        other = make_explorer(
            checkpoint_dir=tmp_path,
            resume=True,
            config=NSGA2Config(population_size=8, generations=3, seed=99),
        )
        with pytest.raises(CheckpointError, match="different settings"):
            other.explore()

    def test_completed_run_resumes_to_identical_result(
        self, make_explorer, tmp_path
    ):
        first = make_explorer(checkpoint_dir=tmp_path).explore()
        again = make_explorer(checkpoint_dir=tmp_path, resume=True).explore()
        assert again.resumed_from is not None
        assert front_key(again) == front_key(first)
        assert again.history == first.history
        # nothing re-evaluated: the memo cache came back from the checkpoint
        assert again.evaluations == first.evaluations

    def test_injected_worker_faults_never_change_the_front(
        self, make_explorer
    ):
        oracle = make_explorer().explore()
        plan = FaultPlan([
            FaultSpec(generation=1, individual=0, attempt=0, kind="crash"),
            FaultSpec(generation=2, individual=1, attempt=0, kind="error"),
            FaultSpec(generation=1, individual=2, attempt=0, kind="hang",
                      hang_s=30.0),
        ])
        faults.install(plan)
        try:
            chaotic = make_explorer(
                processes=2,
                supervision=SupervisionConfig(
                    timeout_s=0.5, backoff_s=0.0, poll_s=0.01
                ),
            ).explore()
        finally:
            faults.clear()
        assert front_key(chaotic) == front_key(oracle)
        assert chaotic.history == oracle.history
        counts = plan.counts()
        state = chaotic.resilience.as_dict()
        assert state["worker_deaths"] == counts["crash"]
        assert state["task_failures"] == counts["error"]
        assert state["timeouts"] == counts["hang"]
        assert state["retries"] == sum(counts.values())
        assert not state["degraded"]

    def test_faults_plus_interrupt_resume_still_bitwise(
        self, make_explorer, tmp_path
    ):
        """The combined scenario: a mid-run worker crash *and* a kill at
        the next generation boundary; the resumed run must still land on
        the oracle front."""
        oracle = make_explorer().explore()
        faults.install(FaultPlan([
            FaultSpec(generation=1, individual=1, attempt=0, kind="crash"),
            FaultSpec(generation=1, kind="interrupt"),
        ]))
        try:
            with pytest.raises(InjectedInterrupt):
                make_explorer(checkpoint_dir=tmp_path, processes=2).explore()
        finally:
            faults.clear()
        resumed = make_explorer(
            checkpoint_dir=tmp_path, resume=True, processes=2
        ).explore()
        assert front_key(resumed) == front_key(oracle)
        assert resumed.history == oracle.history


# --------------------------------------------------------------------- #
# acceptance scenario on the real benchmark (issue: PRESENT, pop 10,
# gen 4, seed 9) — slow tier
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def present_guard(present_design):
    d = present_design
    return GDSIIGuard(
        d.layout, d.constraints, d.assets, baseline_routing=d.routing
    )


@pytest.fixture(scope="module")
def present_ga_config():
    return NSGA2Config(population_size=10, generations=4, seed=9)


@pytest.fixture(scope="module")
def present_oracle(present_guard, present_ga_config):
    return ParetoExplorer(
        present_guard, config=present_ga_config
    ).explore()


def make_present_explorer(guard, config, **kwargs):
    kwargs.setdefault(
        "supervision", SupervisionConfig(backoff_s=0.0, poll_s=0.01)
    )
    return ParetoExplorer(guard, config=config, **kwargs)


@pytest.mark.slow
class TestPresentChaos:
    @pytest.mark.parametrize("processes", [0, 2])
    def test_interrupt_after_every_generation_sweep(
        self, present_guard, present_ga_config, present_oracle, run_dir,
        processes,
    ):
        # sweep every checkpoint boundary the run actually reaches (the
        # stall break ends PRESENT seed 9 after generation 3, so there
        # is no generation-4 boundary to interrupt)
        for gen in range(len(present_oracle.history)):
            ckdir = run_dir / f"p{processes}-g{gen}"
            faults.install(FaultPlan(
                [FaultSpec(generation=gen, kind="interrupt")]
            ))
            try:
                with pytest.raises(InjectedInterrupt):
                    make_present_explorer(
                        present_guard, present_ga_config,
                        checkpoint_dir=ckdir, processes=processes,
                    ).explore()
            finally:
                faults.clear()
            resumed = make_present_explorer(
                present_guard, present_ga_config,
                checkpoint_dir=ckdir, resume=True, processes=processes,
            ).explore()
            assert resumed.resumed_from == gen
            assert front_key(resumed) == front_key(present_oracle)
            assert resumed.history == present_oracle.history
            assert resumed.evaluations == present_oracle.evaluations

    def test_injected_crash_and_timeout_complete_with_oracle_front(
        self, present_guard, present_ga_config, present_oracle
    ):
        plan = FaultPlan([
            FaultSpec(generation=1, individual=0, attempt=0, kind="crash"),
            FaultSpec(generation=2, individual=0, attempt=0, kind="hang",
                      hang_s=120.0),
        ])
        faults.install(plan)
        try:
            chaotic = make_present_explorer(
                present_guard, present_ga_config, processes=2,
                supervision=SupervisionConfig(
                    timeout_s=20.0, backoff_s=0.0, poll_s=0.01
                ),
            ).explore()
        finally:
            faults.clear()
        assert front_key(chaotic) == front_key(present_oracle)
        assert chaotic.history == present_oracle.history
        state = chaotic.resilience.as_dict()
        assert state["worker_deaths"] == 1
        assert state["timeouts"] == 1
        assert state["retries"] == 2
        assert not state["degraded"]
        # lint-as-oracle: worker deaths and retries must never corrupt
        # the shared baseline layout the evaluations clone from
        report = run_lint(
            present_guard.baseline, assets=present_guard.assets
        )
        assert report.errors == 0, report.format_text(verbose=True)
