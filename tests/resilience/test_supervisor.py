"""Supervised task-queue tests: retries, crash isolation, degradation.

These drive :class:`TaskSupervisor` directly with the millisecond-scale
``FakeGuard`` so every recovery path runs in the fast tier.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.params import FlowConfig
from repro.errors import InjectedFault, ResilienceError
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.supervisor import (
    EvalTask,
    ResilienceState,
    SupervisionConfig,
    TaskSupervisor,
    _evaluate_config,
    check_processes,
    _init_worker,
)
from tests.resilience.conftest import FakeGuard, ObsFakeGuard

RWS = [(1.0, 1.0, 1.0), (1.2, 1.0, 1.0), (1.5, 1.0, 1.2), (1.0, 1.5, 1.5),
       (1.2, 1.2, 1.2), (1.5, 1.5, 1.5)]


def make_tasks(n=6, generation=0):
    return [
        EvalTask(
            index=i,
            config=FlowConfig("CS", 2, 1, RWS[i % len(RWS)]),
            generation=generation,
            individual=i,
        )
        for i in range(n)
    ]


def expected_results(tasks):
    _init_worker(FakeGuard())
    return [_evaluate_config(t.config) for t in tasks]


def fast_config(**overrides):
    defaults = dict(timeout_s=5.0, max_retries=2, backoff_s=0.0,
                    max_worker_failures=4, poll_s=0.01)
    defaults.update(overrides)
    return SupervisionConfig(**defaults)


class TestSerialPath:
    def test_empty_batch(self):
        sup = TaskSupervisor(FakeGuard(), workers=0, config=fast_config())
        assert sup.run([]) == []

    def test_results_match_direct_evaluation(self):
        tasks = make_tasks()
        sup = TaskSupervisor(FakeGuard(), workers=0, config=fast_config())
        assert sup.run(tasks) == expected_results(tasks)

    def test_transient_error_is_retried(self):
        faults.install(FaultPlan([FaultSpec(generation=0, kind="error",
                                            individual=2, attempt=0)]))
        tasks = make_tasks()
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=0, config=fast_config(),
                             state=state)
        assert sup.run(tasks) == expected_results(tasks)
        assert state.retries == 1
        assert state.task_failures == 1
        assert not state.degraded

    def test_persistent_error_propagates_after_retries(self):
        specs = [FaultSpec(generation=0, kind="error", individual=0,
                           attempt=a) for a in range(10)]
        faults.install(FaultPlan(specs))
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=0,
                             config=fast_config(max_retries=2), state=state)
        with pytest.raises(InjectedFault):
            sup.run(make_tasks(1))
        assert state.retries == 2  # bounded: max_retries re-dispatches
        assert state.task_failures == 3  # initial try + two retries

    def test_retry_bumps_swallowed_errors_counter(self):
        faults.install(FaultPlan([FaultSpec(generation=0, kind="error",
                                            individual=2, attempt=0)]))
        sup = TaskSupervisor(FakeGuard(), workers=0, config=fast_config())
        obs.enable()
        try:
            sup.run(make_tasks())
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snap["resilience.swallowed_errors"]["value"] == 1

    def test_non_library_exception_is_not_retried(self, monkeypatch):
        # The serial retry loop only swallows ReproError (the library's
        # own failures, injected faults included); a genuine bug like a
        # TypeError must propagate on the first attempt.
        from repro.resilience import supervisor as sup_mod

        def broken(config):
            raise TypeError("genuine bug")

        monkeypatch.setattr(sup_mod, "_evaluate_config", broken)
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=0,
                             config=fast_config(max_retries=5), state=state)
        with pytest.raises(TypeError, match="genuine bug"):
            sup.run(make_tasks(1))
        assert state.retries == 0
        assert state.task_failures == 0


class TestSupervisedPool:
    def test_results_match_serial_in_task_order(self):
        tasks = make_tasks()
        sup = TaskSupervisor(FakeGuard(), workers=2, config=fast_config())
        assert sup.run(tasks) == expected_results(tasks)

    def test_worker_crash_requeues_task(self):
        faults.install(FaultPlan([FaultSpec(generation=0, kind="crash",
                                            individual=3, attempt=0)]))
        tasks = make_tasks()
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=2, config=fast_config(),
                             state=state)
        assert sup.run(tasks) == expected_results(tasks)
        assert state.worker_deaths == 1
        assert state.retries == 1
        assert not state.degraded

    def test_hung_worker_is_killed_and_task_retried(self):
        faults.install(FaultPlan([FaultSpec(generation=0, kind="hang",
                                            individual=1, attempt=0,
                                            hang_s=30.0)]))
        tasks = make_tasks(4)
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=2,
                             config=fast_config(timeout_s=0.5), state=state)
        assert sup.run(tasks) == expected_results(tasks)
        assert state.timeouts == 1
        assert state.retries == 1

    def test_task_exception_returns_structured_failure(self):
        """An exception inside the evaluation is caught in the worker
        (not a worker death) and the task is retried."""
        faults.install(FaultPlan([FaultSpec(generation=0, kind="error",
                                            individual=0, attempt=0)]))
        tasks = make_tasks(3)
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=2, config=fast_config(),
                             state=state)
        assert sup.run(tasks) == expected_results(tasks)
        assert state.task_failures == 1
        assert state.worker_deaths == 0
        assert state.retries == 1

    def test_counters_equal_injected_fault_counts(self):
        plan = FaultPlan([
            FaultSpec(generation=0, kind="crash", individual=0, attempt=0),
            FaultSpec(generation=0, kind="error", individual=2, attempt=0),
            FaultSpec(generation=0, kind="hang", individual=4, attempt=0,
                      hang_s=30.0),
        ])
        faults.install(plan)
        tasks = make_tasks()
        state = ResilienceState()
        sup = TaskSupervisor(FakeGuard(), workers=2,
                             config=fast_config(timeout_s=0.5), state=state)
        assert sup.run(tasks) == expected_results(tasks)
        counts = plan.counts()
        assert state.worker_deaths == counts["crash"]
        assert state.task_failures == counts["error"]
        assert state.timeouts == counts["hang"]
        assert state.retries == sum(counts.values())

    def test_repeated_pool_failures_degrade_to_serial(self):
        faults.install(FaultPlan([
            FaultSpec(generation=0, kind="crash", individual=i, attempt=a)
            for i in range(3) for a in range(2)
        ]))
        tasks = make_tasks()
        state = ResilienceState()
        sup = TaskSupervisor(
            FakeGuard(), workers=2,
            config=fast_config(max_worker_failures=2, max_retries=4),
            state=state,
        )
        assert sup.run(tasks) == expected_results(tasks)
        assert state.degraded
        assert state.worker_deaths >= 2

    def test_degraded_state_is_sticky_across_batches(self):
        state = ResilienceState(degraded=True)
        sup = TaskSupervisor(FakeGuard(), workers=2, config=fast_config(),
                             state=state)
        # degraded → the pool is never spawned; results still correct
        tasks = make_tasks(3)
        assert sup.run(tasks) == expected_results(tasks)

    def test_pool_retries_exhausted_surfaces_real_error(self):
        specs = [FaultSpec(generation=0, kind="crash", individual=0,
                           attempt=a) for a in range(10)]
        faults.install(FaultPlan(specs))
        sup = TaskSupervisor(
            FakeGuard(), workers=2,
            config=fast_config(max_retries=1, max_worker_failures=10),
        )
        # pool attempts exhausted → final in-process evaluation raises the
        # fault itself (in serial mode a "crash" raises InjectedFault)
        with pytest.raises(InjectedFault):
            sup.run(make_tasks(1))


class TestObsFolding:
    def test_worker_metric_deltas_fold_into_parent(self):
        tasks = make_tasks(4)
        obs.enable()
        try:
            sup = TaskSupervisor(ObsFakeGuard(), workers=2,
                                 config=fast_config())
            sup.run(tasks)
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snap["fake.evals"]["value"] == len(tasks)

    def test_partial_deltas_survive_mid_evaluation_failure(self):
        """A flow-error fires *after* the counter bump; the failed
        attempt's partial delta plus the retry must both fold in."""
        faults.install(FaultPlan([FaultSpec(generation=0, kind="flow-error",
                                            individual=1, attempt=0)]))
        tasks = make_tasks(4)
        obs.enable()
        try:
            state = ResilienceState()
            sup = TaskSupervisor(ObsFakeGuard(), workers=2,
                                 config=fast_config(), state=state)
            results = sup.run(tasks)
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert results == expected_results(tasks)
        # 4 successful evaluations + 1 failed attempt that counted first
        assert snap["fake.evals"]["value"] == len(tasks) + 1
        assert snap["resilience.task_failures"]["value"] == 1
        assert snap["resilience.retries"]["value"] == 1
        assert state.task_failures == 1

    def test_obs_counters_mirror_state(self):
        faults.install(FaultPlan([FaultSpec(generation=0, kind="crash",
                                            individual=0, attempt=0)]))
        tasks = make_tasks(3)
        obs.enable()
        try:
            state = ResilienceState()
            sup = TaskSupervisor(FakeGuard(), workers=2,
                                 config=fast_config(), state=state)
            sup.run(tasks)
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snap["resilience.worker_deaths"]["value"] == state.worker_deaths
        assert snap["resilience.retries"]["value"] == state.retries


class TestSupervisionValues:
    @pytest.mark.parametrize("timeout_s", [0.0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout_s):
        with pytest.raises(ResilienceError, match="timeout must be > 0"):
            SupervisionConfig(timeout_s=timeout_s)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ResilienceError, match="max retries must be >= 0"):
            SupervisionConfig(max_retries=-1)

    def test_none_timeout_and_zero_retries_accepted(self):
        config = SupervisionConfig(timeout_s=None, max_retries=0)
        assert config.timeout_s is None and config.max_retries == 0

    def test_negative_processes_rejected(self):
        check_processes(0)
        with pytest.raises(ResilienceError, match="processes must be >= 0"):
            check_processes(-1)
