"""Supervised parallel evaluation of flow configurations.

Replaces the bare ``multiprocessing.Pool.map`` the explorer used: a
single hung, killed, or OOM'd worker no longer poisons the whole run.
The supervisor owns a small fleet of forked worker processes, each with
a dedicated task queue (so the parent always knows which task a dead
worker was holding) and a shared, feeder-less result channel that stays
usable when a worker dies mid-flight (:class:`_ResultChannel`).  Per
task it provides:

* a **per-evaluation timeout** — an overdue worker is killed and its
  task re-dispatched;
* **crash isolation** — a worker that dies (signal, ``os._exit``, OOM
  kill) is replaced and its task requeued;
* **bounded retry with backoff** — each failed attempt re-dispatches up
  to ``max_retries`` times, then falls back to one in-process serial
  evaluation (whose exception, if any, is the real error and
  propagates);
* **structured task failures** — an exception inside an evaluation is
  caught in the worker and returned as data together with the partial
  obs metrics delta, which the parent folds into its registry so
  ``repro profile`` tables stay complete under faults;
* **graceful degradation** — after ``max_worker_failures`` pool-level
  failures (deaths + timeouts) the pool is torn down and every remaining
  task runs serially in-process; the degraded flag is sticky across
  batches via the shared :class:`ResilienceState`.

Everything is surfaced through obs counters (``resilience.retries``,
``resilience.worker_deaths``, ``resilience.timeouts``,
``resilience.task_failures``, ``resilience.degraded``) and mirrored on
the plain-int :class:`ResilienceState` for obs-disabled callers.

Evaluations are deterministic functions of their configuration, so a
retried or re-dispatched task reproduces the original result exactly —
supervision never changes objectives, only survival.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError, ResilienceError
from repro.resilience import faults

__all__ = [
    "EvalTask",
    "SupervisionConfig",
    "ResilienceState",
    "TaskSupervisor",
]

# Module-level slot so a forked worker can reach the guard without
# pickling it through every task (fork shares the parent's memory image).
_WORKER_GUARD = None


def _init_worker(guard) -> None:
    global _WORKER_GUARD
    _WORKER_GUARD = guard  # repro-lint: disable=FRK102 per-child guard slot; divergence from the parent is the design


def _evaluate_config(config) -> Tuple[object, tuple, float]:
    """Worker-side evaluation returning picklable scalars only."""
    result = _WORKER_GUARD.run(config)
    violation = result.constraint_violation(
        n_drc=_WORKER_GUARD.n_drc,
        beta_power=_WORKER_GUARD.beta_power,
        base_power=_WORKER_GUARD.baseline_power,
    )
    return (config, result.objectives, violation)


def _evaluate_config_traced(config):
    """Evaluate plus this task's metrics delta (or ``None``).

    Tasks run serially within a worker, so reset-before / snapshot-after
    brackets exactly one evaluation; the parent folds the deltas into its
    registry with :meth:`Metrics.merge_snapshot`.
    """
    if not obs.is_enabled():
        return _evaluate_config(config), None
    obs.get_metrics().reset()
    result = _evaluate_config(config)
    return result, obs.get_metrics().snapshot()


@dataclass(frozen=True)
class EvalTask:
    """One evaluation with its fault-injection coordinate.

    ``index`` orders the result list; ``(generation, individual)`` is the
    deterministic coordinate fault plans target.
    """

    index: int
    config: object
    generation: int = 0
    individual: int = 0


@dataclass(frozen=True)
class SupervisionConfig:
    """Supervision knobs.

    Attributes:
        timeout_s: Per-evaluation wall-clock budget before the worker is
            killed and the task re-dispatched (``None`` disables).
        max_retries: Re-dispatches per task after a failed attempt; once
            exhausted the task runs serially in-process (its exception,
            if any, then propagates — it is the real error).
        backoff_s: Base sleep before a re-dispatch (scaled by attempt).
        max_worker_failures: Pool-level failures (worker deaths +
            timeouts) tolerated before degrading the whole run to serial
            in-process evaluation.
        poll_s: Parent result-queue poll interval (also the resolution
            of timeout detection).
    """

    timeout_s: Optional[float] = 600.0
    max_retries: int = 2
    backoff_s: float = 0.02
    max_worker_failures: int = 4
    poll_s: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ResilienceError(f"evaluation timeout must be > 0 s, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ResilienceError(f"max retries must be >= 0, got {self.max_retries}")


def check_processes(processes: int) -> None:
    """Reject a negative worker-process count (0 means inline serial)."""
    if processes < 0:
        raise ResilienceError(f"processes must be >= 0, got {processes}")


@dataclass
class ResilienceState:
    """Cumulative supervision counters (mirrors the obs counters, but
    always collected so obs-disabled callers can still observe what the
    supervisor absorbed).  Shared across batches by the explorer so the
    degraded flag is sticky for the rest of the run."""

    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    task_failures: int = 0
    degraded: bool = False

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "task_failures": self.task_failures,
            "degraded": self.degraded,
        }


class _ResultChannel:
    """Feeder-less result path: a pipe plus a plain write lock.

    ``multiprocessing.Queue`` flushes ``put`` through a background feeder
    thread, so a worker that dies abruptly (``os._exit``, SIGKILL, OOM)
    can be killed in the window after the feeder wrote a message but
    before it released the queue's shared write lock — stranding the lock
    and silently stalling every sibling worker's results.  Here ``send``
    runs on the calling thread while holding the lock, so a worker dying
    at a fault-injection point (or killed between evaluations) is never
    mid-``put``, and one death can't poison the channel for the pool.
    Only the parent reads, so no read lock is needed; the parent keeps
    the write end open, so ``poll`` never sees EOF when workers die.
    """

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._wlock = ctx.Lock()

    def put(self, item) -> None:
        with self._wlock:
            self._writer.send(item)

    def poll(self, timeout: float) -> bool:
        return self._reader.poll(timeout)

    def get(self):
        return self._reader.recv()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _worker_main(worker_id: int, task_q, result_q, guard) -> None:
    """Worker loop: evaluate tasks until the ``None`` sentinel arrives.

    Every exception is caught and returned as a structured failure with
    the partial obs delta collected up to the failure point — a worker
    never aborts the run from inside an evaluation (only an injected or
    real process death can, and the supervisor recovers from that too).
    """
    _init_worker(guard)
    if obs.is_enabled():
        obs.worker_detach()
    while True:
        item = task_q.get()
        if item is None:
            return
        task, attempt = item
        try:
            with faults.evaluation_scope(
                task.generation, task.individual, attempt, in_worker=True
            ):
                payload, snap = _evaluate_config_traced(task.config)
            result_q.put((worker_id, task.index, True, payload, snap))
        except BaseException as exc:  # repro-lint: disable=DET201 — crash isolation: failure is reported via the result queue
            snap = obs.get_metrics().snapshot() if obs.is_enabled() else None
            result_q.put(
                (
                    worker_id,
                    task.index,
                    False,
                    (type(exc).__name__, str(exc)),
                    snap,
                )
            )


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "task_q", "task", "attempt", "deadline")

    def __init__(self, process, task_q) -> None:
        self.process = process
        self.task_q = task_q
        self.task: Optional[EvalTask] = None
        self.attempt = 0
        self.deadline: Optional[float] = None


class TaskSupervisor:
    """Run a batch of evaluations under supervision (see module doc)."""

    def __init__(
        self,
        guard,
        workers: int = 0,
        config: SupervisionConfig = SupervisionConfig(),
        state: Optional[ResilienceState] = None,
    ) -> None:
        self.guard = guard
        self.workers = workers
        self.config = config
        self.state = state if state is not None else ResilienceState()

    # ------------------------------------------------------------------ #
    # bookkeeping helpers
    # ------------------------------------------------------------------ #

    def _record_retry(self, attempt: int) -> None:
        self.state.retries += 1
        obs.count("resilience.retries")
        if self.config.backoff_s > 0:
            time.sleep(self.config.backoff_s * max(1, attempt))

    def _record_task_failure(self) -> None:
        self.state.task_failures += 1
        obs.count("resilience.task_failures")

    def _record_worker_death(self) -> None:
        self.state.worker_deaths += 1
        obs.count("resilience.worker_deaths")

    def _record_timeout(self) -> None:
        self.state.timeouts += 1
        obs.count("resilience.timeouts")

    def _record_degraded(self) -> None:
        self.state.degraded = True
        obs.count("resilience.degraded")

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def run(self, tasks: Sequence[EvalTask]) -> List[tuple]:
        """Evaluate every task; results ordered like ``tasks``.

        Raises only when a task keeps failing after every retry *and*
        its final in-process evaluation fails too — that exception is
        the evaluator's own and propagates untouched.
        """
        if not tasks:
            return []
        if self.workers <= 1 or self.state.degraded:
            _init_worker(self.guard)
            return [self._evaluate_serial(t, 0) for t in tasks]
        return self._run_supervised(list(tasks))

    # ------------------------------------------------------------------ #
    # serial path (also the degradation / last-retry fallback)
    # ------------------------------------------------------------------ #

    def _evaluate_once(self, task: EvalTask, attempt: int) -> tuple:
        """One in-process evaluation; its exception is the real error."""
        with faults.evaluation_scope(
            task.generation, task.individual, attempt, in_worker=False
        ):
            return _evaluate_config(task.config)

    def _evaluate_serial(self, task: EvalTask, first_attempt: int) -> tuple:
        """In-process evaluation with bounded retry on transient faults.

        Only library errors (:class:`~repro.errors.ReproError`, which
        covers injected faults) are retried; interpreter-level exceptions
        — ``KeyboardInterrupt``, ``SystemExit``, genuine bugs like
        ``TypeError`` — propagate immediately.
        """
        attempt = first_attempt
        while True:
            try:
                with faults.evaluation_scope(
                    task.generation, task.individual, attempt,
                    in_worker=False,
                ):
                    return _evaluate_config(task.config)
            except ReproError:
                self._record_task_failure()
                if attempt - first_attempt >= self.config.max_retries:
                    raise
                obs.count("resilience.swallowed_errors")
                attempt += 1
                self._record_retry(attempt)

    # ------------------------------------------------------------------ #
    # supervised pool path
    # ------------------------------------------------------------------ #

    def _run_supervised(self, tasks: List[EvalTask]) -> List[tuple]:
        ctx = multiprocessing.get_context("fork")
        result_q = _ResultChannel(ctx)
        pending = deque((t, 0) for t in tasks)
        results: Dict[int, tuple] = {}
        attempts: Dict[int, int] = {t.index: 0 for t in tasks}
        handles: Dict[int, _WorkerHandle] = {}
        pool_failures = 0
        next_worker_id = 0

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            task_q = ctx.Queue()
            process = ctx.Process(
                target=_worker_main,
                args=(wid, task_q, result_q, self.guard),
                daemon=True,
            )
            process.start()
            handles[wid] = _WorkerHandle(process, task_q)

        def requeue(task: EvalTask, attempt: int) -> None:
            """Re-dispatch a failed attempt, or flag for serial fallback."""
            attempts[task.index] = attempt + 1
            if attempt >= self.config.max_retries:
                # retries exhausted in the pool: run it in-process once so
                # a genuinely broken evaluation surfaces its real error.
                self._record_retry(attempt + 1)
                _init_worker(self.guard)
                results[task.index] = self._evaluate_once(
                    task, attempt + 1
                )
            else:
                self._record_retry(attempt + 1)
                pending.appendleft((task, attempt + 1))

        for _ in range(min(self.workers, len(tasks))):
            spawn()

        try:
            while len(results) < len(tasks):
                if pool_failures >= self.config.max_worker_failures:
                    self._record_degraded()
                    break
                # dispatch to idle workers
                for handle in handles.values():
                    if handle.task is None and pending:
                        task, attempt = pending.popleft()
                        if task.index in results:
                            continue  # stale duplicate already resolved
                        handle.task = task
                        handle.attempt = attempt
                        handle.deadline = (
                            time.monotonic() + self.config.timeout_s
                            if self.config.timeout_s
                            else None
                        )
                        handle.task_q.put((task, attempt))
                # collect one result (or time out and check liveness)
                if not result_q.poll(self.config.poll_s):
                    pool_failures += self._check_workers(
                        handles, requeue, spawn
                    )
                    continue
                wid, index, ok, payload, snap = result_q.get()
                if snap is not None and obs.is_enabled():
                    obs.get_metrics().merge_snapshot(snap)
                handle = handles.get(wid)
                stale = handle is None or handle.task is None or (
                    handle.task.index != index
                )
                if not stale:
                    task, attempt = handle.task, handle.attempt
                    handle.task = None
                    handle.deadline = None
                if ok:
                    results[index] = payload
                elif not stale:
                    self._record_task_failure()
                    requeue(task, attempt)
                # else: a failure from an already-requeued task (e.g. its
                # worker was killed after posting) — the retry covers it.
        finally:
            self._teardown(handles, result_q)

        if len(results) < len(tasks):
            # degraded mid-batch: finish the stragglers in-process
            _init_worker(self.guard)
            for task in tasks:
                if task.index not in results:
                    results[task.index] = self._evaluate_serial(
                        task, attempts[task.index]
                    )
        return [results[t.index] for t in tasks]

    def _check_workers(self, handles, requeue, spawn) -> int:
        """Reap dead/overdue workers; returns pool-level failure count."""
        now = time.monotonic()
        failures = 0
        for wid, handle in list(handles.items()):
            if not handle.process.is_alive():
                handle.process.join()
                handles.pop(wid)
                self._record_worker_death()
                failures += 1
                if handle.task is not None:
                    requeue(handle.task, handle.attempt)
                spawn()
            elif (
                handle.task is not None
                and handle.deadline is not None
                and now > handle.deadline
            ):
                handle.process.kill()
                handle.process.join()
                handles.pop(wid)
                self._record_timeout()
                failures += 1
                requeue(handle.task, handle.attempt)
                spawn()
        return failures

    @staticmethod
    def _teardown(handles, result_q) -> None:
        for handle in handles.values():
            try:
                handle.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        deadline = time.monotonic() + 2.0
        for handle in handles.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.task_q.close()
            handle.task_q.cancel_join_thread()
        result_q.close()
