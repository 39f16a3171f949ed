"""The asyncio job orchestrator behind ``repro serve``.

One :class:`Scheduler` owns the bounded priority queue, the worker
slots, the daemon-wide shared evaluation cache, and the on-disk job
journal.  All of its state is mutated **only on the event loop** — job
execution happens on worker threads (``asyncio.to_thread``), but those
threads receive plain values and return plain values; progress updates
hop back onto the loop via ``call_soon_threadsafe``.

Lifecycle guarantees:

* **Backpressure** — submissions beyond ``queue_limit`` raise
  :class:`~repro.errors.JobQueueFull` (HTTP 429 + ``Retry-After``).
* **Retry** — a job whose run raises a library error transitions to
  ``retrying`` and re-runs with ``resume=True`` (its explorer
  checkpoint makes the continuation bitwise-exact); after
  ``max_job_retries`` job-level attempts it lands in ``failed`` with
  the error message.
* **Cancel** — ``DELETE /jobs/<id>``: a queued job is dropped
  immediately; a running one gets its stop event set and finishes as
  ``cancelled`` at the next generation boundary, checkpoint preserved
  for a later resumed submission.
* **Drain** — SIGTERM stops dispatching, fires every running job's stop
  event, waits for the boundary checkpoints, and journals the in-flight
  jobs as ``interrupted``; a restart with ``--resume`` re-enqueues all
  unfinished jobs (``resume=True``) and finishes them bitwise
  identically to an uninterrupted daemon.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro import obs
from repro.errors import (
    ExplorationCancelled,
    JobQueueFull,
    ReproError,
    ServiceError,
    UnknownJob,
)
from repro.resilience.supervisor import SupervisionConfig
from repro.service.cache import SharedEvalCache
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.queue import BoundedPriorityQueue
from repro.service.runner import (
    run_attack_job,
    run_explore_job,
    run_harden_job,
)
from repro.service.store import JobStore

__all__ = ["Scheduler", "SchedulerConfig"]

logger = logging.getLogger("repro.service")


@dataclass(frozen=True)
class SchedulerConfig:
    """Orchestration knobs.

    Attributes:
        workers: Concurrent job slots (each slot runs one job's whole
            exploration; per-evaluation parallelism inside a job comes
            from the job spec's ``processes``).
        queue_limit: Pending-job bound before 429 backpressure.
        retry_after_s: ``Retry-After`` hint handed to rejected clients.
        max_job_retries: Job-level re-runs (resume from checkpoint)
            before a failing job is marked ``failed``.
        supervision: Per-evaluation supervision knobs forwarded to each
            job's explorer (``None`` = production defaults).
    """

    workers: int = 2
    queue_limit: int = 64
    retry_after_s: float = 1.0
    max_job_retries: int = 1
    supervision: Optional[SupervisionConfig] = None


@dataclass
class _RunningJob:
    """Loop-side bookkeeping for one in-flight job."""

    record: JobRecord
    stop_event: threading.Event = field(default_factory=threading.Event)
    task: Optional["asyncio.Task[None]"] = None
    drain_stop: bool = False


class Scheduler:
    """Priority-queue job orchestration over a bounded slot pool."""

    def __init__(
        self,
        store: JobStore,
        guard_factory: Any,
        config: SchedulerConfig = SchedulerConfig(),
    ) -> None:
        self.store = store
        self.guard_factory = guard_factory
        self.config = config
        self.queue = BoundedPriorityQueue(config.queue_limit)
        self.shared_cache = SharedEvalCache()
        self.records: Dict[str, JobRecord] = {}
        self._running: Dict[str, _RunningJob] = {}
        self._next_id = 1
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Journal writes from coroutines go through this FIFO lock so
        # snapshots of one record land in the order they were taken.
        self._journal_lock = asyncio.Lock()
        self._save_tasks: Set["asyncio.Task[None]"] = set()

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #

    def _new_job_id(self) -> str:
        job_id = f"job-{self._next_id:06d}"
        self._next_id += 1
        return job_id

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate, journal, and enqueue one job (raises on rejects)."""
        if self.draining:
            raise ServiceError("service is draining; resubmit after restart")
        if hasattr(self.guard_factory, "validate"):
            self.guard_factory.validate(spec.design)
        if spec.resume_from is not None:
            self._check_handoff(spec, spec.resume_from)
        if self.queue.full:
            obs.count("service.jobs_rejected")
            raise JobQueueFull(
                f"job queue is full ({self.queue.limit} pending); "
                f"retry later"
            )
        record = JobRecord(job_id=self._new_job_id(), spec=spec)
        self.records[record.job_id] = record
        self.queue.push(record)
        self.store.save(record)
        obs.count("service.jobs_submitted")
        self._refresh_gauges()
        self._idle.clear()
        self._maybe_dispatch()
        return record

    def _check_handoff(self, spec: JobSpec, source_id: str) -> None:
        """Reject a ``resume_from`` that cannot own the lineage.

        The continuation writes into the source's checkpoint directory,
        so the source must be finished, of the same kind (checkpoint
        payloads are kind-specific), and not already being continued by
        another live job — two writers of one checkpoint corrupt it.
        """
        source = self.records.get(source_id)
        if source is None or not (
            self.store.checkpoint_dir(source_id).exists()
        ):
            raise ServiceError(
                f"resume_from job {source_id!r} has no checkpoint "
                f"directory in this daemon's state dir"
            )
        if not source.is_terminal:
            raise ServiceError(
                f"resume_from job {source_id} is still {source.state}; "
                f"cancel it and wait until it is cancelled"
            )
        if source.spec.kind != spec.kind:
            raise ServiceError(
                f"resume_from job {source_id} is of kind "
                f"{source.spec.kind!r}, not {spec.kind!r}; a checkpoint "
                f"only continues a job of its own kind"
            )
        for other in self.records.values():
            if (
                not other.is_terminal
                and (other.spec.resume_from or other.job_id) == source_id
            ):
                raise ServiceError(
                    f"job {other.job_id} already continues job "
                    f"{source_id}'s checkpoint; wait for it or cancel it"
                )

    def restore(self) -> List[JobRecord]:
        """Reload the journal; re-enqueue every unfinished job.

        Jobs that were queued, running, retrying, cancelling, or
        interrupted when the previous daemon died are resubmitted with
        ``resume=True`` so their checkpoints continue bitwise; terminal
        jobs stay queryable (including their results).
        """
        resurrected = []
        for record in self.store.load_all():
            self.records[record.job_id] = record
            seq = int(record.job_id.rsplit("-", 1)[1])
            self._next_id = max(self._next_id, seq + 1)
            if record.state in JobState.TERMINAL:
                continue
            if record.state != JobState.QUEUED:
                record.transition(JobState.QUEUED)
            record.spec = dataclasses.replace(record.spec, resume=True)
            self.queue.push(record)
            self.store.save(record)
            resurrected.append(record)
            obs.count("service.jobs_resumed")
        if resurrected:
            self._idle.clear()
            self._maybe_dispatch()
        self._refresh_gauges()
        return resurrected

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        return record

    def list_jobs(self) -> List[JobRecord]:
        return [self.records[k] for k in sorted(self.records)]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in JobState.ALL}
        for record in self.records.values():
            out[record.state] += 1
        return out

    async def wait_idle(self) -> None:
        """Block until no job is queued or running (tests, drain)."""
        await self._idle.wait()

    # ------------------------------------------------------------------ #
    # cancellation / drain
    # ------------------------------------------------------------------ #

    def cancel(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if record.is_terminal:
            raise ServiceError(
                f"job {job_id} is already {record.state}"
            )
        running = self._running.get(job_id)
        if running is None:
            # still queued: drop it before a slot picks it up
            self.queue.drop(job_id)
            record.transition(JobState.CANCELLED)
            self.store.save(record)
            obs.count("service.jobs_cancelled")
            self._refresh_gauges()
            self._check_idle()
        else:
            record.transition(JobState.CANCELLING)
            self.store.save(record)
            running.stop_event.set()
        return record

    async def drain(self) -> None:
        """Graceful SIGTERM path: checkpoint and journal everything."""
        self.draining = True
        obs.count("service.drains")
        for running in self._running.values():
            running.drain_stop = True
            running.stop_event.set()
        tasks = [
            r.task for r in self._running.values() if r.task is not None
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._save_tasks:
            # Outstanding progress snapshots must be durable before the
            # daemon reports itself drained.
            await asyncio.gather(
                *list(self._save_tasks), return_exceptions=True
            )
        self._refresh_gauges()
        logger.info(
            "drained: %d jobs journaled for resume",
            sum(
                1 for r in self.records.values()
                if r.state in JobState.RESUMABLE
            ),
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _maybe_dispatch(self) -> None:
        while (
            not self.draining
            and len(self._running) < self.config.workers
        ):
            record = self.queue.pop()
            if record is None:
                break
            running = _RunningJob(record=record)
            self._running[record.job_id] = running
            running.task = asyncio.get_running_loop().create_task(
                self._run_job(running)
            )
        self._refresh_gauges()

    async def _save_off_loop(self, record: JobRecord) -> None:
        """Journal ``record`` without stalling the event loop.

        The snapshot is serialized here on the loop (no worker thread
        ever reads the live record), then written + fsynced on a thread
        behind the journal lock so concurrent snapshots of one record
        land in the order they were taken.
        """
        text = self.store.snapshot(record)
        async with self._journal_lock:
            await asyncio.to_thread(
                self.store.write_snapshot, record.job_id, text
            )

    def _spawn_save(self, record: JobRecord) -> None:
        """Fire-and-forget journal write from a loop callback."""
        task = asyncio.get_running_loop().create_task(
            self._save_off_loop(record)
        )
        self._save_tasks.add(task)
        task.add_done_callback(self._reap_save)

    def _reap_save(self, task: "asyncio.Task[None]") -> None:
        self._save_tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            logger.warning(
                "progress journal write failed: %s", task.exception()
            )

    async def _run_job(self, running: _RunningJob) -> None:
        record = running.record
        loop = asyncio.get_running_loop()

        def progress(update: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._on_progress, record, update)

        record.transition(JobState.RUNNING)
        await self._save_off_loop(record)
        while True:
            record.attempts += 1
            spec = record.spec
            try:
                result = await asyncio.to_thread(
                    self._execute, spec, record.job_id,
                    running.stop_event, progress,
                )
            except ExplorationCancelled as exc:
                if running.drain_stop:
                    record.transition(JobState.INTERRUPTED)
                    obs.count("service.jobs_interrupted")
                else:
                    record.transition(JobState.CANCELLED)
                    obs.count("service.jobs_cancelled")
                record.progress["cancelled_after_generation"] = (
                    exc.generation
                )
                break
            except ReproError as exc:
                if record.attempts <= self.config.max_job_retries:
                    logger.warning(
                        "job %s attempt %d failed (%s); retrying from "
                        "checkpoint", record.job_id, record.attempts, exc,
                    )
                    record.transition(JobState.RETRYING)
                    await self._save_off_loop(record)
                    obs.count("service.jobs_retried")
                    # the checkpoint written before the failure makes
                    # the re-run a bitwise continuation
                    record.spec = dataclasses.replace(spec, resume=True)
                    record.transition(JobState.RUNNING)
                    await self._save_off_loop(record)
                    continue
                record.error = f"{type(exc).__name__}: {exc}"
                record.transition(JobState.FAILED)
                obs.count("service.jobs_failed")
                break
            else:
                record.result = result
                record.resilience = dict(result.get("resilience") or {})
                record.transition(JobState.DONE)
                obs.count("service.jobs_done")
                break
        await self._save_off_loop(record)
        self._running.pop(record.job_id, None)
        self._refresh_gauges()
        self._maybe_dispatch()
        self._check_idle()

    def _execute(
        self,
        spec: JobSpec,
        job_id: str,
        stop_event: threading.Event,
        progress: Callable[[Dict[str, Any]], None],
    ) -> dict:
        """Thread-side: build the guard and run the job (no loop state).

        Each execution gets a **fresh guard** — concurrent jobs on the
        same design must not share mutable evaluator state (the operator
        memo), or the differential bitwise contract would hinge on
        interleaving.  Cross-job reuse happens only through the
        immutable shared evaluation cache.
        """
        # Cancel handoff: a resume_from job continues the *referenced*
        # job's checkpoint lineage instead of starting its own.
        checkpoint_owner = spec.resume_from or job_id
        if spec.kind == "attack":
            targets = self.guard_factory.build_attack(spec)
            with obs.timed(
                "service.job", kind=spec.kind, design=spec.design
            ):
                return run_attack_job(
                    spec,
                    targets,
                    checkpoint_dir=self.store.checkpoint_dir(
                        checkpoint_owner
                    ),
                    stop_event=stop_event,
                    progress=progress,
                    supervision=self.config.supervision,
                )
        handle = self.guard_factory.build(spec.design)
        with obs.timed("service.job", kind=spec.kind, design=spec.design):
            if spec.kind == "harden":
                return run_harden_job(spec, handle)
            return run_explore_job(
                spec,
                handle,
                checkpoint_dir=self.store.checkpoint_dir(checkpoint_owner),
                shared_cache=self.shared_cache,
                stop_event=stop_event,
                progress=progress,
                supervision=self.config.supervision,
            )

    # ------------------------------------------------------------------ #
    # loop-side bookkeeping
    # ------------------------------------------------------------------ #

    def _on_progress(self, record: JobRecord, update: Dict[str, Any]) -> None:
        record.progress.update(update)
        self._spawn_save(record)

    def _check_idle(self) -> None:
        if not self._running and len(self.queue) == 0:
            self._idle.set()

    def _refresh_gauges(self) -> None:
        if not obs.is_enabled():
            return
        obs.gauge_set("service.queue_depth", len(self.queue))
        obs.gauge_set("service.running_jobs", len(self._running))
        cache = self.shared_cache.stats()
        obs.gauge_set("service.cache_entries", cache["entries"])
        obs.gauge_set("service.cache_seeded", cache["seeded"])
        obs.gauge_set("service.cache_harvested", cache["harvested"])
