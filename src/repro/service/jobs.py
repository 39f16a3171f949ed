"""Job specs, records, and the job state machine.

A :class:`JobSpec` is what a client submits (``POST /jobs``); a
:class:`JobRecord` is everything the service tracks about it: the state
history, progress (generation + Pareto-front-so-far), resilience
counters, and the final result payload.  Records serialize to JSON so
the :mod:`repro.service.store` journal can persist them and a restarted
daemon (``repro serve --resume``) can pick unfinished jobs back up.

State machine::

    queued ──▶ running ──▶ done
      │          │  ▲  ╲──▶ failed
      │          ▼  │
      │       retrying        (job-level retry; explorer checkpoint
      │          │             makes the re-run bitwise-continuable)
      ▼          ▼
    cancelled ◀─ cancelling   (DELETE /jobs/<id>; checkpoint handoff)

``interrupted`` is the journal-only state a draining daemon leaves
behind: on restart those jobs are re-enqueued with ``resume=True``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import OptimizationError, ResilienceError, ServiceError
from repro.optimize.nsga2 import NSGA2Config
from repro.resilience.supervisor import check_processes

__all__ = ["JobSpec", "JobRecord", "JobState", "JOB_KINDS"]

JOB_KINDS = ("explore", "harden", "attack")


class JobState:
    """String constants for the job lifecycle (not an Enum so records
    JSON-serialize without a codec and the API surface stays plain)."""

    QUEUED = "queued"
    RUNNING = "running"
    RETRYING = "retrying"
    CANCELLING = "cancelling"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    INTERRUPTED = "interrupted"

    #: States with nothing left to run.
    TERMINAL = (DONE, FAILED, CANCELLED)
    #: Journal states a restarted daemon must re-enqueue.
    RESUMABLE = (QUEUED, RUNNING, RETRYING, CANCELLING, INTERRUPTED)
    ALL = TERMINAL + RESUMABLE


def _now() -> float:
    """Wall-clock job timestamps (service layer only, not core flow).

    The single sanctioned clock read in the service tree: timestamps
    are operator telemetry on the journal envelope and are excluded
    from the bitwise resume/replay comparisons.
    """
    return time.time()  # repro-lint: disable=DET104 journal-envelope telemetry, excluded from replay diffs


@dataclass(frozen=True)
class JobSpec:
    """What a client asked for.

    Attributes:
        kind: ``"explore"`` (NSGA-II front), ``"harden"`` (one fixed
            flow configuration), or ``"attack"`` (red-team campaign).
        design: Benchmark design name (or a name the daemon's guard
            factory understands — ``repro serve --guard fake`` accepts
            anything).
        priority: Larger runs earlier; FIFO within equal priority.
        seed: GA seed (explore) — the differential contract is keyed on
            it.
        population / generations: GA budget for explore jobs.
        processes: Supervised worker processes per evaluation batch
            (0 = inline serial evaluation inside the job slot).
        resume: Continue from this job's checkpoint directory if one
            exists (set automatically for jobs resurrected by
            ``--resume``).
        resume_from: Job id whose checkpoint lineage to continue — the
            cancel handoff: ``DELETE`` a running job, then resubmit the
            same spec with ``resume_from`` set to its id and the new
            job picks up at the cancelled job's last durable generation
            (implies ``resume``).
        config: Optional fixed flow configuration for harden jobs
            (``op_select``/``lda_n``/``lda_n_iter``/``rws_scales``);
            ``None`` hardens with the parameter-space default.  Attack
            jobs reuse it as the flow configuration to harden the
            second campaign target with (``None`` attacks the baseline
            layout only).
        attempts: Seeded insertion attempts per grid spec (attack jobs).
        grid: Named attack-grid preset (attack jobs).
    """

    kind: str = "explore"
    design: str = ""
    priority: int = 0
    seed: int = 0
    population: int = 8
    generations: int = 3
    processes: int = 0
    resume: bool = False
    resume_from: Optional[str] = None
    config: Optional[dict] = None
    attempts: int = 4
    grid: str = "quick"

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ServiceError(
                f"job kind {self.kind!r} not in {JOB_KINDS}"
            )
        if self.resume_from and not self.resume:
            object.__setattr__(self, "resume", True)
        if not self.design:
            raise ServiceError("job spec needs a design name")
        try:
            if self.kind == "explore":
                NSGA2Config(population_size=self.population,
                            generations=self.generations)
            check_processes(self.processes)
        except (OptimizationError, ResilienceError) as exc:
            raise ServiceError(str(exc)) from None
        if self.attempts < 1:
            raise ServiceError("attempts must be >= 1")
        if not self.grid:
            raise ServiceError("job spec needs an attack grid name")

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "priority": self.priority,
            "seed": self.seed,
            "population": self.population,
            "generations": self.generations,
            "processes": self.processes,
            "resume": self.resume,
            "resume_from": self.resume_from,
            "config": dict(self.config) if self.config else None,
            "attempts": self.attempts,
            "grid": self.grid,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ServiceError("job spec must be a JSON object")
        unknown = set(payload) - {
            "kind", "design", "priority", "seed", "population",
            "generations", "processes", "resume", "resume_from",
            "config", "attempts", "grid",
        }
        if unknown:
            raise ServiceError(
                f"unknown job spec fields: {', '.join(sorted(unknown))}"
            )
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            raise ServiceError("job spec 'config' must be a JSON object")
        try:
            return cls(
                kind=str(payload.get("kind", "explore")),
                design=str(payload.get("design", "")),
                priority=int(payload.get("priority", 0)),
                seed=int(payload.get("seed", 0)),
                population=int(payload.get("population", 8)),
                generations=int(payload.get("generations", 3)),
                processes=int(payload.get("processes", 0)),
                resume=bool(payload.get("resume", False)),
                resume_from=(
                    str(payload["resume_from"])
                    if payload.get("resume_from") else None
                ),
                config=config,
                attempts=int(payload.get("attempts", 4)),
                grid=str(payload.get("grid", "quick")),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job spec: {exc}") from exc


@dataclass
class JobRecord:
    """Everything the service knows about one job.

    ``history`` is the full state trail (``[state, timestamp]`` pairs)
    — chaos tests assert the exact transition sequence against it.
    ``progress`` is refreshed at every generation boundary with the
    generation index and the Pareto-front-so-far.  ``result`` is the
    final payload ``GET /jobs/<id>/result`` serves.
    """

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    history: List[Tuple[str, float]] = field(default_factory=list)
    submitted_at: float = field(default_factory=_now)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    progress: Dict[str, Any] = field(default_factory=dict)
    result: Optional[dict] = None
    resilience: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.history:
            self.history.append((self.state, self.submitted_at))

    # -- state machine ------------------------------------------------- #

    def transition(self, state: str) -> None:
        if state not in JobState.ALL:
            raise ServiceError(f"unknown job state {state!r}")
        if self.state in JobState.TERMINAL:
            raise ServiceError(
                f"job {self.job_id} is {self.state}; cannot move to "
                f"{state}"
            )
        stamp = _now()
        self.state = state
        self.history.append((state, stamp))
        if state == JobState.RUNNING and self.started_at is None:
            self.started_at = stamp
        if state in JobState.TERMINAL:
            self.finished_at = stamp

    @property
    def states(self) -> List[str]:
        """The transition trail without timestamps (test-friendly)."""
        return [s for s, _ in self.history]

    @property
    def is_terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    # -- codec ---------------------------------------------------------- #

    def to_payload(self) -> dict:
        return {
            "id": self.job_id,
            "spec": self.spec.to_payload(),
            "state": self.state,
            "history": [[s, t] for s, t in self.history],
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "progress": dict(self.progress),
            "resilience": dict(self.resilience),
            "has_result": self.result is not None,
        }

    def summary(self) -> dict:
        """The ``GET /jobs`` listing row."""
        return {
            "id": self.job_id,
            "kind": self.spec.kind,
            "design": self.spec.design,
            "priority": self.spec.priority,
            "seed": self.spec.seed,
            "state": self.state,
            "generation": self.progress.get("generation"),
        }

    def to_journal(self) -> dict:
        """The persisted form (adds the result so resume can serve it)."""
        body = self.to_payload()
        body["result"] = self.result
        return body

    @classmethod
    def from_journal(cls, payload: dict) -> "JobRecord":
        try:
            record = cls(
                job_id=str(payload["id"]),
                spec=JobSpec.from_payload(payload["spec"]),
                state=str(payload["state"]),
                history=[(str(s), float(t)) for s, t in payload["history"]],
                submitted_at=float(payload["submitted_at"]),
                started_at=payload.get("started_at"),
                finished_at=payload.get("finished_at"),
                attempts=int(payload.get("attempts", 0)),
                error=payload.get("error"),
                progress=dict(payload.get("progress") or {}),
                result=payload.get("result"),
                resilience=dict(payload.get("resilience") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"malformed job journal entry: {exc}"
            ) from exc
        if record.state not in JobState.ALL:
            raise ServiceError(
                f"job {record.job_id} has unknown state "
                f"{record.state!r} in the journal"
            )
        return record
