"""Deterministic fault injection for chaos testing the exploration loop.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each firing
at one exact ``(generation, individual, attempt)`` coordinate of the
evaluation schedule (``individual`` is the index within the generation's
evaluated batch; ``attempt`` is the re-dispatch count, 0 for the first
try).  Because the GA trajectory is deterministic for a given seed, a
plan reproduces the same chaos scenario on every run — tests and
``benchmarks/`` can script "kill worker 2 of generation 1" and assert
the recovery path byte-for-byte.

Kinds:

* ``"crash"``   — the worker process dies abruptly (``os._exit``); in
  serial mode (no worker process to kill) it degrades to a raised
  :class:`~repro.errors.InjectedFault`.
* ``"hang"``    — the evaluation sleeps for ``hang_s`` before
  proceeding, long enough to trip the supervisor's per-evaluation
  timeout; serial mode raises instead (an in-process sleep cannot be
  preempted).
* ``"error"``   — a transient :class:`InjectedFault` raised before the
  evaluation starts (models a flaky evaluator dependency).
* ``"flow-error"`` — an :class:`InjectedFault` raised *inside*
  :meth:`repro.core.flow.GDSIIGuard.run`, mid-evaluation (models an
  evaluator crash after the operator memo entry was built).
* ``"interrupt"`` — raised at a run boundary (an explorer generation or
  a campaign batch) right after its checkpoint and progress event
  (``individual`` is ignored); simulates the process being killed
  between boundaries so resume tests can interrupt at every one.

Activation: programmatically via :func:`install` / :func:`clear`, or
from the environment — ``REPRO_FAULTS=/path/to/plan.json`` installs a
plan at import time (forked workers inherit the parent's plan either
way).  While no plan is installed every hook is a single boolean check.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import InjectedFault, InjectedInterrupt, ResilienceError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "install",
    "clear",
    "is_active",
    "get_plan",
    "evaluation_scope",
    "maybe_flow_fault",
    "maybe_interrupt",
]

FAULT_KINDS = ("crash", "hang", "error", "flow-error", "interrupt")

#: Task-entry faults fired by the supervisor before the evaluation runs.
_TASK_KINDS = ("crash", "hang", "error")


@dataclass(frozen=True)
class FaultSpec:
    """One fault at one coordinate of the evaluation schedule.

    Attributes:
        generation: NSGA-II generation index (0 = initial population).
        kind: One of :data:`FAULT_KINDS`.
        individual: Index within the generation's evaluated batch
            (ignored for ``"interrupt"``).
        attempt: Fire only on this re-dispatch attempt (0 = first try),
            so a retried task sails through unless another spec targets
            the retry.
        hang_s: Sleep duration for ``"hang"`` faults.
    """

    generation: int
    kind: str
    individual: int = 0
    attempt: int = 0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"fault kind {self.kind!r} not in {FAULT_KINDS}"
            )


class FaultPlan:
    """An immutable set of fault specs with coordinate lookup."""

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def match(
        self,
        generation: int,
        individual: int,
        attempt: int,
        kinds: Sequence[str],
    ) -> Optional[FaultSpec]:
        """The first spec matching the coordinate, or ``None``."""
        for spec in self.specs:
            if (
                spec.kind in kinds
                and spec.generation == generation
                and spec.individual == individual
                and spec.attempt == attempt
            ):
                return spec
        return None

    def interrupt_at(self, generation: int) -> Optional[FaultSpec]:
        """The interrupt spec for a generation boundary, if any."""
        for spec in self.specs:
            if spec.kind == "interrupt" and spec.generation == generation:
                return spec
        return None

    def counts(self) -> Dict[str, int]:
        """Number of specs per kind (what the chaos tests assert against)."""
        out: Dict[str, int] = {}
        for spec in self.specs:
            out[spec.kind] = out.get(spec.kind, 0) + 1
        return out

    # ------------------------------------------------------------------ #

    def to_payload(self) -> dict:
        return {
            "faults": [
                {
                    "generation": s.generation,
                    "kind": s.kind,
                    "individual": s.individual,
                    "attempt": s.attempt,
                    "hang_s": s.hang_s,
                }
                for s in self.specs
            ]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict) or "faults" not in payload:
            raise ResilienceError(
                'fault plan must be a JSON object with a "faults" list'
            )
        specs = []
        for entry in payload["faults"]:
            try:
                specs.append(
                    FaultSpec(
                        generation=int(entry["generation"]),
                        kind=entry["kind"],
                        individual=int(entry.get("individual", 0)),
                        attempt=int(entry.get("attempt", 0)),
                        hang_s=float(entry.get("hang_s", 30.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ResilienceError(
                    f"malformed fault entry {entry!r}: {exc}"
                ) from exc
        return cls(specs)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file (the ``REPRO_FAULTS`` hook)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ResilienceError(
                f"cannot read fault plan {path}: {exc}"
            ) from exc
        return cls.from_payload(payload)


# ---------------------------------------------------------------------- #
# process-global plan + current evaluation coordinate
# ---------------------------------------------------------------------- #

_PLAN: Optional[FaultPlan] = None
#: (generation, individual, attempt, in_worker) of the evaluation in
#: progress — set by :func:`evaluation_scope`, read by flow-level hooks.
_CTX: Optional[tuple] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install (or, with ``None``, clear) the process-global plan."""
    global _PLAN
    _PLAN = plan if plan and len(plan) else None


def clear() -> None:
    """Remove the active plan (hooks become single-boolean no-ops)."""
    install(None)


def is_active() -> bool:
    """Whether any fault plan is installed (cheap hot-path gate)."""
    return _PLAN is not None


def get_plan() -> Optional[FaultPlan]:
    return _PLAN


def _fire(spec: FaultSpec, in_worker: bool) -> None:
    if spec.kind == "crash":
        if in_worker:
            os._exit(87)  # abrupt death: no cleanup, no result message
        raise InjectedFault(
            f"injected crash at gen {spec.generation} "
            f"ind {spec.individual} (serial mode)"
        )
    if spec.kind == "hang":
        if in_worker:
            time.sleep(spec.hang_s)
            return  # a slow evaluation, not a dead one
        raise InjectedFault(
            f"injected hang at gen {spec.generation} "
            f"ind {spec.individual} (serial mode)"
        )
    raise InjectedFault(
        f"injected {spec.kind} at gen {spec.generation} "
        f"ind {spec.individual} attempt {spec.attempt}"
    )


@contextmanager
def evaluation_scope(
    generation: int, individual: int, attempt: int, in_worker: bool
):
    """Bracket one evaluation: set the coordinate, fire task-entry faults.

    The supervisor (worker loop and serial path both) wraps every
    evaluation in this scope; ``crash``/``hang``/``error`` faults fire on
    entry, and :func:`maybe_flow_fault` (called from inside the flow)
    reads the coordinate to fire ``flow-error`` faults mid-evaluation.
    """
    global _CTX
    if _PLAN is None:
        yield
        return
    _CTX = (generation, individual, attempt, in_worker)
    try:
        spec = _PLAN.match(generation, individual, attempt, _TASK_KINDS)
        if spec is not None:
            _fire(spec, in_worker)
        yield
    finally:
        _CTX = None


def maybe_flow_fault() -> None:
    """Fire a ``flow-error`` fault mid-evaluation (hook for the flow)."""
    if _PLAN is None or _CTX is None:
        return
    generation, individual, attempt, _ = _CTX
    spec = _PLAN.match(generation, individual, attempt, ("flow-error",))
    if spec is not None:
        raise InjectedFault(
            f"injected flow-error at gen {generation} ind {individual} "
            f"attempt {attempt}"
        )


def maybe_interrupt(generation: int) -> None:
    """Fire an ``interrupt`` fault at a run boundary (called by
    :meth:`~repro.resilience.run.ResumableRun.boundary` right after the
    boundary's checkpoint and progress event)."""
    if _PLAN is None:
        return
    spec = _PLAN.interrupt_at(generation)
    if spec is not None:
        raise InjectedInterrupt(
            f"injected interrupt after generation {generation}"
        )


# Environment opt-in: REPRO_FAULTS=/path/to/plan.json
_env_plan = os.environ.get("REPRO_FAULTS", "").strip()
if _env_plan:  # pragma: no cover - exercised via CLI subprocess tests
    install(FaultPlan.load(_env_plan))
