"""``repro.resilience`` — crash-safe execution for long runs.

Four cooperating pieces:

* :mod:`repro.resilience.run` — :class:`ResumableRun`, the one resume
  protocol (checkpoint, progress, interrupt and cancel at every
  boundary) of the NSGA-II explorer and the red-team campaign.
* :mod:`repro.resilience.checkpoint` — versioned, atomically-written
  checkpoints and the explorer's state codec (population, Pareto state,
  RNG state, evaluation cache, counters) so an interrupted exploration
  resumes and reproduces the uninterrupted run bitwise.
* :mod:`repro.resilience.supervisor` — a supervised task queue replacing
  the bare ``multiprocessing.Pool``: per-evaluation timeouts, bounded
  retry with backoff, crash isolation (a dead worker requeues its task),
  and graceful degradation to in-process serial evaluation after
  repeated failures — all surfaced via ``resilience.*`` obs counters.
* :mod:`repro.resilience.faults` — deterministic fault injection (worker
  crashes, hangs, transient evaluator exceptions, interrupts at run
  boundaries) at chosen ``(generation, individual)`` coordinates, for
  the chaos test suite and scripted benchmarks.
"""

import importlib

__all__ = [
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointManager",
    "ExplorationCheckpoint",
    "FaultPlan",
    "FaultSpec",
    "EvalTask",
    "ResilienceState",
    "ResumableRun",
    "SupervisionConfig",
    "TaskSupervisor",
]

# Lazy re-exports (PEP 562).  ``repro.core.flow`` imports
# :mod:`repro.resilience.faults` for the in-flow fault hook; resolving the
# checkpoint/supervisor names eagerly here would close an import cycle
# (checkpoint → repro.optimize → ga → core.flow), so attribute access
# defers the submodule imports until someone actually needs them.
_EXPORTS = {
    "CHECKPOINT_FILENAME": "checkpoint",
    "CHECKPOINT_SCHEMA_VERSION": "checkpoint",
    "CheckpointManager": "checkpoint",
    "ExplorationCheckpoint": "checkpoint",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "EvalTask": "supervisor",
    "ResilienceState": "supervisor",
    "ResumableRun": "run",
    "SupervisionConfig": "supervisor",
    "TaskSupervisor": "supervisor",
}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(
        importlib.import_module(f"{__name__}.{module}"), name
    )
    globals()[name] = value  # cache for subsequent lookups
    return value
