"""The resume protocol the explorer and the red-team campaign share.

The NSGA-II explorer closes a **boundary** after every generation, the
attack campaign after every batch.  A :class:`ResumableRun` owns the
protocol around those boundaries; the loops keep only their own state
and step logic:

* the run directory (:class:`~repro.resilience.checkpoint.CheckpointManager`);
* the identity guard: a checkpoint written with other settings is
  refused with one message naming the differing keys;
* the supervised batch: a :class:`~repro.resilience.supervisor.TaskSupervisor`
  over ``min(processes, len(tasks))`` workers, every batch sharing one
  :class:`~repro.resilience.supervisor.ResilienceState` (so degradation
  stays sticky);
* the supervision counters and the obs metrics snapshot, written into
  every checkpoint and restored on resume;
* the boundary sequence, in this order: durable checkpoint, one
  JSON-ready progress event, the fault layer's interrupt hook, the
  cancel probe.  A progress event or a cancel therefore always has its
  boundary's checkpoint on disk.

Each loop keeps its own state codec (``ExplorationCheckpoint``,
``CampaignCheckpoint``): a dataclass with ``resilience`` and
``obs_snapshot`` fields, an ``identity``, ``save(manager)`` and a
``load(manager)`` classmethod.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.errors import CheckpointError, ExplorationCancelled
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.supervisor import (
    EvalTask,
    ResilienceState,
    SupervisionConfig,
    TaskSupervisor,
)

__all__ = ["ResumableRun"]


class ResumableRun:
    """Checkpoint, resume, supervise and cancel one long loop."""

    def __init__(
        self,
        codec: Any,
        identity: Dict[str, Any],
        *,
        name: str,
        unit: str,
        checkpoint_dir: Union[str, Path, None],
        resume: bool,
        processes: int,
        supervision: Optional[SupervisionConfig],
        should_stop: Optional[Callable[[], bool]],
        progress: Optional[Callable[[Dict[str, Any]], None]],
    ) -> None:
        """
        Args:
            codec: The loop's checkpoint class.
            identity: Settings a resumed checkpoint must have been
                written with (JSON values, compared by equality).
            name: Obs prefix: ``<name>.checkpoint`` span and
                ``<name>.checkpoints`` counter.
            unit: The checkpoint span's attribute for the boundary index
                (``"generation"`` or ``"batch"``).
            checkpoint_dir: Run directory (``None`` disables checkpoints).
            resume: Continue from the run directory's checkpoint, if any.
            processes: Worker processes per batch (0 = inline serial).
            supervision: Worker-supervision knobs (defaults when ``None``).
            should_stop: Cancel probe polled at every boundary; ``True``
                raises :class:`~repro.errors.ExplorationCancelled`.
            progress: Receives each boundary's JSON-ready event.
        """
        self.codec = codec
        self.identity = identity
        self.name = name
        self.unit = unit
        self.manager = (
            CheckpointManager(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.resume = resume
        self.processes = processes
        self.supervision = supervision or SupervisionConfig()
        self.should_stop = should_stop
        self.progress = progress
        self.resilience = ResilienceState()

    def restore(self) -> Any:
        """The checkpoint to continue from, or ``None`` to start fresh.

        Raises :class:`CheckpointError` when the checkpoint is unusable
        or was written with other settings.  A usable checkpoint's
        supervision counters (and, in a fresh profiled process, its obs
        snapshot) are folded back into this run.
        """
        if not self.resume or self.manager is None:
            return None
        ckpt = self.codec.load(self.manager)
        if ckpt is None:
            return None
        if ckpt.identity != self.identity:
            differing = sorted(
                k for k in set(self.identity) | set(ckpt.identity)
                if self.identity.get(k) != ckpt.identity.get(k)
            )
            raise CheckpointError(
                f"checkpoint {self.manager.path} was written with "
                f"different settings (differing: {', '.join(differing)}); "
                f"rerun with the original settings or start a fresh run "
                f"directory"
            )
        for field, value in ckpt.resilience.items():
            setattr(self.resilience, field, value)
        if (
            ckpt.obs_snapshot
            and obs.is_enabled()
            and not obs.get_metrics().names()
        ):
            # a fresh process resuming a profiled run: fold the pre-crash
            # metrics back in so profile tables cover the whole run
            obs.get_metrics().merge_snapshot(ckpt.obs_snapshot)
        return ckpt

    def batch(
        self, evaluator: Any, tasks: Sequence[EvalTask], span: str, **attrs
    ) -> List[tuple]:
        """Evaluate ``tasks`` under supervision inside one obs span."""
        workers = min(self.processes, len(tasks)) if self.processes else 0
        supervisor = TaskSupervisor(
            evaluator,
            workers=workers,
            config=self.supervision,
            state=self.resilience,
        )
        with obs.timed(span, **attrs, size=len(tasks), workers=workers):
            return supervisor.run(tasks)

    def boundary(self, index: int, checkpoint: Any, event: dict) -> None:
        """Close boundary ``index``: checkpoint, progress, interrupt, cancel.

        ``checkpoint`` is the loop's codec instance for this boundary;
        the run adds the supervision counters and the obs snapshot.
        """
        if self.manager is not None:
            checkpoint = dataclasses.replace(
                checkpoint,
                resilience=self.resilience.as_dict(),
                obs_snapshot=(
                    obs.get_metrics().snapshot() if obs.is_enabled() else None
                ),
            )
            with obs.timed(f"{self.name}.checkpoint", **{self.unit: index}):
                checkpoint.save(self.manager)
            obs.count(f"{self.name}.checkpoints")
        if self.progress is not None:
            self.progress(event)
        faults.maybe_interrupt(index)
        if self.should_stop is not None and self.should_stop():
            raise ExplorationCancelled(index)
