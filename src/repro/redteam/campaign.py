"""The Monte Carlo attack-campaign loop.

A campaign is a flat sequence of **batches**: one batch per
``(target, grid point)`` pair, holding ``attempts`` seeded insertion
attempts evaluated under the supervised worker pool.  After every batch
the full campaign state is checkpointed atomically; the cooperative
cancellation probe and the chaos layer's interrupt injection both fire
at the batch boundary, exactly mirroring the explorer's generation
boundary — so the service scheduler's cancel/drain/retry machinery works
on attack jobs unchanged.

Determinism model (enforced by ``tests/redteam``):

* every attempt's RNG seed derives from
  ``sha256(campaign_seed:target:spec:attempt)`` — no global stream, so
  outcomes are independent of evaluation order, worker count, and
  scheduling;
* outcome dicts are plain JSON whose floats round-trip exactly;
* the canonical :meth:`CampaignResult.summary` is a pure function of
  the outcome dicts — identical seeds produce bitwise-identical
  summaries under any ``processes`` value and any kill/resume schedule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import CheckpointError, ExplorationCancelled, SecurityError
from repro.redteam.checkpoint import CampaignCheckpoint
from repro.redteam.grid import AttackGrid
from repro.redteam.surface import AttackAttempt
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.supervisor import (
    EvalTask,
    ResilienceState,
    SupervisionConfig,
    TaskSupervisor,
)

__all__ = [
    "AttackCampaign",
    "CampaignResult",
    "derive_attempt_seed",
    "CAMPAIGN_SUMMARY_SCHEMA_VERSION",
]

#: Version stamp of the canonical campaign-summary JSON schema.
CAMPAIGN_SUMMARY_SCHEMA_VERSION = 1


def derive_attempt_seed(
    campaign_seed: int, target_id: str, spec_id: str, attempt: int
) -> int:
    """Per-attempt RNG seed: a stable hash of the attempt coordinates.

    ``sha256`` (not :func:`hash`, which couples to ``PYTHONHASHSEED``)
    keyed on every coordinate, so attempt streams are independent of
    batch order, worker count, and everything else that may vary between
    otherwise-identical campaigns.
    """
    digest = hashlib.sha256(
        f"{campaign_seed}:{target_id}:{spec_id}:{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _aggregate(
    target_id: str, spec_id: str, attempts: int, rows: List[dict]
) -> dict:
    """One canonical summary row from a batch's outcome dicts."""
    successes = [r for r in rows if r["success"]]
    first = min((r["attempt"] for r in successes), default=None)
    mean_sites = (
        sum(r["region_sites"] for r in successes) / len(successes)
        if successes
        else 0.0
    )
    tns_deltas = [
        r["tns_delta"] for r in successes if r.get("tns_delta") is not None
    ]
    drc_deltas = [
        r["drc_delta"] for r in successes if r.get("drc_delta") is not None
    ]
    return {
        "target": target_id,
        "spec_id": spec_id,
        "attempts": attempts,
        "successes": len(successes),
        "success_rate": len(successes) / attempts,
        "first_success_attempt": first,
        "mean_region_sites": mean_sites,
        "worst_tns_delta": min(tns_deltas) if tns_deltas else None,
        "max_drc_delta": max(drc_deltas) if drc_deltas else None,
        "outcomes": rows,
    }


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    ``outcomes`` maps ``target id -> spec id -> [outcome dict per
    attempt]`` in attempt order; :meth:`summary` flattens it into the
    canonical JSON document (targets in campaign order, specs in grid
    order) that the differential tests compare bitwise.
    """

    seed: int
    attempts: int
    grid: AttackGrid
    targets: Tuple[str, ...]
    outcomes: Dict[str, Dict[str, List[dict]]]
    resumed_from: Optional[int] = None
    resilience: Optional[ResilienceState] = None

    def rows(self) -> List[dict]:
        """Per-(target, spec) aggregate rows in canonical order."""
        out = []
        for target_id in self.targets:
            for point in self.grid.points:
                rows = self.outcomes[target_id][point.spec_id]
                out.append(
                    _aggregate(target_id, point.spec_id, self.attempts, rows)
                )
        return out

    def success_rate(self, target_id: str, spec_id: str) -> float:
        """Attack success rate of one (target, spec) cell."""
        rows = self.outcomes[target_id][spec_id]
        return sum(1 for r in rows if r["success"]) / self.attempts

    def summary(self) -> dict:
        """The canonical campaign summary (bitwise-comparable)."""
        return {
            "schema_version": CAMPAIGN_SUMMARY_SCHEMA_VERSION,
            "kind": "redteam-campaign",
            "seed": self.seed,
            "attempts_per_spec": self.attempts,
            "grid": self.grid.to_payload(),
            "targets": list(self.targets),
            "results": self.rows(),
        }

    def to_json(self) -> str:
        """The summary as stable, diff-friendly JSON text."""
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"


class AttackCampaign:
    """Sweep a grid of Trojan specs against one or more targets."""

    def __init__(
        self,
        targets: Sequence[Tuple[str, Any]],
        grid: AttackGrid,
        attempts: int = 4,
        seed: int = 0,
        processes: int = 0,
        checkpoint_dir: Union[str, Path, None] = None,
        resume: bool = False,
        supervision: Optional[SupervisionConfig] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        on_batch: Optional[Callable[[int, int, dict], None]] = None,
    ) -> None:
        """
        Args:
            targets: ``(target_id, surface)`` pairs; each surface speaks
                the evaluator protocol (see
                :class:`~repro.redteam.surface.LayoutAttackSurface`).
            grid: The spec sweep.
            attempts: Seeded insertion attempts per (target, spec).
            seed: Campaign seed every attempt seed derives from.
            processes: Supervised worker processes per batch
                (0 = inline serial evaluation).
            checkpoint_dir: Run directory for per-batch checkpoints
                (``None`` disables checkpointing).
            resume: Continue from ``checkpoint_dir``'s checkpoint if one
                exists; raises :class:`CheckpointError` on an identity
                mismatch (different seed/grid/targets/attempts).
            supervision: Worker-supervision knobs.
            should_stop: Cooperative-cancellation probe, polled at every
                batch boundary after that batch's checkpoint is durable;
                returning ``True`` raises
                :class:`~repro.errors.ExplorationCancelled`.
            on_batch: Progress hook ``(batch, total_batches, row)``
                called after each batch with its aggregate row.
        """
        if attempts < 1:
            raise SecurityError("a campaign needs at least one attempt")
        ids = [t for t, _ in targets]
        if not ids:
            raise SecurityError("a campaign needs at least one target")
        if len(set(ids)) != len(ids):
            raise SecurityError(f"duplicate target ids: {ids}")
        self.targets = list(targets)
        self.grid = grid
        self.attempts = attempts
        self.seed = seed
        self.processes = processes
        self.supervision = supervision or SupervisionConfig()
        self.resilience = ResilienceState()
        self.checkpoint_manager = (
            CheckpointManager(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.resume = resume
        self.should_stop = should_stop
        self.on_batch = on_batch
        self.resumed_from: Optional[int] = None

    # ------------------------------------------------------------------ #
    # checkpoint / resume
    # ------------------------------------------------------------------ #

    def _identity(self) -> dict:
        return {
            "seed": self.seed,
            "attempts": self.attempts,
            "grid": self.grid.to_payload(),
            "targets": [t for t, _ in self.targets],
        }

    def _write_checkpoint(
        self, batch: int, outcomes: Dict[str, Dict[str, List[dict]]]
    ) -> None:
        if self.checkpoint_manager is None:
            return
        ckpt = CampaignCheckpoint(
            batch=batch,
            identity=self._identity(),
            outcomes=outcomes,
            resilience=self.resilience.as_dict(),
            obs_snapshot=(
                obs.get_metrics().snapshot() if obs.is_enabled() else None
            ),
        )
        with obs.timed("redteam.checkpoint", batch=batch):
            ckpt.save(self.checkpoint_manager)
        obs.count("redteam.checkpoints")

    def _load_resume_state(self) -> Optional[CampaignCheckpoint]:
        if not (self.resume and self.checkpoint_manager is not None):
            return None
        ckpt = CampaignCheckpoint.load(self.checkpoint_manager)
        if ckpt is None:
            return None
        mine = self._identity()
        if ckpt.identity != mine:
            diffs = sorted(
                k for k in set(mine) | set(ckpt.identity)
                if mine.get(k) != ckpt.identity.get(k)
            )
            raise CheckpointError(
                f"campaign checkpoint {self.checkpoint_manager.path} was "
                f"written with a different campaign (differing: "
                f"{', '.join(diffs)}); rerun with the original settings "
                f"or start a fresh run directory"
            )
        problem = self._coverage_problem(ckpt)
        if problem is not None:
            raise CheckpointError(
                f"malformed campaign checkpoint "
                f"{self.checkpoint_manager.path} ({problem}); delete it "
                f"or restart without --resume"
            )
        return ckpt

    def _coverage_problem(self, ckpt: CampaignCheckpoint) -> Optional[str]:
        """Why ``ckpt``'s outcomes do not cover its completed batches."""
        specs = [p.spec_id for p in self.grid.points]
        total = len(self.targets) * len(specs)
        if not 0 <= ckpt.batch < total:
            return f"batch {ckpt.batch} outside 0..{total - 1}"
        for batch in range(ckpt.batch + 1):
            ti, pi = divmod(batch, len(specs))
            target_id = self.targets[ti][0]
            rows = ckpt.outcomes.get(target_id, {}).get(specs[pi])
            if rows is None or len(rows) != self.attempts:
                return (
                    f"batch {batch} ({target_id}/{specs[pi]}) lacks its "
                    f"{self.attempts} outcomes"
                )
        return None

    def _restore(self, ckpt: CampaignCheckpoint) -> None:
        for name, value in ckpt.resilience.items():
            setattr(self.resilience, name, value)
        self.resumed_from = ckpt.batch
        if (
            ckpt.obs_snapshot
            and obs.is_enabled()
            and not obs.get_metrics().names()
        ):
            obs.get_metrics().merge_snapshot(ckpt.obs_snapshot)

    # ------------------------------------------------------------------ #

    def _run_batch(self, batch: int, target_id: str, surface: Any,
                   spec_id: str) -> List[dict]:
        point = next(
            p for p in self.grid.points if p.spec_id == spec_id
        )
        tasks = [
            EvalTask(
                index=k,
                config=AttackAttempt(
                    target=target_id,
                    point=point,
                    attempt=k,
                    seed=derive_attempt_seed(
                        self.seed, target_id, spec_id, k
                    ),
                ),
                generation=batch,
                individual=k,
            )
            for k in range(self.attempts)
        ]
        workers = (
            min(self.processes, self.attempts) if self.processes else 0
        )
        supervisor = TaskSupervisor(
            surface,
            workers=workers,
            config=self.supervision,
            state=self.resilience,
        )
        with obs.timed(
            "redteam.batch", target=target_id, spec=spec_id,
            size=self.attempts, workers=workers,
        ):
            results = supervisor.run(tasks)
        return [outcome for _, outcome, _ in results]

    def run(self) -> CampaignResult:
        """Run (or resume) the campaign; returns the campaign result."""
        outcomes: Dict[str, Dict[str, List[dict]]] = {}
        start_batch = 0
        ckpt = self._load_resume_state()
        if ckpt is not None:
            outcomes = ckpt.outcomes
            start_batch = ckpt.batch + 1
            self._restore(ckpt)

        total = len(self.targets) * len(self.grid.points)
        with obs.timed("redteam.campaign"):
            for batch in range(start_batch, total):
                ti, pi = divmod(batch, len(self.grid.points))
                target_id, surface = self.targets[ti]
                point = self.grid.points[pi]
                rows = self._run_batch(
                    batch, target_id, surface, point.spec_id
                )
                outcomes.setdefault(target_id, {})[point.spec_id] = rows
                if obs.is_enabled():
                    obs.count("redteam.batches")
                    obs.count("redteam.attempts", len(rows))
                    obs.count(
                        "redteam.successes",
                        sum(1 for r in rows if r["success"]),
                    )
                self._write_checkpoint(batch, outcomes)
                if self.on_batch is not None:
                    self.on_batch(
                        batch,
                        total,
                        _aggregate(
                            target_id, point.spec_id, self.attempts, rows
                        ),
                    )
                faults.maybe_interrupt(batch)
                if self.should_stop is not None and self.should_stop():
                    raise ExplorationCancelled(batch)

        return CampaignResult(
            seed=self.seed,
            attempts=self.attempts,
            grid=self.grid,
            targets=tuple(t for t, _ in self.targets),
            outcomes=outcomes,
            resumed_from=self.resumed_from,
            resilience=self.resilience,
        )
