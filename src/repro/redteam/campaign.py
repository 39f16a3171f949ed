"""The Monte Carlo attack-campaign loop.

A campaign is a flat sequence of **batches**: one batch per
``(target, grid point)`` pair, holding ``attempts`` seeded insertion
attempts evaluated under the supervised worker pool.  Every batch ends
at a boundary of the same :class:`~repro.resilience.run.ResumableRun`
protocol the explorer's generations use — atomic checkpoint, progress
event, interrupt injection, cancellation probe — so the service
scheduler's cancel/drain/retry machinery works on attack jobs unchanged.

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
from repro.errors import SecurityError
from repro.redteam.checkpoint import CampaignCheckpoint
from repro.redteam.grid import AttackGrid
from repro.redteam.surface import AttackAttempt
from repro.resilience.run import ResumableRun
from repro.resilience.supervisor import (
    EvalTask,
    ResilienceState,
    SupervisionConfig,
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
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
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
            progress: Called once per batch, after its checkpoint is
                durable, with ``{"generation", "generations", "target",
                "spec_id", "successes", "attempts"}``; ``generation``
                counts completed batches, so a finished campaign reads
                N of N.
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
        self.resumable = ResumableRun(
            CampaignCheckpoint,
            {
                "seed": seed,
                "attempts": attempts,
                "grid": grid.to_payload(),
                "targets": ids,
            },
            name="redteam",
            unit="batch",
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            processes=processes,
            supervision=supervision,
            should_stop=should_stop,
            progress=progress,
        )
        self.resilience = self.resumable.resilience

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
        results = self.resumable.batch(
            surface, tasks, "redteam.batch", target=target_id, spec=spec_id
        )
        return [outcome for _, outcome, _ in results]

    def run(self) -> CampaignResult:
        """Run (or resume) the campaign; returns the campaign result."""
        outcomes: Dict[str, Dict[str, List[dict]]] = {}
        start_batch = 0
        ckpt = self.resumable.restore()
        if ckpt is not None:
            outcomes = ckpt.outcomes
            start_batch = ckpt.batch + 1

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
                successes = sum(1 for r in rows if r["success"])
                if obs.is_enabled():
                    obs.count("redteam.batches")
                    obs.count("redteam.attempts", len(rows))
                    obs.count("redteam.successes", successes)
                self.resumable.boundary(
                    batch,
                    CampaignCheckpoint(
                        batch=batch,
                        identity=self.resumable.identity,
                        outcomes=outcomes,
                    ),
                    {
                        "generation": batch + 1,
                        "generations": total,
                        "target": target_id,
                        "spec_id": point.spec_id,
                        "successes": successes,
                        "attempts": self.attempts,
                    },
                )

        return CampaignResult(
            seed=self.seed,
            attempts=self.attempts,
            grid=self.grid,
            targets=tuple(t for t, _ in self.targets),
            outcomes=outcomes,
            resumed_from=None if ckpt is None else ckpt.batch,
            resilience=self.resilience,
        )
