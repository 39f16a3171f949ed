"""Campaign checkpoints: batch-granular, identity-guarded, atomic.

A campaign checkpoint captures the completed batches' outcome lists plus
the campaign *identity* (seed, attempts-per-spec, grid payload, target
ids).  Identity deliberately excludes the worker-process count and the
supervision knobs: outcomes are deterministic functions of their seeds,
so a campaign checkpointed under ``--processes 4`` may resume under
``--processes 1`` (or degraded-serial after worker deaths) and still
finish bitwise identical — the same argument the explorer's checkpoint
makes for GA state.

Writing, identity guarding and restoring belong to
:class:`~repro.resilience.run.ResumableRun`; durability rides on
:class:`~repro.resilience.checkpoint.CheckpointManager` (temp file +
fsync + atomic replace, ``schema_version`` gate), so a SIGKILL mid-write
leaves the previous checkpoint intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import CheckpointError
from repro.resilience.checkpoint import CheckpointManager, decode_resilience

__all__ = ["CampaignCheckpoint"]

#: Outcome fields the campaign summary reads from every row.
_OUTCOME_FIELDS = ("attempt", "success", "region_sites")


def _decode_outcome(row: Any) -> dict:
    outcome = dict(row)
    missing = [key for key in _OUTCOME_FIELDS if key not in outcome]
    if missing:
        raise ValueError(f"outcome row without {', '.join(missing)}")
    return outcome


@dataclass
class CampaignCheckpoint:
    """Full campaign state at one batch boundary.

    Attributes:
        batch: Index of the last completed batch.
        identity: The campaign identity dict (resume-mismatch guard).
        outcomes: ``target id -> spec id -> [outcome dict, ...]`` for
            every completed batch.
        resilience: Supervision counters accumulated so far (restored on
            resume so the final report covers the whole campaign; never
            part of the canonical summary).
        obs_snapshot: Optional obs metrics snapshot for post-mortem.
    """

    batch: int
    identity: Dict[str, Any]
    outcomes: Dict[str, Dict[str, List[dict]]]
    resilience: Dict[str, Any] = field(default_factory=dict)
    obs_snapshot: Optional[dict] = None

    KIND = "redteam"

    def to_payload(self) -> dict:
        return {
            "kind": self.KIND,
            "batch": self.batch,
            "identity": dict(self.identity),
            "outcomes": {
                target: {spec: list(rows) for spec, rows in specs.items()}
                for target, specs in self.outcomes.items()
            },
            "resilience": dict(self.resilience),
            "obs": self.obs_snapshot,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignCheckpoint":
        if payload.get("kind") != cls.KIND:
            raise CheckpointError(
                f"checkpoint kind {payload.get('kind')!r} is not a "
                f"red-team campaign checkpoint; point --checkpoint-dir "
                f"at the matching run directory"
            )
        try:
            ckpt = cls(
                batch=int(payload["batch"]),
                identity=dict(payload["identity"]),
                outcomes={
                    str(target): {
                        str(spec): [_decode_outcome(r) for r in rows]
                        for spec, rows in specs.items()
                    }
                    for target, specs in payload["outcomes"].items()
                },
                resilience=decode_resilience(payload),
                obs_snapshot=payload.get("obs"),
            )
            problem = ckpt._coverage_problem()
            if problem is not None:
                raise ValueError(problem)
            return ckpt
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"malformed campaign checkpoint ({exc}); delete it or "
                f"restart without --resume"
            ) from exc

    def _coverage_problem(self) -> Optional[str]:
        """Why the outcomes do not cover the completed batches."""
        specs = [point["spec_id"] for point in self.identity["grid"]["points"]]
        targets = self.identity["targets"]
        attempts = self.identity["attempts"]
        total = len(targets) * len(specs)
        if not 0 <= self.batch < total:
            return f"batch {self.batch} outside 0..{total - 1}"
        for batch in range(self.batch + 1):
            ti, pi = divmod(batch, len(specs))
            rows = self.outcomes.get(targets[ti], {}).get(specs[pi])
            if rows is None or len(rows) != attempts:
                return (
                    f"batch {batch} ({targets[ti]}/{specs[pi]}) lacks its "
                    f"{attempts} outcomes"
                )
        return None

    # ------------------------------------------------------------------ #

    def save(self, manager: CheckpointManager) -> Path:
        return manager.save_payload(self.to_payload())

    @classmethod
    def load(
        cls, manager: CheckpointManager
    ) -> Optional["CampaignCheckpoint"]:
        payload = manager.load_payload()
        if payload is None:
            return None
        return cls.from_payload(payload)
