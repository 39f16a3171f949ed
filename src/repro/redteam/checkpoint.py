"""Campaign checkpoints: batch-granular, identity-guarded, atomic.

A campaign checkpoint captures the completed batches' outcome lists plus
the campaign *identity* (seed, attempts-per-spec, grid payload, target
ids).  Identity deliberately excludes the worker-process count and the
supervision knobs: outcomes are deterministic functions of their seeds,
so a campaign checkpointed under ``--processes 4`` may resume under
``--processes 1`` (or degraded-serial after worker deaths) and still
finish bitwise identical — the same argument the explorer's checkpoint
makes for GA state.

Durability rides on :class:`~repro.resilience.checkpoint.CheckpointManager`
(temp file + fsync + atomic replace, ``schema_version`` gate), so a
SIGKILL mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import CheckpointError
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.supervisor import ResilienceState

__all__ = ["CampaignCheckpoint"]

#: Supervision counters a checkpoint carries, with their types.
_RESILIENCE_FIELDS = {f.name: type(f.default) for f in fields(ResilienceState)}

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
            resilience = payload.get("resilience") or {}
            return cls(
                batch=int(payload["batch"]),
                identity=dict(payload["identity"]),
                outcomes={
                    str(target): {
                        str(spec): [_decode_outcome(r) for r in rows]
                        for spec, rows in specs.items()
                    }
                    for target, specs in payload["outcomes"].items()
                },
                resilience={
                    key: kind(resilience[key])
                    for key, kind in _RESILIENCE_FIELDS.items()
                    if key in resilience
                },
                obs_snapshot=payload.get("obs"),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"malformed campaign checkpoint ({exc}); delete it or "
                f"restart without --resume"
            ) from exc

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
