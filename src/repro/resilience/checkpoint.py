"""Versioned, atomically-written checkpoints for the exploration loop.

A checkpoint captures *everything* the NSGA-II loop needs to continue
mid-campaign and still produce a bitwise-identical final Pareto front:

* the selected population (genomes, objectives, violations, plus the
  ``rank``/``crowding`` fields tournament selection reads),
* the per-generation history (Fig. 5's scatter data),
* the ``numpy`` bit-generator state (so the offspring trajectory after
  resume consumes the exact random stream the uninterrupted run would),
* the evaluation memo cache (key → objectives/violation, so a resumed
  run never re-pays for an already-evaluated chromosome and reproduces
  identical objective floats by construction),
* the explorer counters and the stall/convergence-proxy state,
* the supervision counters and optionally an obs metrics snapshot
  (both written and restored by :class:`~repro.resilience.run.ResumableRun`).

Durability: checkpoints are written to a temp file in the run directory,
fsync'd, then ``os.replace``'d over ``checkpoint.json`` — a crash during
the write leaves the previous checkpoint intact.  Every file carries a
``schema_version``; the loader rejects unknown versions with an
actionable error instead of mis-parsing.

Float fidelity: Python's ``json`` emits floats via ``repr``, which
round-trips every finite ``float`` exactly (and ``Infinity`` for the
unbounded crowding distances), so objectives and RNG state survive the
save/load cycle bit-for-bit.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.params import FlowConfig
from repro.errors import CheckpointError
from repro.optimize.nsga2 import Individual
from repro.resilience.supervisor import ResilienceState

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CHECKPOINT_FILENAME",
    "CheckpointManager",
    "ExplorationCheckpoint",
    "atomic_write_text",
    "decode_resilience",
    "encode_flow_config",
    "encode_front",
    "decode_flow_config",
    "probe_writable",
]

CHECKPOINT_SCHEMA_VERSION = 2
CHECKPOINT_FILENAME = "checkpoint.json"

#: Per-process sequence for tmp-file names: combined with pid and
#: thread id it gives every in-flight write its own tmp path, so
#: concurrent writers of the *same* file never truncate or unlink each
#: other's half-written file (``os.replace`` then keeps whichever write
#: lands last, each one self-consistent).
_TMP_SEQ = itertools.count()


def _tmp_path(path: Path) -> Path:
    return path.with_name(
        f"{path.name}.tmp.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_SEQ)}"
    )


def atomic_write_text(path: Path, text: str) -> None:
    """Durably replace ``path`` with ``text``: tmp file, fsync, rename.

    A crash mid-write leaves the previous file intact, and a failed
    write leaves no tmp file behind.  Raises :class:`OSError`; callers
    wrap it in their own error type.
    """
    tmp = _tmp_path(path)
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def probe_writable(directory: Path) -> None:
    """Create ``directory`` and prove a file can be written in it.

    Raises :class:`OSError`; callers wrap it in their own error type.
    """
    directory.mkdir(parents=True, exist_ok=True)
    probe = _tmp_path(directory / ".write-probe")
    probe.write_text("")
    probe.unlink()


class CheckpointManager:
    """Atomic save/load of JSON checkpoints in one run directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        filename: str = CHECKPOINT_FILENAME,
    ) -> None:
        self.directory = Path(directory)
        try:
            probe_writable(self.directory)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint directory {self.directory} is not writable "
                f"({exc}); pass a writable --checkpoint-dir"
            ) from exc
        self.path = self.directory / filename

    def save_payload(self, payload: dict) -> Path:
        """Atomically persist ``payload`` (stamps the schema version)."""
        body = dict(payload)
        body["schema_version"] = CHECKPOINT_SCHEMA_VERSION
        text = json.dumps(body, indent=2, sort_keys=True) + "\n"
        try:
            atomic_write_text(self.path, text)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {exc}"
            ) from exc
        return self.path

    def load_payload(self) -> Optional[dict]:
        """Load the checkpoint, ``None`` if absent, raise if unusable."""
        if not self.path.exists():
            return None
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {self.path} ({exc}); delete it or "
                f"restart without --resume"
            ) from exc
        if not isinstance(payload, dict) or "schema_version" not in payload:
            raise CheckpointError(
                f"checkpoint {self.path} has no schema_version field; it "
                f"was not written by this tool — delete it or restart "
                f"without --resume"
            )
        version = payload["schema_version"]
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has schema version {version} but "
                f"this build reads version {CHECKPOINT_SCHEMA_VERSION}; "
                f"restart without --resume to begin a fresh run"
            )
        return payload


# ---------------------------------------------------------------------- #
# exploration state codec
# ---------------------------------------------------------------------- #


def _encode_config(config: FlowConfig) -> dict:
    return {
        "op_select": config.op_select,
        "lda_n": config.lda_n,
        "lda_n_iter": config.lda_n_iter,
        "rws_scales": list(config.rws_scales),
    }


def _decode_config(payload: dict) -> FlowConfig:
    try:
        return FlowConfig(
            op_select=payload["op_select"],
            lda_n=int(payload["lda_n"]),
            lda_n_iter=int(payload["lda_n_iter"]),
            rws_scales=tuple(payload["rws_scales"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed genome in checkpoint: {payload!r} ({exc})"
        ) from exc


def _encode_individual(ind: Individual) -> dict:
    return {
        "genome": _encode_config(ind.genome),
        "objectives": list(ind.objectives),
        "violation": ind.violation,
    }


def _front_sort_key(entry: dict) -> tuple:
    g = entry["genome"]
    return (
        entry["objectives"],
        entry["violation"],
        g["op_select"],
        g["lda_n"],
        g["lda_n_iter"],
        g["rws_scales"],
    )


def encode_front(individuals: List[Individual]) -> List[dict]:
    """Order-independent, bitwise-comparable Pareto-front encoding."""
    entries = [_encode_individual(i) for i in individuals]
    entries.sort(key=_front_sort_key)
    return entries


def _decode_individual(payload: dict) -> Individual:
    try:
        ind = Individual(
            genome=_decode_config(payload["genome"]),
            objectives=tuple(payload["objectives"]),
            violation=float(payload["violation"]),
        )
        ind.rank = int(payload["rank"])
        ind.crowding = float(payload["crowding"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed individual in checkpoint ({exc})"
        ) from exc
    return ind


#: Public names for the genome codec (the service, the CLI's ``--front``
#: and external tooling use these).
encode_flow_config = _encode_config
decode_flow_config = _decode_config

#: Supervision counters a checkpoint carries, with their types.
_RESILIENCE_FIELDS = {f.name: type(f.default) for f in fields(ResilienceState)}


def decode_resilience(payload: dict) -> Dict[str, Any]:
    """The supervision counters of a checkpoint payload, type-checked."""
    counters = payload.get("resilience") or {}
    return {
        key: kind(counters[key])
        for key, kind in _RESILIENCE_FIELDS.items()
        if key in counters
    }


@dataclass
class ExplorationCheckpoint:
    """Full NSGA-II loop state at one generation boundary.

    Attributes:
        generation: Index of the last completed generation.
        population: The selected population (with rank/crowding).
        history: Per-generation ``[((obj0, obj1), violation), ...]``.
        rng_state: The ``numpy`` bit-generator state dict.
        eval_cache: Memo cache key → ``(objectives, violation)``.
        evaluations / cache_requests / cache_hits: Explorer counters.
        stall: Consecutive generations without proxy improvement.
        best_proxy: Best convergence-proxy value so far.
        nsga2: GA hyper-parameters (with ``num_layers``, the identity a
            resume must match).
        num_layers: RWS gene count of the parameter space.
        resilience: Supervision counters accumulated so far.
        obs_snapshot: Optional obs metrics snapshot for post-mortem.
    """

    generation: int
    population: List[Individual]
    history: List[List[Tuple[Tuple[float, ...], float]]]
    rng_state: dict
    eval_cache: Dict[tuple, Tuple[tuple, float]]
    evaluations: int
    cache_requests: int
    cache_hits: int
    stall: int
    best_proxy: float
    nsga2: dict
    num_layers: int
    resilience: Dict[str, Any] = field(default_factory=dict)
    obs_snapshot: Optional[dict] = field(default=None)

    KIND = "exploration"

    @property
    def identity(self) -> dict:
        """The settings a resumed run must share with this checkpoint."""
        return {**self.nsga2, "num_layers": self.num_layers}

    def to_payload(self) -> dict:
        return {
            "kind": self.KIND,
            "generation": self.generation,
            "population": [
                {**_encode_individual(i), "rank": i.rank,
                 "crowding": i.crowding}
                for i in self.population
            ],
            "history": [
                [[list(objectives), violation]
                 for objectives, violation in gen]
                for gen in self.history
            ],
            "rng_state": self.rng_state,
            "eval_cache": [
                [[key[0], key[1], key[2], list(key[3])],
                 [list(objectives), violation]]
                for key, (objectives, violation) in sorted(
                    self.eval_cache.items()
                )
            ],
            "counters": {
                "evaluations": self.evaluations,
                "cache_requests": self.cache_requests,
                "cache_hits": self.cache_hits,
            },
            "search": {"stall": self.stall, "best_proxy": self.best_proxy},
            "nsga2": dict(self.nsga2),
            "space": {"num_layers": self.num_layers},
            "resilience": dict(self.resilience),
            "obs": self.obs_snapshot,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExplorationCheckpoint":
        if payload.get("kind") != cls.KIND:
            raise CheckpointError(
                f"checkpoint kind {payload.get('kind')!r} is not an "
                f"exploration checkpoint; point --checkpoint-dir at the "
                f"matching run directory"
            )
        try:
            rng_state = payload["rng_state"]
            # The explorer's generator validates a state only when it is
            # assigned; check it here so a bad one fails like any other
            # malformed field.
            np.random.default_rng(0).bit_generator.state = rng_state
            nsga2 = payload["nsga2"]
            if not isinstance(nsga2, dict):
                raise TypeError(
                    f"nsga2 is a {type(nsga2).__name__}, not an object"
                )
            eval_cache = {
                (k[0], int(k[1]), int(k[2]), tuple(k[3])): (
                    tuple(v[0]),
                    float(v[1]),
                )
                for k, v in payload["eval_cache"]
            }
            return cls(
                generation=int(payload["generation"]),
                population=[
                    _decode_individual(p) for p in payload["population"]
                ],
                history=[
                    [(tuple(objectives), violation)
                     for objectives, violation in gen]
                    for gen in payload["history"]
                ],
                rng_state=rng_state,
                eval_cache=eval_cache,
                evaluations=int(payload["counters"]["evaluations"]),
                cache_requests=int(payload["counters"]["cache_requests"]),
                cache_hits=int(payload["counters"]["cache_hits"]),
                stall=int(payload["search"]["stall"]),
                best_proxy=float(payload["search"]["best_proxy"]),
                nsga2=nsga2,
                num_layers=int(payload["space"]["num_layers"]),
                resilience=decode_resilience(payload),
                obs_snapshot=payload.get("obs"),
            )
        except (
            KeyError, TypeError, ValueError, IndexError, OverflowError
        ) as exc:
            raise CheckpointError(
                f"malformed exploration checkpoint ({exc}); delete it or "
                f"restart without --resume"
            ) from exc

    # ------------------------------------------------------------------ #

    def save(self, manager: CheckpointManager) -> Path:
        return manager.save_payload(self.to_payload())

    @classmethod
    def load(
        cls, manager: CheckpointManager
    ) -> Optional["ExplorationCheckpoint"]:
        payload = manager.load_payload()
        if payload is None:
            return None
        return cls.from_payload(payload)
