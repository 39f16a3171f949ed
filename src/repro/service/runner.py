"""Synchronous per-job execution (runs inside a worker slot thread).

The runner is the bridge between a :class:`~repro.service.jobs.JobSpec`
and the existing flow machinery: it builds the design's guard through a
pluggable :class:`GuardFactory`, wires a
:class:`~repro.optimize.explorer.ParetoExplorer` with the job's
checkpoint directory, cancellation probe, and progress hook, pre-warms
the explorer's memo table from the daemon-wide shared cache, and encodes
the final Pareto front with the same codec the checkpoints use — so a
service result is byte-comparable against a direct CLI run.

Nothing here touches scheduler state: the runner receives plain values
and returns (or raises) plain values, keeping every mutation of the
:class:`~repro.service.jobs.JobRecord` on the event loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.params import FlowConfig, ParameterSpace
from repro.errors import ServiceError
from repro.optimize.explorer import ParetoExplorer
from repro.optimize.nsga2 import NSGA2Config
from repro.redteam.campaign import AttackCampaign
from repro.redteam.grid import AttackGrid
from repro.resilience.checkpoint import (
    decode_flow_config,
    encode_flow_config,
    encode_front,
)
from repro.resilience.supervisor import SupervisionConfig
from repro.service.cache import SharedEvalCache
from repro.service.jobs import JobSpec

__all__ = [
    "GuardHandle",
    "DesignGuardFactory",
    "run_explore_job",
    "run_harden_job",
    "run_attack_job",
]


@dataclass
class GuardHandle:
    """What a guard factory hands the runner for one design.

    Attributes:
        guard: The evaluator (``GDSIIGuard`` or a protocol-compatible
            fake) bound to the design's baseline.
        design_key: Shared-cache key — must change whenever the design
            content changes, so stale evaluations can never be served.
        num_layers: RWS gene count of the design's parameter space.
    """

    guard: Any
    design_key: str
    num_layers: int


class DesignGuardFactory:
    """Builds real benchmark designs (the production factory)."""

    def validate(self, design: str) -> None:
        from repro.bench.designs import DESIGN_NAMES

        if design not in DESIGN_NAMES:
            raise ServiceError(
                f"unknown design {design!r}; pick one of "
                f"{', '.join(DESIGN_NAMES)}"
            )

    def build(self, design: str) -> GuardHandle:
        from repro.bench.designs import build_design
        from repro.core.flow import GDSIIGuard

        self.validate(design)
        d = build_design(design)
        guard = GDSIIGuard(
            d.layout,
            d.constraints,
            d.assets,
            baseline_routing=d.routing,
        )
        # Cheap content fingerprint: a changed generator or technology
        # shifts cell count / period, invalidating the cache key.
        fingerprint = (
            f"{len(d.layout.placements)}:{d.constraints.clock_period:.6f}"
        )
        return GuardHandle(
            guard=guard,
            design_key=f"{design}:{fingerprint}",
            num_layers=d.technology.num_layers,
        )

    def build_attack(self, spec: JobSpec) -> List[Tuple[str, Any]]:
        """Build the campaign targets for an attack job.

        Always includes the unhardened ``baseline``; when the spec
        carries a flow configuration, the design is hardened with it
        and attacked as a second ``hardened`` target — the pairing the
        CI gate's hardened-vs-baseline comparison consumes.
        """
        from repro.bench.designs import build_design
        from repro.core.flow import GDSIIGuard
        from repro.redteam.surface import LayoutAttackSurface
        from repro.timing.sta import run_sta

        self.validate(spec.design)
        d = build_design(spec.design)
        targets: List[Tuple[str, Any]] = [
            (
                "baseline",
                LayoutAttackSurface(
                    "baseline", d.layout, d.sta, d.assets,
                    routing=d.routing, constraints=d.constraints,
                ),
            )
        ]
        if spec.config is not None:
            guard = GDSIIGuard(
                d.layout, d.constraints, d.assets,
                baseline_routing=d.routing,
            )
            hardened = guard.run(decode_flow_config(dict(spec.config)))
            sta = run_sta(
                hardened.layout, d.constraints, routing=hardened.routing
            )
            targets.append(
                (
                    "hardened",
                    LayoutAttackSurface(
                        "hardened", hardened.layout, sta, d.assets,
                        routing=hardened.routing,
                        constraints=d.constraints,
                    ),
                )
            )
        return targets


# ---------------------------------------------------------------------- #
# job execution
# ---------------------------------------------------------------------- #


def run_explore_job(
    spec: JobSpec,
    handle: GuardHandle,
    checkpoint_dir: Path,
    shared_cache: Optional[SharedEvalCache] = None,
    stop_event: Optional[threading.Event] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    supervision: Optional[SupervisionConfig] = None,
) -> dict:
    """Run one exploration job to completion (or cancellation).

    Raises :class:`~repro.errors.ExplorationCancelled` when
    ``stop_event`` fires at a generation boundary — the checkpoint in
    ``checkpoint_dir`` is durable by then, so the scheduler can hand it
    to a later resume.
    """
    explorer = ParetoExplorer(
        handle.guard,
        space=ParameterSpace(handle.num_layers),
        config=NSGA2Config(
            population_size=spec.population,
            generations=spec.generations,
            seed=spec.seed,
        ),
        processes=spec.processes,
        checkpoint_dir=checkpoint_dir,
        resume=spec.resume,
        supervision=supervision,
        should_stop=(stop_event.is_set if stop_event is not None else None),
        progress=progress,
    )
    if shared_cache is not None:
        # Pre-warm: memoized values equal what an evaluation would
        # compute, so warm results stay bitwise identical to cold ones.
        explorer._cache.update(
            shared_cache.snapshot_for(handle.design_key)
        )
    try:
        result = explorer.explore()
    finally:
        if shared_cache is not None:
            shared_cache.absorb(handle.design_key, explorer._cache)
    return {
        "kind": "explore",
        "design": spec.design,
        "seed": spec.seed,
        "population": spec.population,
        "generations": spec.generations,
        "front": encode_front(result.pareto_front),
        "evaluations": result.evaluations,
        "cache_requests": result.cache_requests,
        "cache_hits": result.cache_hits,
        "resumed_from": result.resumed_from,
        "resilience": result.resilience.as_dict(),
    }


def run_harden_job(spec: JobSpec, handle: GuardHandle) -> dict:
    """Run one fixed-configuration harden job."""
    config = _harden_config(spec, handle)
    result = handle.guard.run(config)
    violation = result.constraint_violation(
        n_drc=handle.guard.n_drc,
        beta_power=handle.guard.beta_power,
        base_power=handle.guard.baseline_power,
    )
    return {
        "kind": "harden",
        "design": spec.design,
        "config": encode_flow_config(config),
        "objectives": list(result.objectives),
        "violation": violation,
    }


def _harden_config(spec: JobSpec, handle: GuardHandle) -> FlowConfig:
    if spec.config is not None:
        return decode_flow_config(dict(spec.config))
    return ParameterSpace(handle.num_layers).default()


def run_attack_job(
    spec: JobSpec,
    targets: List[Tuple[str, Any]],
    checkpoint_dir: Path,
    stop_event: Optional[threading.Event] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    supervision: Optional[SupervisionConfig] = None,
) -> dict:
    """Run one red-team attack campaign to completion (or cancellation).

    Batches map onto the scheduler's generation-based progress/cancel
    machinery one-to-one: the campaign checkpoints after every batch and
    raises :class:`~repro.errors.ExplorationCancelled` when
    ``stop_event`` fires at a batch boundary, so cancel, drain, retry,
    and ``resume_from`` handoff all behave exactly as for explore jobs.
    """
    campaign = AttackCampaign(
        targets,
        AttackGrid.preset(spec.grid),
        attempts=spec.attempts,
        seed=spec.seed,
        processes=spec.processes,
        checkpoint_dir=checkpoint_dir,
        resume=spec.resume,
        supervision=supervision,
        should_stop=(stop_event.is_set if stop_event is not None else None),
        progress=progress,
    )
    result = campaign.run()
    return {
        "kind": "attack",
        "design": spec.design,
        "seed": spec.seed,
        "grid": spec.grid,
        "attempts": spec.attempts,
        "summary": result.summary(),
        "resumed_from": result.resumed_from,
        "resilience": result.resilience.as_dict(),
    }
