"""Deterministic fake evaluators for service tests and smoke loads.

These are the canonical fakes the chaos/differential suites (and
``repro serve --guard fake``) run against: millisecond-scale, fully
deterministic, and computed with plain arithmetic on the genome — never
``hash()``, which would couple results to ``PYTHONHASHSEED`` and break
every bitwise assertion.  They live in the package (not in ``tests/``)
so a *subprocess* daemon can use them: the killed-daemon chaos test and
the CI smoke-load job both start ``repro serve --guard fake`` and need
the fake evaluator importable from the installed package.

``FakeGuard`` implements exactly the slice of the ``GDSIIGuard``
protocol the explorer and supervisor touch: ``run(config)`` returning
an object with ``objectives`` and ``constraint_violation``, plus the
constraint attributes (``n_drc``/``beta_power``/``baseline_power``).
"""

from __future__ import annotations

import os
import time
from typing import Any, List, Tuple

from repro import obs
from repro.core.params import FlowConfig
from repro.redteam.surface import AttackAttempt, AttemptOutcome
from repro.resilience import faults
from repro.service.jobs import JobSpec
from repro.service.runner import GuardHandle

__all__ = [
    "FakeResult",
    "FakeGuard",
    "ObsFakeGuard",
    "FakeAttackSurface",
    "FakeGuardFactory",
]

#: RWS gene count the fake parameter space uses everywhere.
FAKE_NUM_LAYERS = 3


class FakeResult:
    """Minimal stand-in for FlowResult: objectives + a violation hook."""

    def __init__(
        self, objectives: Tuple[float, ...], violation: float = 0.0
    ) -> None:
        self.objectives = objectives
        self._violation = violation

    def constraint_violation(
        self, n_drc: int, beta_power: float, base_power: float
    ) -> float:
        return self._violation


class FakeGuard:
    """Deterministic millisecond-scale evaluator with the guard protocol.

    Computes on ``config.canonical()`` — the evaluator must be invariant
    over canonical equivalence classes (a CS config ignores its LDA
    genes), exactly like the real flow.  The shared evaluation cache is
    keyed canonically, so a fake that read don't-care genes would let a
    warm cache serve a *different class representative's* objectives and
    break the bitwise differential contract.
    """

    n_drc = 20
    beta_power = 1.2
    baseline_power = 1.0

    #: Optional per-evaluation sleep.  Changes *when* results arrive,
    #: never *what* they are, so bitwise oracles still hold — chaos
    #: tests widen their kill windows with it (in a daemon subprocess,
    #: via the ``REPRO_FAKE_EVAL_SLEEP_S`` environment knob).
    eval_sleep_s = 0.0

    def run(self, config: FlowConfig) -> FakeResult:
        if self.eval_sleep_s > 0:
            time.sleep(self.eval_sleep_s)
        c = config.canonical()
        s = (
            0.1 * c.lda_n
            + 0.01 * c.lda_n_iter
            + sum(c.rws_scales)
        ) * (1.0 if c.op_select == "CS" else 0.9)
        return FakeResult((round(s % 1.0, 6), round((s * 7) % 2.0, 6)))


class ObsFakeGuard(FakeGuard):
    """FakeGuard that emits an obs counter and honors flow-level faults,
    so tests can assert partial metric deltas survive injected failures."""

    def run(self, config: FlowConfig) -> FakeResult:
        obs.count("fake.evals")
        faults.maybe_flow_fault()
        return super().run(config)


class FakeAttackSurface:
    """Deterministic millisecond-scale attack surface for campaign tests.

    Success is plain arithmetic on the attempt seed (which is itself a
    sha256 digest of the attempt coordinates, so ``seed % 997`` is a
    uniform-enough coin): an attempt succeeds when its coin clears the
    surface's ``resistance``.  A hardened fake is simply a surface with
    higher resistance, which keeps the CI gate's hardened-vs-baseline
    success-rate comparison meaningful on the fake tier.  Outcome dicts
    carry the full real-surface schema so report renderers and goldens
    exercise identical shapes.
    """

    n_drc = 0
    beta_power = 0.0
    baseline_power = 1.0

    def __init__(self, target_id: str, resistance: float = 0.25) -> None:
        self.target_id = target_id
        self.resistance = resistance

    def run(self, attempt: AttackAttempt) -> AttemptOutcome:
        obs.count("fake.attacks")
        faults.maybe_flow_fault()
        coin = (attempt.seed % 997) / 997.0
        success = coin >= self.resistance
        sites = attempt.point.thresh_er + attempt.seed % 17
        gates = len(attempt.point.trojan_spec().gate_masters)
        outcome = {
            "target": attempt.target,
            "spec_id": attempt.point.spec_id,
            "attempt": attempt.attempt,
            "seed": attempt.seed,
            "success": success,
            "reason": (
                "fake implant seated" if success
                else "fake region resisted"
            ),
            "region_sites": sites if success else 0,
            "gates_placed": gates if success else 0,
            "tap_length_um": float(attempt.seed % 23) if success else 0.0,
            "region_distance_um": float(attempt.seed % 31),
            "tns_delta": -float(attempt.seed % 13) / 10.0 if success
            else None,
            "drc_delta": attempt.seed % 3 if success else None,
        }
        return AttemptOutcome(outcome)


class FakeGuardFactory:
    """Guard factory serving :class:`ObsFakeGuard` for any design name.

    The design key embeds the name so two fake "designs" never share
    cache entries; the guard honors injected faults so served chaos
    scenarios exercise the same recovery paths as direct explorations.
    """

    def __init__(self, guard_cls: "type[FakeGuard]" = ObsFakeGuard) -> None:
        self.guard_cls = guard_cls
        # `repro serve --guard fake` runs in a subprocess, so chaos
        # tests pass the throttle through the environment.
        self.eval_sleep_s = float(
            os.environ.get("REPRO_FAKE_EVAL_SLEEP_S", "0") or 0.0
        )

    def validate(self, design: str) -> None:
        pass  # any non-empty name is a valid fake design

    def build(self, design: str) -> GuardHandle:
        guard = self.guard_cls()
        if self.eval_sleep_s > 0:
            guard.eval_sleep_s = self.eval_sleep_s
        return GuardHandle(
            guard=guard,
            design_key=f"fake:{design}",
            num_layers=FAKE_NUM_LAYERS,
        )

    def build_attack(self, spec: JobSpec) -> List[Tuple[str, Any]]:
        """Fake campaign targets: baseline, plus a tougher hardened
        surface whenever the spec carries a flow configuration."""
        targets: List[Tuple[str, Any]] = [
            ("baseline", FakeAttackSurface("baseline", resistance=0.25))
        ]
        if spec.config is not None:
            targets.append(
                ("hardened", FakeAttackSurface("hardened", resistance=0.6))
            )
        return targets
