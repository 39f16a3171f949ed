"""Attack surfaces: the campaign's per-target evaluators.

A *surface* wraps one target layout behind the same evaluator protocol
the supervised worker pool already speaks for flow evaluations —
``run(task) -> result`` with ``result.objectives`` and
``result.constraint_violation(...)`` plus the constraint attributes —
so :class:`~repro.resilience.supervisor.TaskSupervisor` gives attack
attempts per-attempt crash isolation, timeouts, and retry for free.

Here ``objectives`` is not a float tuple but the attempt's **outcome
dict**: a plain-JSON record of success/failure, the region geometry the
attacker used, and (for successful implants) the timing and DRC impact
of the implant.  Every value round-trips JSON exactly, which is what
lets campaign summaries be bitwise-compared across worker counts and
kill/resume schedules.

An attempt pays only for its own work: the seeded gate packing, the
corridor check and the implant's delta.  Each surface ranks its regions
once per Thresh_ER (:func:`~repro.security.trojan.rank_regions`, filled
lazily in every process) and measures impact with
:class:`~repro.redteam.impact.ImplantImpact` from the base timing state
of its own ``run_sta`` call, without rebuilding the design.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.drc.checker import check_drc
from repro.redteam.grid import AttackSpecPoint
from repro.redteam.impact import ImplantImpact
from repro.resilience import faults
from repro.security.assets import SecurityAssets
from repro.security.trojan import (
    RegionRanking,
    attempt_insertion,
    implant_wiring,
    rank_regions,
)
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import STAResult, run_sta

# perfbench's traced run binds this name (``BOUNDARIES`` in
# perfbench/tracing.py), so it stays importable from this module.
from repro.security.trojan import materialize_implant  # noqa: F401

__all__ = ["AttackAttempt", "AttemptOutcome", "LayoutAttackSurface"]


@dataclass(frozen=True)
class AttackAttempt:
    """One supervised task: a seeded attempt of one spec on one target."""

    target: str
    point: AttackSpecPoint
    attempt: int
    seed: int


class AttemptOutcome:
    """Evaluator-protocol shim: the outcome dict rides as ``objectives``.

    Attack attempts have no Deb-style constraints, so the violation hook
    is identically zero — the supervisor's bookkeeping still works and
    the campaign ignores the value.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.objectives = payload

    def constraint_violation(
        self, n_drc: int, beta_power: float, base_power: float
    ) -> float:
        return 0.0


#: Region rankings per surface and Thresh_ER.  A write-once memo of a
#: pure function of the target, filled lazily in each process; kept at
#: module level (weakly keyed) like the kernels' memo caches, which the
#: surface's purity contract allows by name.
_RANKINGS: (
    "weakref.WeakKeyDictionary[LayoutAttackSurface, Dict[int, RegionRanking]]"
) = weakref.WeakKeyDictionary()


class LayoutAttackSurface:
    """One real target layout, attackable under supervision.

    Built once in the campaign parent; forked workers inherit the whole
    design database through process memory, so tasks stay tiny (an
    :class:`AttackAttempt` is a few scalars).  Attempts never mutate the
    design: the attacker is a pure query, regions are ranked once per
    Thresh_ER, and impact is computed from the base timing state of the
    target (:class:`~repro.redteam.impact.ImplantImpact`), whose
    ``materialize_implant`` oracle the tests check it against.

    Args:
        target_id: Stable name of this target in campaign summaries
            (``"baseline"``, ``"hardened"``, ``"front-3"``...).
        layout / sta / assets / routing: The design database under
            attack (never mutated).
        constraints: Timing constraints; required for slack-impact
            measurement.
        measure_impact: Measure TNS/DRC deltas of successful implants
            (skipped when ``constraints`` is ``None``).
    """

    # evaluator-protocol constraint attributes (unused by attacks)
    n_drc = 0
    beta_power = 0.0
    baseline_power = 1.0

    def __init__(
        self,
        target_id: str,
        layout: Any,
        sta: STAResult,
        assets: SecurityAssets,
        routing: Optional[object] = None,
        constraints: Optional[TimingConstraints] = None,
        measure_impact: bool = True,
    ) -> None:
        self.target_id = target_id
        self.layout = layout
        self.sta = sta
        self.assets = assets
        self.routing = routing
        self.constraints = constraints
        self.measure_impact = measure_impact and constraints is not None
        self._base_tns: Optional[float] = None
        self._base_drc: Optional[int] = None
        self._impact: Optional[ImplantImpact] = None
        if constraints is not None and self.measure_impact:
            # Eager: computed pre-fork so every worker shares the state.
            # No routing: the implanted design is timed on HPWL estimates.
            self._base_tns = run_sta(layout, constraints).tns
            self._base_drc = check_drc(layout).count
            self._impact = ImplantImpact(layout, constraints, self._base_drc)

    def _ranking(self, thresh_er: int) -> RegionRanking:
        """This target's region ranking at ``thresh_er`` (memoized)."""
        memo = _RANKINGS.setdefault(self, {})
        ranked = memo.get(thresh_er)
        if ranked is None:
            ranked = rank_regions(
                self.layout, self.sta, self.assets, thresh_er, self.routing
            )
            memo[thresh_er] = ranked
        return ranked

    def run(self, attempt: AttackAttempt) -> AttemptOutcome:
        """Evaluate one seeded insertion attempt (supervisor protocol)."""
        faults.maybe_flow_fault()
        point = attempt.point
        spec = point.trojan_spec()
        rng = np.random.default_rng(attempt.seed)
        report = attempt_insertion(
            self.layout,
            self.sta,
            self.assets,
            routing=self.routing,
            spec=spec,
            thresh_er=point.thresh_er,
            rng=rng,
            ranked=self._ranking(point.thresh_er),
        )
        outcome: Dict[str, Any] = {
            "target": attempt.target,
            "spec_id": point.spec_id,
            "attempt": attempt.attempt,
            "seed": attempt.seed,
            "success": report.success,
            "reason": report.reason,
            "region_sites": report.region_sites,
            "gates_placed": report.gates_placed,
            "tap_length_um": report.tap_length_um,
            "region_distance_um": report.region_distance_um,
            "tns_delta": None,
            "drc_delta": None,
        }
        if report.success and self._impact is not None:
            tns, drc = self._impact.measure(
                implant_wiring(self.layout, report)
            )
            assert self._base_tns is not None and self._base_drc is not None
            outcome["tns_delta"] = tns - self._base_tns
            outcome["drc_delta"] = drc - self._base_drc
        return AttemptOutcome(outcome)
