"""The :class:`DeltaEvaluator` — one stateful route/STA/security pipeline.

The evaluator owns the incremental state for **one** layout lineage: an
:class:`~repro.timing.sta.IncrementalSTA` instance and an
:class:`~repro.security.exploitable.IncrementalExploitableScanner`.  Each
:meth:`DeltaEvaluator.evaluate` call snapshots the layout's placements,
diffs them against the previous snapshot to derive a
:class:`~repro.incremental.delta.LayoutDelta` (robust even when the
caller mutates the layout in place), and then runs

1. a cold global route under the call's NDR (a new routing-width vector
   re-routes almost every net, so no routing state is carried over),
2. delta-STA (re-propagate only the affected timing cones), and
3. delta-security (re-scan only rows whose gap structure changed).

Every result is equal to the corresponding full recompute by
construction; ``tests/incremental/test_differential.py`` enforces this
against the full-recompute oracle with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.incremental.delta import LayoutDelta
from repro.layout.layout import Layout, Placement
from repro.route.ndr import NonDefaultRule
from repro.route.router import RoutingResult, global_route
from repro.security.assets import SecurityAssets
from repro.security.exploitable import (
    DEFAULT_THRESH_ER,
    ExploitableReport,
    IncrementalExploitableScanner,
)
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import IncrementalSTA, STAResult


@dataclass
class DeltaEvalResult:
    """One incremental evaluation's outputs.

    Attributes:
        routing: The routing result of a cold :func:`~repro.route.
            router.global_route` under ``ndr``.
        ndr: The non-default rule the routing used.
        sta: STA result — bitwise equal to a fresh :func:`~repro.timing.
            sta.run_sta` on the same layout/routing.
        security: Exploitable-region report — equal to a fresh
            :func:`~repro.security.exploitable.find_exploitable_regions`.
        delta: The placement delta this evaluation applied.
    """

    routing: RoutingResult
    ndr: NonDefaultRule
    sta: STAResult
    security: ExploitableReport
    delta: LayoutDelta


class DeltaEvaluator:
    """Incremental route→STA→security evaluator for one layout lineage.

    Args:
        layout: The layout to evaluate (may be mutated in place between
            calls — the evaluator diffs placements itself).
        constraints: Timing constraints for STA.
        assets: Security assets for the exploitable-region scan.
        thresh_er: Exploitable-region site threshold.
    """

    def __init__(
        self,
        layout: Layout,
        constraints: TimingConstraints,
        assets: SecurityAssets,
        thresh_er: int = DEFAULT_THRESH_ER,
    ) -> None:
        self.layout = layout
        self.constraints = constraints
        self.assets = assets
        self.thresh_er = thresh_er
        self._placements: Optional[Dict[str, Placement]] = None
        self._sta: Optional[IncrementalSTA] = None
        self._scanner: Optional[IncrementalExploitableScanner] = None

    def evaluate(
        self,
        ndr: Optional[NonDefaultRule] = None,
        layout: Optional[Layout] = None,
    ) -> DeltaEvalResult:
        """Evaluate the current layout state under ``ndr``.

        Args:
            ndr: Layer-scale rule for routing (default rule when None).
            layout: Replacement layout object of the same netlist; when
                omitted the evaluator re-reads the layout it was built
                with (which the caller may have mutated in place).

        Returns:
            A :class:`DeltaEvalResult` equal to a full recompute.
        """
        if layout is not None:
            self.layout = layout
        layout = self.layout
        if ndr is None:
            ndr = NonDefaultRule.default(layout.technology.num_layers)

        snapshot = dict(layout.placements)
        if self._placements is None:
            delta = LayoutDelta.empty()
        else:
            delta = _diff_placements(self._placements, snapshot)
        self._placements = snapshot

        # The flow.* spans keep the per-stage profile comparable between
        # the incremental and full pipelines; the incremental.* spans
        # isolate the delta engine's own cost.
        with obs.timed("flow.route"), obs.timed("incremental.route"):
            routing = global_route(layout, ndr=ndr)

        with obs.timed("flow.sta"), obs.timed("incremental.sta"):
            if self._sta is None:
                self._sta = IncrementalSTA(
                    layout, self.constraints, routing=routing
                )
                sta = self._sta.result
            else:
                sta = self._sta.update(routing=routing, layout=layout)

        with obs.timed("flow.security"), obs.timed("incremental.security"):
            if self._scanner is None:
                self._scanner = IncrementalExploitableScanner(
                    layout,
                    sta,
                    self.assets,
                    thresh_er=self.thresh_er,
                    routing=routing,
                )
                security = self._scanner.report
            else:
                security = self._scanner.update(
                    sta,
                    routing=routing,
                    layout=layout,
                    dirty_rows=delta.dirty_rows(),
                )

        obs.count("incremental.evaluations")
        return DeltaEvalResult(
            routing=routing, ndr=ndr, sta=sta, security=security, delta=delta
        )


def _diff_placements(
    old: Dict[str, Placement], new: Dict[str, Placement]
) -> LayoutDelta:
    """Placement-dict diff (both directions) as a :class:`LayoutDelta`."""
    moved: Dict[str, tuple] = {}
    for name, pl in new.items():
        prev = old.get(name)
        if prev != pl:
            moved[name] = (prev, pl)
    for name, prev in old.items():
        if name not in new:
            moved[name] = (prev, None)
    return LayoutDelta(moved=moved)
