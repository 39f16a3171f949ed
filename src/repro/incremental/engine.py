"""The :class:`DeltaEvaluator` — route, time and scan one placed layout.

Each operator-memo entry of :class:`~repro.core.flow.GDSIIGuard` owns one
evaluator for its placed layout.  Every :meth:`DeltaEvaluator.evaluate`
call routes that layout cold under the call's NDR, then runs a cold STA
and a cold exploitable-region scan on the new routing.  The evaluator
keeps the layout's :class:`~repro.route.router.RoutePlan` from its first
route and hands it to every later one, so the pin pairs and base tiers
are derived once per placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.layout.layout import Layout
from repro.route.ndr import NonDefaultRule
from repro.route.router import RoutePlan, RoutingResult, global_route
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
    """One evaluation's routing, STA result and exploitable regions."""

    routing: RoutingResult
    sta: STAResult
    security: ExploitableReport


class DeltaEvaluator:
    """Route → STA → security scan of one memoized placed layout.

    perfbench's traced run binds this class until ROADMAP item 1 re-points it.

    Args:
        layout: The placed layout (read-only from here on).
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
        self._plan: Optional[RoutePlan] = None
        self._sta: Optional[IncrementalSTA] = None
        self._scanner: Optional[IncrementalExploitableScanner] = None

    def evaluate(self, ndr: NonDefaultRule) -> DeltaEvalResult:
        """Route the layout under ``ndr``, then time and scan it."""
        layout = self.layout
        with obs.timed("flow.route"):
            routing = global_route(layout, ndr=ndr, plan=self._plan)
            self._plan = routing.plan
        with obs.timed("flow.sta"):
            if self._sta is None:
                self._sta = IncrementalSTA(
                    layout, self.constraints, routing=routing
                )
                sta = self._sta.result
            else:
                sta = self._sta.update(routing)
        with obs.timed("flow.security"):
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
                security = self._scanner.update(sta, routing)
        return DeltaEvalResult(routing=routing, sta=sta, security=security)
