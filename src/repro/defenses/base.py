"""Common scaffolding for the baseline defenses.

Every defense takes a built design and produces a :class:`DefenseResult`
with the same metric set the GDSII-Guard flow reports, so Fig. 4 /
Table II rows compare like for like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.drc.checker import check_drc
from repro.layout.layout import Layout
from repro.power.power import analyze_power
from repro.route.router import RoutingResult, global_route
from repro.security.assets import SecurityAssets
from repro.security.exploitable import DEFAULT_THRESH_ER
from repro.security.metrics import SecurityMetrics, measure_security
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import STAResult, run_sta


@dataclass
class DefenseResult:
    """Metrics of one defended layout.

    Attributes:
        name: Defense name (``"ICAS"``, ``"BISA"``, ``"Ba"``...).
        layout: The defended layout.
        routing: Its routing.
        sta: Its timing analysis.
        security: Raw security metrics.
        tns: Total negative slack (ns).
        power: Total power (mW).
        drc_count: #DRC violations.
        runtime_s: Wall-clock seconds the defense took.
    """

    name: str
    layout: Layout
    routing: RoutingResult
    sta: STAResult
    security: SecurityMetrics
    tns: float
    power: float
    drc_count: int
    runtime_s: float = 0.0


def evaluate_layout(
    name: str,
    layout: Layout,
    constraints: TimingConstraints,
    assets: SecurityAssets,
    thresh_er: int = DEFAULT_THRESH_ER,
    routing: Optional[RoutingResult] = None,
    runtime_s: float = 0.0,
) -> DefenseResult:
    """Route (if needed), time, and measure one defended layout."""
    if routing is None:
        routing = global_route(layout)
    sta = run_sta(layout, constraints, routing=routing)
    security = measure_security(
        layout, sta, assets, routing=routing, thresh_er=thresh_er
    )
    power = analyze_power(layout, constraints, sta)
    drc = check_drc(layout, routing)
    return DefenseResult(
        name=name,
        layout=layout,
        routing=routing,
        sta=sta,
        security=security,
        tns=sta.tns,
        power=power.total,
        drc_count=drc.count,
        runtime_s=runtime_s,
    )
