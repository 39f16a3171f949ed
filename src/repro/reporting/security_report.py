"""Consolidated per-design security report (markdown).

Collects everything a security signoff reviewer would ask for into one
document: design summary, floorplan sketch, exploitable-region inventory,
extended coverage metrics, timing/power/DRC status, and the outcome of an
actual Trojan-insertion attempt.
"""

from __future__ import annotations

from typing import List, Optional

from repro.drc.checker import check_drc
from repro.layout.layout import Layout
from repro.power.power import analyze_power
from repro.reporting.layout_view import layout_to_ascii
from repro.route.router import RoutingResult
from repro.security.assets import SecurityAssets
from repro.security.exploitable import find_exploitable_regions
from repro.security.icas_metrics import (
    net_blockage,
    route_distance,
    trigger_space,
)
from repro.security.trojan import attempt_insertion
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import STAResult


def security_report(
    title: str,
    layout: Layout,
    sta: STAResult,
    assets: SecurityAssets,
    constraints: TimingConstraints,
    routing: Optional[RoutingResult] = None,
) -> str:
    """Build the markdown report for one (baseline or hardened) layout."""
    lines: List[str] = [f"# Security report — {title}", ""]

    lines += [
        "## Design",
        "",
        f"- instances: {layout.netlist.num_instances}",
        f"- core: {layout.num_rows} rows × {layout.sites_per_row} sites "
        f"({layout.core.width:.1f} × {layout.core.height:.1f} µm)",
        f"- utilization: {layout.utilization():.2f}",
        f"- clock period: {constraints.clock_period:.3f} ns",
        f"- security-critical assets: {len(assets)}",
        "",
        "## Floorplan",
        "",
        "```",
        layout_to_ascii(layout, assets=assets, width=64, height=16),
        "```",
        "",
    ]

    report = find_exploitable_regions(layout, sta, assets, routing=routing)
    lines += [
        "## Exploitable regions (Thresh_ER = "
        f"{report.thresh_er})",
        "",
        f"- regions: {report.num_regions}",
        f"- free placement sites: {report.er_sites}",
        f"- free routing tracks: {report.er_tracks:.0f}",
        "",
    ]
    for k, region in enumerate(
        sorted(report.regions, key=lambda r: -r.num_sites)[:8], start=1
    ):
        lo, hi = region.component.bounding_sites()
        rows = region.component.rows()
        lines.append(
            f"  {k}. {region.num_sites} sites, rows {rows[0]}–{rows[-1]}, "
            f"columns {lo}–{hi}, {region.free_tracks:.0f} free tracks"
        )
    if report.regions:
        lines.append("")

    hist = trigger_space(layout)
    lines += [
        "## Coverage metrics",
        "",
        f"- trigger-space runs ≥ 50 sites: {hist.buckets.get('>=50', 0)}",
        f"- trigger-space runs 20–49 sites: {hist.buckets.get('20-49', 0)}",
    ]
    if routing is not None:
        blockage = net_blockage(layout, assets, routing)
        if blockage:
            mean_blockage = sum(blockage.values()) / len(blockage)
            lines.append(
                f"- mean security-net routing blockage: {mean_blockage:.2f}"
            )
        dists = route_distance(layout, assets, report)
        finite = [v for v in dists.values() if v is not None]
        lines.append(
            "- min asset-to-region route distance: "
            + (f"{min(finite):.1f} µm" if finite else "∞ (no regions)")
        )
    lines.append("")

    power = analyze_power(layout, constraints, sta)
    drc = check_drc(layout, routing)
    lines += [
        "## Implementation status",
        "",
        f"- TNS: {sta.tns:.3f} ns (WNS {sta.wns:.3f} ns)",
        f"- power: {power.total:.3f} mW "
        f"(leak {power.leakage:.3f} / int {power.internal:.3f} / "
        f"sw {power.switching:.3f})",
        f"- #DRC: {drc.count}",
        "",
    ]

    attack = attempt_insertion(layout, sta, assets, routing=routing)
    lines += [
        "## Trojan insertion attempt (A2-class)",
        "",
        f"- outcome: {'**BREACHED**' if attack.success else 'held'}",
        f"- detail: {attack.reason}",
        "",
    ]
    return "\n".join(lines)
