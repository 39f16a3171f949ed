"""Suite-level helpers: build all designs, summarize baseline metrics."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.bench.designs import DESIGN_NAMES, BuiltDesign, build_design
from repro.drc.checker import check_drc
from repro.power.power import analyze_power
from repro.security.metrics import SecurityMetrics, measure_security


def build_suite(names: Optional[Iterable[str]] = None) -> Dict[str, BuiltDesign]:
    """Build every requested design (default: the full 12-design suite)."""
    return {name: build_design(name) for name in (names or DESIGN_NAMES)}


def baseline_metrics(design: BuiltDesign, thresh_er: int = 20) -> Dict[str, float]:
    """Baseline (unprotected) metric row for one design.

    Returns a dict with keys ``tns``, ``wns``, ``power``, ``drc``,
    ``er_sites``, ``er_tracks``, ``utilization``, ``cells``.
    """
    power = analyze_power(design.layout, design.constraints, design.sta)
    drc = check_drc(design.layout, design.routing)
    security = measure_security(
        design.layout,
        design.sta,
        design.assets,
        routing=design.routing,
        thresh_er=thresh_er,
    )
    return {
        "tns": design.sta.tns,
        "wns": design.sta.wns,
        "power": power.total,
        "drc": float(drc.count),
        "er_sites": float(security.er_sites),
        "er_tracks": security.er_tracks,
        "utilization": design.layout.utilization(),
        "cells": float(design.netlist.num_instances),
    }


def baseline_security(design: BuiltDesign, thresh_er: int = 20) -> SecurityMetrics:
    """Baseline security metrics of one design (ERsites/ERtracks)."""
    return measure_security(
        design.layout,
        design.sta,
        design.assets,
        routing=design.routing,
        thresh_er=thresh_er,
    )
