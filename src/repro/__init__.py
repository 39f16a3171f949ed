"""GDSII-Guard reproduction: ECO anti-Trojan layout hardening.

Reproduction of *GDSII-Guard: ECO Anti-Trojan Optimization with
Exploratory Timing-Security Trade-Offs* (DAC 2023) on a from-scratch
Python physical-design substrate.

Quickstart::

    from repro import build_design, GDSIIGuard, ParetoExplorer

    design = build_design("MISTY")
    guard = GDSIIGuard(
        design.layout, design.constraints, design.assets,
        baseline_routing=design.routing,
    )
    result = ParetoExplorer(guard).explore()
    for point in result.pareto_front:
        print(point.genome, point.objectives)

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
scripts regenerating every table and figure of the paper.
"""

from repro import obs
from repro.bench.designs import DESIGN_NAMES, BuiltDesign, build_design
from repro.bench.suite import build_suite
from repro.core.cell_shift import cell_shift
from repro.core.flow import FlowResult, GDSIIGuard
from repro.core.local_density import local_density_adjustment
from repro.core.params import FlowConfig, ParameterSpace
from repro.core.routing_width import routing_width_scaling
from repro.defenses import ba_defense, bisa_defense, icas_defense
from repro.drc.checker import check_drc
from repro.layout.layout import Layout
from repro.netlist.netlist import Netlist
from repro.netlist.stats import compute_stats
from repro.optimize.explorer import ExplorationResult, ParetoExplorer
from repro.optimize.nsga2 import NSGA2Config
from repro.place.fillers import insert_fillers
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.power.power import analyze_power
from repro.route.router import global_route
from repro.security.assets import SecurityAssets, annotate_key_assets
from repro.security.exploitable import find_exploitable_regions
from repro.security.metrics import measure_security, security_score
from repro.security.trojan import TrojanSpec, attempt_insertion
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like
from repro.obs import Metrics
from repro.reporting.layout_view import layout_to_ascii
from repro.reporting.profile_report import profile_table
from repro.reporting.security_report import security_report
from repro.timing.constraints import TimingConstraints
from repro.timing.corners import run_multi_corner_sta
from repro.timing.delay import Corner
from repro.timing.sta import run_hold_sta, run_sta

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Metrics",
    "profile_table",
    "DESIGN_NAMES",
    "BuiltDesign",
    "build_design",
    "build_suite",
    "cell_shift",
    "FlowResult",
    "GDSIIGuard",
    "local_density_adjustment",
    "FlowConfig",
    "ParameterSpace",
    "routing_width_scaling",
    "ba_defense",
    "bisa_defense",
    "icas_defense",
    "check_drc",
    "Layout",
    "Netlist",
    "compute_stats",
    "ExplorationResult",
    "ParetoExplorer",
    "NSGA2Config",
    "insert_fillers",
    "GlobalPlacementSpec",
    "global_place",
    "analyze_power",
    "global_route",
    "SecurityAssets",
    "annotate_key_assets",
    "find_exploitable_regions",
    "measure_security",
    "security_score",
    "TrojanSpec",
    "attempt_insertion",
    "nangate45_library",
    "nangate45_like",
    "layout_to_ascii",
    "security_report",
    "TimingConstraints",
    "Corner",
    "run_multi_corner_sta",
    "run_hold_sta",
    "run_sta",
]
