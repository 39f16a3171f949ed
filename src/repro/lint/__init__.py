"""``repro.lint`` — the rule-based layout DRC/invariant analyzer.

A pluggable static-verification pass over the design database: every
invariant the GDSII-Guard operators must preserve (row legality,
blockages, frozen security assets, track capacities, netlist integrity,
gap-accounting conservation, DEF round-trip fixed point) expressed as a
:class:`~repro.lint.rules.Rule` with a stable id, a severity, and a fix
hint, emitting structured :class:`~repro.lint.violations.Violation`
diagnostics.

Entry points:

* :func:`~repro.lint.engine.run_lint` — library API;
* ``repro lint <design>`` — CLI with text/JSON output and a
  ``--fail-on`` exit-code gate;
* ``GDSIIGuard(..., check_invariants=True)`` — paranoid in-flow mode
  re-validating the layout after every ECO operator;
* the chaos and red-team test harnesses use it as their legality oracle.

The codebase-level determinism rules (DET, AST checks over the
repository's own sources) live in :mod:`repro.analysis`, not here —
this package lints *designs*, ``repro analyze`` lints *code*.
"""

from repro.lint.engine import run_lint
from repro.lint.rules import (
    BLOCKAGE,
    CELL_OVERLAP,
    DANGLING_NET,
    DEF_ROUNDTRIP,
    FROZEN_ASSETS,
    GAP_CONSERVATION,
    PIN_CONNECTIVITY,
    PLACEMENT_BOUNDS,
    TRACK_CAPACITY,
    LintContext,
    Rule,
    all_rules,
    get_rule,
    select_rules,
)
from repro.lint.violations import LintReport, Severity, Violation, merge_reports

__all__ = [
    "run_lint",
    "LintContext",
    "Rule",
    "all_rules",
    "get_rule",
    "select_rules",
    "LintReport",
    "Severity",
    "Violation",
    "merge_reports",
    "CELL_OVERLAP",
    "PLACEMENT_BOUNDS",
    "BLOCKAGE",
    "FROZEN_ASSETS",
    "GAP_CONSERVATION",
    "DANGLING_NET",
    "PIN_CONNECTIVITY",
    "TRACK_CAPACITY",
    "DEF_ROUNDTRIP",
]
