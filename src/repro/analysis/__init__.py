"""Static analysis of the repro sources: determinism, effects, concurrency.

One engine checks both the *line-local* determinism rules (DET: no
unseeded RNG, no wall clock, no blanket ``except``, no library
``print``, sorted set iteration in serializers) and the
**whole-program** contracts every bitwise guarantee in the repo
silently leans on: query paths must not mutate the design database,
worker closures must not capture locks or module RNGs, and async
service handlers must never block the event loop.

The pipeline:

1. :mod:`repro.analysis.model` parses every module under ``src/repro``
   into a light project model (functions, classes, imports, globals).
2. :mod:`repro.analysis.callgraph` resolves call sites, builds per
   function type environments, and records concurrency facts (event-loop
   callbacks, worker-pool targets, closure captures).
3. :mod:`repro.analysis.effects` infers per-function effect sets —
   ``mutates_arg`` / ``mutates_global`` / ``io`` / ``rng`` / ``spawn`` /
   ``blocking`` / ``lock`` — by fixed-point propagation over the graph.
4. :mod:`repro.analysis.rules` walks each parsed module for the DET
   rules and checks the inferred effects against the declared purity
   contracts (:mod:`repro.analysis.contracts`) and the async/fork
   safety invariants, emitting DET/EFF/ASY/FRK findings.

Run it as ``repro analyze`` (see the CLI) or programmatically through
:func:`repro.analysis.engine.analyze_tree`.  Findings of every family
suppress per line with a ``# repro-lint: disable=<RULE>`` pragma, and
CI ratchets the baseline (``tools/analysis_ratchet.json``) down only.
"""

from __future__ import annotations

from repro.analysis.engine import analyze_sources, analyze_tree
from repro.analysis.findings import AnalysisReport, Finding, Severity
from repro.analysis.rules import RULES, RuleSpec

__all__ = [
    "AnalysisReport",
    "Finding",
    "RULES",
    "RuleSpec",
    "Severity",
    "analyze_sources",
    "analyze_tree",
]
