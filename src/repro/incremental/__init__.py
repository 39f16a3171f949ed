"""``repro.incremental`` — delta evaluation for the GA inner loop.

The explorer's hot path evaluates hundreds of :class:`~repro.core.params.
FlowConfig` candidates against one baseline design.  A full evaluation
re-runs the entire flow — ECO placement, global route, STA graph
propagation, exploitable-region scan — even though most candidates differ
from an already-evaluated one only in a handful of genes.  This package
makes the timing and security re-evaluation proportional to the
*change*; routing always runs cold, because every candidate carries its
own RWS layer scales and a new scale vector re-routes almost every net:

* :class:`~repro.incremental.delta.LayoutDelta` — the change schema: which
  instances moved (old/new placement), which rows that dirties.
* :class:`~repro.incremental.engine.DeltaEvaluator` — a stateful evaluator
  holding the timed/scanned state of one layout; ``evaluate()`` applies a
  placement delta and/or a new set of RWS layer scales and returns
  routing, STA, and security results **guaranteed equal** to a full
  recompute (see below).
* The per-domain incremental primitives live next to their full-compute
  siblings: :class:`repro.timing.sta.IncrementalSTA` and
  :class:`repro.security.exploitable.IncrementalExploitableScanner`.

Oracle equivalence
------------------
Every incremental result equals the full recompute *by construction*, not
by approximation: each domain recomputes exactly the values whose inputs
changed, using the same formulas on the same floats, and leaves untouched
values cached.  ``tests/incremental/test_differential.py`` enforces this
with randomized move/scale sequences checked against the full-recompute
oracle with zero tolerance.
"""

from repro.incremental.delta import LayoutDelta
from repro.incremental.engine import DeltaEvalResult, DeltaEvaluator

__all__ = ["LayoutDelta", "DeltaEvalResult", "DeltaEvaluator"]
