"""``repro.incremental`` — the evaluator behind the operator memo.

:class:`~repro.core.flow.GDSIIGuard` memoizes one placed layout per
operator key.  Each entry owns a :class:`~repro.incremental.engine.
DeltaEvaluator`, which routes that layout cold under a candidate's RWS
scales and re-times and re-scans it cold (:func:`~repro.timing.sta.
run_sta`, :func:`~repro.security.exploitable.find_exploitable_regions`).
"""

from repro.incremental.engine import DeltaEvalResult, DeltaEvaluator

__all__ = ["DeltaEvalResult", "DeltaEvaluator"]
