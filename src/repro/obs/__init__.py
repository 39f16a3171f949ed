"""``repro.obs`` — observability: metrics, stage timers, flow tracing.

The flow is a multi-stage pipeline (ECO placement → routing → STA →
security scoring inside an NSGA-II outer loop); this package answers
"where does the time go" for all of it:

* a :class:`~repro.obs.metrics.Metrics` registry (counters, gauges,
  histograms) with JSON snapshots CI can archive and diff;
* :class:`timed` — a context-manager/decorator recording wall-clock and
  peak RSS per stage into the registry and the trace;
* a structured JSONL event trace with nested spans
  (flow → operator → generation); see :mod:`repro.obs.trace`.

Everything is **off by default** and near-zero-cost while off: the
library call sites allocate one small handle and check one boolean, and
no metric, span, or I/O work happens.  Turn it on explicitly::

    from repro import obs

    obs.enable(trace_path="run.jsonl")
    ...  # run flows / exploration
    obs.disable()                      # flushes + closes the trace
    print(obs.get_metrics().snapshot())

or from the environment: ``REPRO_OBS=1`` (optionally
``REPRO_OBS_TRACE=/path/to/trace.jsonl``) enables collection at import
time — handy for profiling a CLI run without touching code.

Process-parallel note: a forked GA worker inherits the enabled flag,
the registry contents, and the trace writer's shared file description;
:func:`worker_detach` (called from the worker loop in
:mod:`repro.resilience.supervisor`) drops the latter two so each task can
report a clean per-worker delta, folded back into the parent registry
with :meth:`Metrics.merge_snapshot`.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path
from typing import IO, Optional, Union

from repro.obs.metrics import Counter, Gauge, Histogram, Metrics
from repro.obs.trace import Span, TraceWriter, read_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "Span",
    "TraceWriter",
    "read_trace",
    "timed",
    "point",
    "count",
    "gauge_set",
    "observe",
    "enable",
    "disable",
    "is_enabled",
    "get_metrics",
    "get_trace",
    "worker_detach",
]

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None


def _peak_rss_kb() -> float:
    """Process peak RSS in KB (a monotonic high-water mark on Linux)."""
    if _resource is None:  # pragma: no cover - non-POSIX platform
        return 0.0
    return float(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class _ObsState:
    """Module-global observability state (one per process)."""

    __slots__ = ("enabled", "metrics", "trace")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = Metrics()
        self.trace: Optional[TraceWriter] = None


_STATE = _ObsState()


def enable(
    trace_path: Union[str, Path, IO[str], None] = None,
    reset: bool = True,
) -> Metrics:
    """Turn collection on; optionally open a JSONL trace sink.

    Args:
        trace_path: File path (or open text handle) for the event trace;
            ``None`` collects metrics only.
        reset: Start from an empty registry (default).  Pass ``False`` to
            accumulate across enable/disable windows.

    Returns:
        The active :class:`Metrics` registry.
    """
    if _STATE.trace is not None:
        _STATE.trace.close()
        _STATE.trace = None
    if reset:
        _STATE.metrics.reset()
    if trace_path is not None:
        _STATE.trace = TraceWriter(trace_path)
    _STATE.enabled = True
    return _STATE.metrics


def disable() -> None:
    """Turn collection off and flush/close the trace (metrics persist)."""
    _STATE.enabled = False
    if _STATE.trace is not None:
        _STATE.trace.close()
        _STATE.trace = None


def is_enabled() -> bool:
    return _STATE.enabled


def get_metrics() -> Metrics:
    """The process-global registry (valid whether or not enabled)."""
    return _STATE.metrics


def get_trace() -> Optional[TraceWriter]:
    """The active trace writer, or ``None``."""
    return _STATE.trace


def worker_detach() -> None:
    """Prepare a forked worker process for clean collection.

    A fork inherits the parent's state wholesale: the enabled flag (which
    we keep), the registry contents (which would double-count if merged
    back), and the trace writer — whose underlying file description is
    *shared* with the parent, so worker writes would interleave duplicate
    span ids into the parent's trace.  Drop the trace reference without
    closing it (closing would emit forced-end events onto the shared
    description) and start from an empty registry so a later snapshot is a
    pure per-worker delta, mergeable with :meth:`Metrics.merge_snapshot`.
    """
    _STATE.trace = None
    _STATE.metrics.reset()


# ---------------------------------------------------------------------- #
# gated convenience recorders (no-ops while disabled)
# ---------------------------------------------------------------------- #


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` if observability is enabled."""
    if _STATE.enabled:
        _STATE.metrics.counter(name).inc(n)


def gauge_set(name: str, value: float, keep_max: bool = False) -> None:
    """Set gauge ``name`` if observability is enabled."""
    if _STATE.enabled:
        g = _STATE.metrics.gauge(name)
        g.set_max(value) if keep_max else g.set(value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` if enabled."""
    if _STATE.enabled:
        _STATE.metrics.histogram(name).observe(value)


def point(name: str, **attrs) -> None:
    """Emit an instantaneous trace event (and nothing else) if enabled."""
    if _STATE.enabled and _STATE.trace is not None:
        _STATE.trace.point(name, attrs or None)


class timed:
    """Stage timer: context manager and decorator.

    As a context manager::

        with obs.timed("flow.sta"):
            run_sta(...)

    As a decorator (the enabled check happens per call, so decorating at
    import time is safe)::

        @obs.timed("route.global")
        def global_route(...): ...

    Per stage it records, under the stage name:

    * ``<stage>.calls`` (counter), ``<stage>.errors`` (counter, only on
      exceptions),
    * ``<stage>.wall_s`` (histogram of wall-clock seconds),
    * ``<stage>.peak_rss_kb`` (gauge, process high-water mark at exit),

    and opens a nested span in the active trace.  While observability is
    disabled the whole thing is one attribute check per enter/exit.
    """

    __slots__ = ("stage", "attrs", "_active", "_t0", "_span")

    def __init__(self, stage: str, **attrs) -> None:
        self.stage = stage
        self.attrs = attrs
        self._active = False
        self._t0 = 0.0
        self._span: Optional[Span] = None

    def __enter__(self) -> "timed":
        st = _STATE
        if not st.enabled:
            return self
        self._active = True
        self._span = (
            st.trace.begin(self.stage, self.attrs or None)
            if st.trace is not None
            else None
        )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            return False
        self._active = False
        wall = time.perf_counter() - self._t0
        rss = _peak_rss_kb()
        st = _STATE
        m = st.metrics
        m.counter(f"{self.stage}.calls").inc()
        m.histogram(f"{self.stage}.wall_s").observe(wall)
        m.gauge(f"{self.stage}.peak_rss_kb").set_max(rss)
        if exc_type is not None:
            m.counter(f"{self.stage}.errors").inc()
        if st.trace is not None and self._span is not None:
            st.trace.end(self._span, peak_rss_kb=rss, ok=exc_type is None)
            self._span = None
        return False

    def __call__(self, fn):
        stage, attrs = self.stage, self.attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with timed(stage, **attrs):
                return fn(*args, **kwargs)

        return wrapper


# Environment opt-in: REPRO_OBS=1 [REPRO_OBS_TRACE=/path/trace.jsonl]
if os.environ.get("REPRO_OBS", "").strip() not in ("", "0"):  # pragma: no cover
    enable(trace_path=os.environ.get("REPRO_OBS_TRACE") or None)
