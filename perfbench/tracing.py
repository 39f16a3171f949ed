"""Span tracing from outside the program: timing wrappers at layer boundaries.

The traced run swaps, in its own process, the module attributes the
program looks up at call time (and the public methods listed in
:data:`BOUNDARIES`) for wrappers that record one :class:`Span` per call.
No program file changes; :meth:`Tracer.uninstall` restores every
original.  Spans stay in memory; :func:`write_spans` writes them out when
the run ends.

A span's *self time* is its duration minus the time its child spans
cover.  Self times of a whole span tree telescope to the duration of its
roots, so ``wall - sum(self time of layer spans)`` is exactly the time no
layer boundary accounts for: the benchmark's own operation spans and
untraced gaps (see :func:`ledger`).
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span name of the benchmark's own per-operation span.  Its self time is
#: work inside an operation that no layer boundary covers.
OP_SPAN = "op"


@dataclass(frozen=True)
class Boundary:
    """One layer metric and the call sites that feed it.

    ``targets`` are ``(module, attribute path)`` pairs: a module-level
    function as the program looks it up at call time (``"global_route"``
    in ``repro.incremental.engine``), or a method on a class
    (``"GDSIIGuard.__init__"``).
    """

    name: str
    targets: Tuple[Tuple[str, str], ...]
    count_only: bool = False


#: The layer boundaries timed in the traced run, in report order.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("route.global_route", (
        ("repro.incremental.engine", "global_route"),
        ("repro.core.routing_width", "global_route"),
    )),
    Boundary("core.place_op", (
        ("repro.core.flow", "cell_shift"),
        ("repro.core.flow", "local_density_adjustment"),
    )),
    Boundary("core.guard_init", (("repro.core.flow", "GDSIIGuard.__init__"),)),
    Boundary("flow.run", (("repro.core.flow", "GDSIIGuard.run"),),
             count_only=True),
    Boundary("incremental.evaluate", (
        ("repro.incremental.engine", "DeltaEvaluator.evaluate"),
    )),
    Boundary("timing.sta_full", (
        ("repro.core.flow", "run_sta"),
        ("repro.redteam.surface", "run_sta"),
    )),
    Boundary("timing.sta_incr", (
        ("repro.timing.sta", "IncrementalSTA.__init__"),
        ("repro.timing.sta", "IncrementalSTA.update"),
    )),
    Boundary("security.scan_full", (
        ("repro.security.trojan", "find_exploitable_regions"),
    )),
    Boundary("security.trojan", (
        ("repro.redteam.surface", "attempt_insertion"),
    )),
    Boundary("security.implant", (
        ("repro.redteam.surface", "materialize_implant"),
    )),
    Boundary("security.scan_incr", (
        ("repro.security.exploitable",
         "IncrementalExploitableScanner.__init__"),
        ("repro.security.exploitable",
         "IncrementalExploitableScanner.update"),
    )),
    Boundary("power.analyze", (("repro.core.flow", "analyze_power"),)),
    Boundary("drc.check", (
        ("repro.core.flow", "check_drc"),
        ("repro.drc.checker", "check_drc"),
    )),
    Boundary("layout.clone", (("repro.layout.layout", "Layout.clone"),)),
    Boundary("optimize.select", (
        ("repro.optimize.explorer", "nsga2_select"),
    )),
    Boundary("resilience.batch", (
        ("repro.resilience.supervisor", "TaskSupervisor.run"),
    )),
    Boundary("resilience.checkpoint", (
        ("repro.resilience.checkpoint", "ExplorationCheckpoint.save"),
        ("repro.redteam.checkpoint", "CampaignCheckpoint.save"),
    )),
    Boundary("redteam.attempt", (
        ("repro.redteam.surface", "LayoutAttackSurface.run"),
    )),
)

#: Boundaries that report a self time (count-only ones report calls).
TIMED_BOUNDARIES = tuple(b.name for b in BOUNDARIES if not b.count_only)


@dataclass
class Span:
    """One traced call: name, raw start/end, parent span, operation id."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    warm: bool = False
    children: List[int] = field(default_factory=list)


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._next_op = 0
        self._restore: List[Tuple[object, str, object]] = []
        self.recording = False

    # -- recording ---------------------------------------------------- #

    def open(self, name: str, warm: bool = False) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self._clock(), parent=parent, op=self._op, warm=warm)
        )
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self._clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order at {idx}")

    def op(self, fn: Callable) -> Callable:
        """Wrap one operation: a root span carrying a fresh operation id."""

        def traced_op(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            outer = self._op
            self._op = self._next_op
            self._next_op += 1
            idx = self.open(OP_SPAN)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._op = outer

        return traced_op

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        """``fn`` recording a span (or, if count-only, a count) per call."""
        name = boundary.name
        tracer = self

        if boundary.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.recording:
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(
                name, warm=kwargs.get("warm_start") is not None
            )
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation ------------------------------------------------- #

    def install(self, boundaries: Sequence[Boundary] = BOUNDARIES) -> None:
        """Swap every boundary target for its timing wrapper."""
        for boundary in boundaries:
            for module_name, path in boundary.targets:
                owner: object = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(boundary, original))

    def uninstall(self) -> None:
        """Put every original attribute back (reverse install order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #


def self_times(
    spans: Sequence[Span], duration: Callable[[float, float], float]
) -> List[float]:
    """Per-span self time: its duration minus its children's durations."""
    out = []
    for s in spans:
        own = duration(s.start, s.end)
        for c in s.children:
            own -= duration(spans[c].start, spans[c].end)
        out.append(own)
    return out


def ledger(
    spans: Sequence[Span],
    duration: Callable[[float, float], float],
    wall: float,
) -> Tuple[Dict[str, float], float]:
    """Self time per layer name, and the unattributed remainder.

    ``wall`` is the traced region's duration on the same clock.  The
    remainder is ``wall`` minus the self time of every span that is not
    a benchmark operation span, so ``sum(per-layer) + remainder == wall``.
    """
    per_layer: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans, duration)):
        if s.name == OP_SPAN:
            continue
        per_layer[s.name] = per_layer.get(s.name, 0.0) + own
    return per_layer, wall - sum(per_layer.values())


def write_spans(
    spans: Sequence[Span],
    path: Path,
    norm: Callable[[float], float],
) -> None:
    """Write spans as JSON lines (nominal-clock start/end, in seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i,
                "name": s.name,
                "start": norm(s.start),
                "end": norm(s.end),
                "parent": s.parent,
                "op": s.op,
                "warm": s.warm,
            }) + "\n")
