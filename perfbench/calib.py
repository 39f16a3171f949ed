"""Host-speed calibration: a fixed pure-Python slice and a normalized clock.

The host this benchmark runs on changes speed by tens of percent over
seconds-to-minutes windows, so raw wall-clock medians of identical code
move more than any bound worth setting.  The fix is to time a fixed
calibration slice while the program is paused and to express each timed
interval in "nominal seconds": the work between two slices scaled by
``NOMINAL_SLICE_S`` divided by the mean duration of those two slices.  A
host that runs the slice 30% slower also runs the program about 30%
slower, so the ratio cancels most of the drift.

Slices run at the edges of every set-up phase and timed region, and every
``PERIOD_S`` in between from a ``SIGALRM`` timer; Python runs the handler
between two bytecodes of the program, so the program is paused for the
whole slice and the slice never counts as program time.  A slice is only
valid while the process is quiet (one Python thread, no live child
process, ``repro.obs`` off); otherwise it would time contention rather
than the host, and :class:`CalibrationError` fails the run.
"""

from __future__ import annotations

import array
import bisect
import glob
import signal
import statistics
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the calibration loop (10-25 ms on a 2-vCPU x86 host).
SLICE_ITERS = 40_000

#: Duration the slice is defined to take on the reference host; every
#: normalized time is "seconds on a host where the slice takes this".
NOMINAL_SLICE_S = 0.015

#: Timer period of the in-phase slices.  Host speed states last seconds;
#: a shorter period tracks them more closely but costs more calibration
#: (a slice per period: 2-5% of a run here).
PERIOD_S = 0.5

#: The slice's lookup table and its 8 MB random-walk array, built once
#: at import so the slice itself allocates nothing the cyclic garbage
#: collector tracks.
_TABLE = {i: i * 2 for i in range(1 << 16)}
_WALK = array.array("q", range(1 << 20))


class CalibrationError(RuntimeError):
    """The process was not quiet when a calibration slice was due."""


def calibration_slice(iters: int = SLICE_ITERS) -> int:
    """The fixed workload: an LCG, dict lookups, float arithmetic and a
    random walk over a large array.

    The mix of interpreter, hashing and cache-missing memory work tracks
    the program's own speed better than any part alone (normalized CV
    over blocks of AES_1 attack attempts: 3.2%, against 5.1% without
    the walk and 3.8% for a pure integer loop).  It creates only
    ints and floats, which the cyclic garbage collector does not track,
    so a slice never triggers a collection.
    """
    x = 1
    f = 0.5
    table = _TABLE
    walk = _WALK
    for _ in range(iters):
        x = (x * 1103515245 + 12345 + walk[x & 0xFFFFF]) & 0x7FFFFFFF
        f = f * 0.999 + table[x & 0xFFFF] * 1e-9
    return x


def _live_children() -> List[str]:
    """Pids of live child processes of this process (Linux ``/proc``)."""
    pids: List[str] = []
    paths = glob.glob("/proc/self/task/*/children")
    if paths:
        for path in paths:
            try:
                with open(path) as fh:
                    pids.extend(fh.read().split())
            except OSError:
                continue
        return pids
    import multiprocessing

    return [str(p.pid) for p in multiprocessing.active_children()]


def quiet_reasons() -> List[str]:
    """Why the process is not quiet (empty when it is)."""
    reasons = []
    if threading.active_count() != 1:
        reasons.append(f"{threading.active_count()} Python threads")
    children = _live_children()
    if children:
        reasons.append(f"live child processes {', '.join(children)}")
    obs = sys.modules.get("repro.obs")
    if obs is not None and obs.is_enabled():
        reasons.append("repro.obs is enabled")
    return reasons


def assert_quiet() -> None:
    """Raise :class:`CalibrationError` unless the process is quiet."""
    reasons = quiet_reasons()
    if reasons:
        raise CalibrationError(
            "calibration slice needs a quiet process: " + "; ".join(reasons)
        )


class NormalizedClock:
    """Maps raw ``perf_counter`` instants to nominal (and raw work) time.

    ``slices`` are the ``(start, end)`` instants of every calibration
    slice, in order.  The work between slice ``k`` and slice ``k + 1``
    is scaled by ``nominal / mean(d_k, d_k+1)``; time inside a slice maps
    to no time at all, so calibration never counts as work.  Instants
    outside ``[first slice start, last slice end]`` are rejected: every
    measured interval must be bracketed by slices.
    """

    def __init__(
        self, slices: Sequence[Tuple[float, float]], nominal_s: float
    ) -> None:
        if len(slices) < 2:
            raise CalibrationError("need at least two slices to normalize")
        self._starts = [s for s, _ in slices]
        self._ends = [e for _, e in slices]
        durations = [e - s for s, e in slices]
        self._factors: List[float] = []
        self._cum_norm = [0.0]
        self._cum_raw = [0.0]
        for k in range(len(slices) - 1):
            gap = self._starts[k + 1] - self._ends[k]
            if gap < 0:
                raise CalibrationError("calibration slices overlap")
            factor = nominal_s / ((durations[k] + durations[k + 1]) / 2.0)
            self._factors.append(factor)
            self._cum_norm.append(self._cum_norm[-1] + gap * factor)
            self._cum_raw.append(self._cum_raw[-1] + gap)

    def _locate(self, t: float) -> Tuple[int, float]:
        if t < self._starts[0] or t > self._ends[-1]:
            raise CalibrationError(
                f"instant {t:.6f} lies outside the calibrated span"
            )
        k = bisect.bisect_right(self._ends, t) - 1
        if k < 0 or k >= len(self._factors):
            return max(k, 0), 0.0  # inside the first or last slice
        offset = min(t, self._starts[k + 1]) - self._ends[k]
        return k, max(offset, 0.0)

    def norm(self, t: float) -> float:
        """Nominal seconds of work since the first slice."""
        k, offset = self._locate(t)
        if offset == 0.0:
            return self._cum_norm[k]
        return self._cum_norm[k] + offset * self._factors[k]

    def raw(self, t: float) -> float:
        """Raw seconds of work (slices excluded) since the first slice."""
        k, offset = self._locate(t)
        return self._cum_raw[k] + offset

    def norm_interval(self, t0: float, t1: float) -> float:
        """Nominal seconds of work between two instants."""
        return self.norm(t1) - self.norm(t0)

    def raw_interval(self, t0: float, t1: float) -> float:
        """Raw seconds of work between two instants."""
        return self.raw(t1) - self.raw(t0)


class Calibrator:
    """Takes calibration slices and builds the :class:`NormalizedClock`."""

    def __init__(
        self,
        nominal_s: float = NOMINAL_SLICE_S,
        iters: int = SLICE_ITERS,
        period_s: float = PERIOD_S,
    ) -> None:
        self.nominal_s = nominal_s
        self.iters = iters
        self.period_s = period_s
        self.slices: List[Tuple[float, float]] = []
        self.violations: List[str] = []
        self._in_slice = False

    def _take(self) -> float:
        t0 = time.perf_counter()
        calibration_slice(self.iters)
        t1 = time.perf_counter()
        self.slices.append((t0, t1))
        return t1

    def slice(self) -> float:
        """Take one slice now; returns the instant it ended."""
        assert_quiet()
        return self._take()

    def _on_timer(self, signum, frame) -> None:
        # Never raise from here: the exception would surface inside the
        # program.  A noisy process is recorded and fails the phase.
        if self._in_slice:
            return
        reasons = quiet_reasons()
        if reasons:
            self.violations.append("; ".join(reasons))
            return
        self._in_slice = True
        try:
            self._take()
        finally:
            self._in_slice = False

    def sampled(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn`` between two slices, with timer slices in between.

        Returns ``(result, start, end)``: the instants right after the
        opening slice and right before the closing one.
        """
        start = self.slice()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
        self.slice()
        if self.violations:
            raise CalibrationError(
                "calibration slice needs a quiet process: "
                + self.violations[0]
            )
        return result, start, end

    def clock(self) -> NormalizedClock:
        """The normalized clock over every slice taken so far."""
        return NormalizedClock(self.slices, self.nominal_s)

    def median_slice_ms(self, since: Optional[float] = None) -> float:
        """Median slice duration (ms) of the slices ending after ``since``."""
        ds = [
            e - s for s, e in self.slices if since is None or e >= since
        ]
        return statistics.median(ds) * 1000.0
