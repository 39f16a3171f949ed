"""Calibration: the normalized-clock arithmetic and the quiet-process guard."""

from __future__ import annotations

import gc
import subprocess
import sys
import threading

import pytest

from perfbench.calib import (
    CalibrationError,
    Calibrator,
    NormalizedClock,
    assert_quiet,
    calibration_slice,
    quiet_reasons,
)


def test_work_is_scaled_by_the_mean_of_its_two_bracketing_slices():
    # slices of 1 s and 3 s around 10 s of work: factor 2 / mean(1, 3) = 1
    # then slices of 3 s and 1 s around 4 s of work: factor 1 again, and a
    # final segment bracketed by 1 s and 0.5 s slices: factor 2 / 0.75
    slices = [(0.0, 1.0), (11.0, 14.0), (18.0, 19.0), (22.0, 22.5)]
    clock = NormalizedClock(slices, nominal_s=2.0)
    assert clock.norm_interval(1.0, 11.0) == pytest.approx(10.0)
    assert clock.norm_interval(14.0, 18.0) == pytest.approx(4.0)
    assert clock.norm_interval(19.0, 22.0) == pytest.approx(3.0 * 2.0 / 0.75)
    # an interval spanning segments adds the scaled pieces
    assert clock.norm_interval(6.0, 20.0) == pytest.approx(
        5.0 + 4.0 + 1.0 * 2.0 / 0.75
    )


def test_a_host_twice_as_slow_reads_the_same_normalized_time():
    fast = NormalizedClock([(0.0, 1.0), (5.0, 6.0)], nominal_s=1.0)
    slow = NormalizedClock([(0.0, 2.0), (10.0, 12.0)], nominal_s=1.0)
    assert fast.norm_interval(1.0, 5.0) == pytest.approx(4.0)
    assert slow.norm_interval(2.0, 10.0) == pytest.approx(4.0)
    assert slow.raw_interval(2.0, 10.0) == pytest.approx(8.0)


def test_time_inside_a_slice_is_not_work():
    slices = [(0.0, 1.0), (3.0, 4.0), (6.0, 7.0)]
    clock = NormalizedClock(slices, nominal_s=1.0)
    # 1 -> 7 holds 4 s of work; the middle slice counts for nothing
    assert clock.raw_interval(1.0, 6.0) == pytest.approx(4.0)
    assert clock.norm_interval(0.5, 6.5) == pytest.approx(4.0)
    assert clock.norm(3.2) == clock.norm(3.9) == pytest.approx(2.0)


def test_instants_outside_the_calibrated_span_are_rejected():
    clock = NormalizedClock([(1.0, 2.0), (4.0, 5.0)], nominal_s=1.0)
    with pytest.raises(CalibrationError):
        clock.norm(0.5)
    with pytest.raises(CalibrationError):
        clock.norm(5.5)
    with pytest.raises(CalibrationError):
        NormalizedClock([(1.0, 2.0)], nominal_s=1.0)


def test_the_slice_allocates_no_gc_tracked_object():
    calibration_slice(100)  # warm
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        calibration_slice(20_000)
        after = gc.get_count()[0]
    finally:
        if enabled:
            gc.enable()
    assert after == before


def test_a_quiet_process_passes_the_guard():
    assert quiet_reasons() == []
    assert_quiet()


def test_a_second_thread_fails_the_guard():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert any("threads" in r for r in quiet_reasons())
        with pytest.raises(CalibrationError):
            Calibrator().slice()
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_a_live_child_process_fails_the_guard():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert any(str(child.pid) in r for r in quiet_reasons())
        with pytest.raises(CalibrationError):
            assert_quiet()
    finally:
        child.kill()
        child.wait(timeout=5)
    assert quiet_reasons() == []


def test_enabled_observability_fails_the_guard():
    from repro import obs

    obs.enable()
    try:
        assert "repro.obs is enabled" in quiet_reasons()
    finally:
        obs.disable()
    assert quiet_reasons() == []


def test_timer_slices_run_inside_a_phase_and_never_count_as_work():
    cal = Calibrator(iters=2_000, period_s=0.01)

    def busy():
        x = 0
        for i in range(3_000_000):
            x += i
        return x

    result, start, end = cal.sampled(busy)
    assert result == sum(range(3_000_000))
    inner = [s for s in cal.slices if start < s[0] and s[1] < end]
    assert inner, "the timer took no slice inside the phase"
    clock = cal.clock()
    sliced = sum(e - s for s, e in inner)
    assert clock.raw_interval(start, end) == pytest.approx(
        end - start - sliced
    )


def test_a_thread_started_inside_a_phase_fails_it():
    cal = Calibrator(iters=2_000, period_s=0.01)
    stop = threading.Event()

    def noisy():
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            x = 0
            for i in range(3_000_000):
                x += i
        finally:
            stop.set()
            thread.join(timeout=5)

    with pytest.raises(CalibrationError):
        cal.sampled(noisy)
