"""Tracing: span trees, self time, the unattributed remainder, wrappers."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

from perfbench.tracing import (
    BOUNDARIES,
    OP_SPAN,
    Boundary,
    Tracer,
    ledger,
    self_times,
)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _interval(t0: float, t1: float) -> float:
    return t1 - t0


def test_self_times_and_remainder_add_up_to_the_wall_time():
    """op{ a{ b, b }, c } then an untraced gap, then a bare d."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.recording = True

    def leaf(dt):
        def fn():
            clock.advance(dt)
        return fn

    def a():
        clock.advance(1.0)
        b_wrapped()
        clock.advance(0.5)
        b_wrapped()
        clock.advance(0.25)

    layer = Boundary("x", ())
    b_wrapped = tracer.wrap(Boundary("b", ()), leaf(2.0))
    a_wrapped = tracer.wrap(Boundary("a", ()), a)
    c_wrapped = tracer.wrap(Boundary("c", ()), leaf(3.0))
    d_wrapped = tracer.wrap(layer, leaf(0.75))

    def operation():
        clock.advance(0.125)  # op self time: no layer covers it
        a_wrapped()
        c_wrapped()

    start = clock()
    tracer.op(operation)()
    clock.advance(0.375)  # untraced gap between operations
    d_wrapped()
    wall = clock() - start

    selfs = dict(zip((s.name for s in tracer.spans),
                     self_times(tracer.spans, _interval)))
    assert selfs["a"] == pytest.approx(1.75)
    assert selfs[OP_SPAN] == pytest.approx(0.125)
    per_layer, unattributed = ledger(tracer.spans, _interval, wall)
    assert per_layer == pytest.approx(
        {"a": 1.75, "b": 4.0, "c": 3.0, "x": 0.75}
    )
    assert unattributed == pytest.approx(0.125 + 0.375)
    assert sum(per_layer.values()) + unattributed == pytest.approx(wall)


def test_spans_carry_parent_and_operation_ids():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.recording = True
    inner = tracer.wrap(Boundary("inner", ()), lambda: clock.advance(1.0))
    outer = tracer.wrap(Boundary("outer", ()), inner)
    tracer.op(outer)()
    tracer.op(outer)()
    outside = tracer.wrap(Boundary("free", ()), lambda: None)
    outside()
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [
        (OP_SPAN, None, 0), ("outer", 0, 0), ("inner", 1, 0),
        (OP_SPAN, None, 1), ("outer", 3, 1), ("inner", 4, 1),
        ("free", None, None),
    ]


def test_nothing_is_recorded_while_not_recording():
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap(Boundary("x", ()), lambda: 7)
    assert wrapped() == 7
    assert tracer.op(lambda: 8)() == 8
    assert tracer.spans == []


def test_install_swaps_module_and_class_attributes_and_uninstall_restores():
    mod = types.ModuleType("perfbench_fake_layer")

    def helper(x, warm_start=None):
        return x + 1

    class Engine:
        def __init__(self):
            self.k = 2

        def step(self, x):
            return mod.helper(x, warm_start=object()) * self.k

    mod.helper = helper
    mod.Engine = Engine
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer(FakeClock())
        tracer.install([
            Boundary("fake.helper", ((mod.__name__, "helper"),)),
            Boundary("fake.step", ((mod.__name__, "Engine.step"),)),
            Boundary("fake.count", ((mod.__name__, "Engine.__init__"),),
                     count_only=True),
        ])
        tracer.recording = True
        assert Engine().step(1) == 4
        tracer.uninstall()
        assert mod.helper is helper
        assert Engine.__dict__["step"].__name__ == "step"
        assert not hasattr(Engine.__dict__["step"], "__wrapped__")
        assert not hasattr(Engine.__dict__["__init__"], "__wrapped__")
        assert tracer.counts == {"fake.count": 1}
        assert [s.name for s in tracer.spans] == ["fake.step", "fake.helper"]
        assert tracer.spans[1].warm and tracer.spans[1].parent == 0
    finally:
        del sys.modules[mod.__name__]


def test_every_program_boundary_resolves_and_is_restored():
    originals = {}
    for boundary in BOUNDARIES:
        for module_name, path in boundary.targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            originals[(module_name, path)] = (owner, attr, owner.__dict__[attr])
    tracer = Tracer(FakeClock())
    tracer.install()
    try:
        for owner, attr, original in originals.values():
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in originals.values():
        assert owner.__dict__[attr] is original
