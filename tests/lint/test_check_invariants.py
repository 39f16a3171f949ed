"""Tests for ``GDSIIGuard(check_invariants=True)`` paranoid mode."""

import pytest

from repro.core.flow import GDSIIGuard
from repro.core.params import FlowConfig, ParameterSpace
from repro.errors import FlowError


def make_guard(tiny_design):
    d = tiny_design
    return GDSIIGuard(
        d["layout"],
        d["constraints"],
        d["assets"],
        baseline_routing=d["routing"],
        check_invariants=True,
    )


class TestParanoidPass:
    def test_cs_flow_clean(self, tiny_design):
        guard = make_guard(tiny_design)
        result = guard.run(ParameterSpace(10).default())
        assert result.feasible or result.drc_count >= 0  # flow completed
        assert guard.invariant_checks >= 2  # place op + route
        assert guard.invariant_violations == 0

    def test_lda_flow_clean(self, tiny_design):
        guard = make_guard(tiny_design)
        guard.run(FlowConfig("LDA", 8, 1, tuple([1.0] * 10)))
        assert guard.invariant_checks >= 2
        assert guard.invariant_violations == 0

    def test_full_recompute_path_clean(self, tiny_design):
        # A memo hit skips the placement op but still re-routes, re-times
        # and re-scans the memoized layout in full, so its route stage is
        # swept again and must match the first evaluation.
        guard = make_guard(tiny_design)
        config = ParameterSpace(10).default()
        first = guard.run(config)
        assert guard.invariant_checks == 2  # place op + route
        second = guard.run(config)
        assert guard.invariant_checks == 3  # route only
        assert guard.invariant_violations == 0
        assert second.objectives == first.objectives
        assert second.drc_count == first.drc_count

    def test_disabled_by_default(self, tiny_design):
        d = tiny_design
        guard = GDSIIGuard(
            d["layout"], d["constraints"], d["assets"],
            baseline_routing=d["routing"],
        )
        guard.run(ParameterSpace(10).default())
        assert guard.invariant_checks == 0


def _breach_blockage(layout):
    """A corruption ``Layout.validate()`` cannot see: a hard blockage
    dropped on top of an already-placed cell.  Only the lint's blockage
    rule (L003) catches it."""
    from repro.layout.blockage import PlacementBlockage

    victim = next(iter(sorted(layout.placements)))
    layout.add_blockage(
        PlacementBlockage("injected", layout.cell_rect(victim), 0.0)
    )


class TestCorruptingOperator:
    def test_corruption_raises_flow_error(self, tiny_design, monkeypatch):
        original = GDSIIGuard._apply_placement_op

        def corrupting_op(self, layout, config):
            report = original(self, layout, config)
            _breach_blockage(layout)
            return report

        monkeypatch.setattr(GDSIIGuard, "_apply_placement_op", corrupting_op)
        guard = make_guard(tiny_design)
        with pytest.raises(FlowError, match=r"invariant violation.*L003"):
            guard.run(ParameterSpace(10).default())
        assert guard.invariant_violations >= 1

    def test_corruption_passes_without_paranoid_mode(
        self, tiny_design, monkeypatch
    ):
        # The same corruption sails through layout.validate() — which is
        # exactly the blind spot the paranoid mode exists to cover.
        original = GDSIIGuard._apply_placement_op
        calls = {"n": 0}

        def corrupting_op(self, layout, config):
            report = original(self, layout, config)
            calls["n"] += 1
            _breach_blockage(layout)
            return report

        monkeypatch.setattr(GDSIIGuard, "_apply_placement_op", corrupting_op)
        d = tiny_design
        guard = GDSIIGuard(
            d["layout"], d["constraints"], d["assets"],
            baseline_routing=d["routing"],
        )
        guard.run(ParameterSpace(10).default())
        assert calls["n"] == 1
