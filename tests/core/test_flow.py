"""Tests for the GDSII-Guard flow."""

import pytest

from repro import obs
from repro.core.flow import GDSIIGuard
from repro.core.params import FlowConfig, ParameterSpace


@pytest.fixture(scope="module")
def guard(misty_design):
    d = misty_design
    return GDSIIGuard(
        d.layout, d.constraints, d.assets, baseline_routing=d.routing
    )


@pytest.fixture(scope="module")
def cs_result(guard):
    return guard.run(ParameterSpace(10).default())


class TestBaselineState:
    def test_baseline_metrics_computed(self, guard):
        assert guard.baseline_security.er_sites > 0
        assert guard.baseline_power > 0
        assert guard.baseline_distances

    def test_baseline_never_mutated(self, guard, misty_design):
        assert guard.baseline.placements == misty_design.layout.placements


class TestRun:
    def test_cs_flow_result(self, cs_result, guard):
        r = cs_result
        assert r.config.op_select == "CS"
        assert 0.0 <= r.score < 1.0  # strictly better than baseline
        assert r.power > 0
        assert r.drc_count >= 0
        assert r.runtime_s > 0
        r.layout.validate()

    def test_objectives_tuple(self, cs_result):
        sec, neg_tns = cs_result.objectives
        assert sec == cs_result.score
        assert neg_tns == -cs_result.tns

    def test_lda_flow(self, guard):
        cfg = FlowConfig("LDA", 8, 1, tuple([1.0] * 10))
        r = guard.run(cfg)
        assert r.config.op_select == "LDA"
        r.layout.validate()

    def test_rws_reduces_tracks(self, guard):
        base = guard.run(ParameterSpace(10).default())
        wide = guard.run(FlowConfig("CS", 2, 1, tuple([1.5] * 10)))
        assert (
            wide.routing.grid.free_tracks_total()
            < base.routing.grid.free_tracks_total()
        )

    def test_netlist_protected(self, guard, misty_design):
        guard.run(ParameterSpace(10).default())
        assert (
            misty_design.netlist.signature() == guard._netlist_signature
        )

    def test_constraint_violation_zero_when_feasible(self, cs_result, guard):
        if cs_result.feasible:
            v = cs_result.constraint_violation(
                n_drc=guard.n_drc,
                beta_power=guard.beta_power,
                base_power=guard.baseline_power,
            )
            assert v == 0.0

    def test_constraint_violation_positive_on_drc(self, cs_result):
        v = cs_result.constraint_violation(n_drc=-1)
        assert v > 0

    def test_preprocess_freeze_option(self, guard):
        layout = guard.baseline.clone()
        guard.preprocess(layout, freeze_assets=True)
        assert set(guard.assets) <= layout.fixed
        layout2 = guard.baseline.clone()
        guard.preprocess(layout2)
        assert not layout2.fixed

    def test_independent_runs_do_not_interact(self, guard):
        a = guard.run(ParameterSpace(10).default())
        b = guard.run(ParameterSpace(10).default())
        assert a.score == pytest.approx(b.score)
        assert a.tns == pytest.approx(b.tns)


class TestLdaPrefixChaining:
    """An LDA key grown from a cached shorter prefix equals a full run."""

    def test_chained_lda_equals_full_run(self, misty_design):
        d = misty_design
        scales = tuple([1.0] * 10)

        def make_guard(incremental):
            return GDSIIGuard(
                d.layout,
                d.constraints,
                d.assets,
                baseline_routing=d.routing,
                incremental=incremental,
            )

        chained_guard = make_guard(True)
        chained_guard.run(FlowConfig("LDA", 4, 1, scales))
        obs.enable()
        try:
            chained = chained_guard.run(FlowConfig("LDA", 4, 3, scales))
            chains = obs.get_metrics().counter(
                "flow.incremental.op_prefix_chains"
            ).value
        finally:
            obs.disable()
            obs.get_metrics().reset()
        assert chains == 1
        full = make_guard(False).run(FlowConfig("LDA", 4, 3, scales))

        def iterations(result):
            return [
                (it.moved, it.total_displacement_um, it.unresolved_blockages)
                for it in result.op_report.iterations
            ]

        assert chained.layout.placements == full.layout.placements
        assert chained.objectives == full.objectives
        assert iterations(chained) == iterations(full)
