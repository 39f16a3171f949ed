"""Tests for the GDSII-Guard flow."""

import random

import pytest

from repro import obs
from repro.bench.generators import GeneratorParams, generate_design
from repro.core.flow import GDSIIGuard
from repro.core.local_density import asset_centroid
from repro.core.params import (
    LDA_ITER_CHOICES,
    RWS_SCALE_CHOICES,
    FlowConfig,
    ParameterSpace,
)
from repro.errors import InjectedFault
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.resilience import faults
from repro.route.router import global_route
from repro.security.assets import annotate_key_assets
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like
from repro.timing.constraints import TimingConstraints

from tests.golden.test_route_digest import route_digest


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

        def make_guard():
            return GDSIIGuard(
                d.layout,
                d.constraints,
                d.assets,
                baseline_routing=d.routing,
            )

        chained_guard = make_guard()
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
        full = make_guard().run(FlowConfig("LDA", 4, 3, scales))

        def iterations(result):
            return [
                (it.moved, it.total_displacement_um, it.unresolved_blockages)
                for it in result.op_report.iterations
            ]

        assert chained.layout.placements == full.layout.placements
        assert chained.objectives == full.objectives
        assert iterations(chained) == iterations(full)


# --------------------------------------------------------------------- #
# The operator memo: a warm guard must equal a fresh guard per config.
# --------------------------------------------------------------------- #

#: Generator seeds of the three memo designs.
MEMO_SEEDS = (7, 19, 31)

#: Exploitable-region threshold small enough that the tiny designs have
#: regions (the default of 20 sites would report none).
MEMO_THRESH_ER = 5

#: Tight clock so the tiny designs carry real negative slack and the
#: TNS/WNS comparison is not trivially 0 == 0.
MEMO_CLOCK_PERIOD = 0.9


def _tiny_design(seed, cluster_assets=True):
    """A tiny generated design, placed and routed."""
    params = GeneratorParams(
        n_state=12, n_key=8, cone_inputs=3, cone_depth=3,
        n_inputs=8, n_outputs=8, seed=seed,
    )
    netlist = generate_design(f"diff{seed}", nangate45_library(), params)
    assets = annotate_key_assets(netlist)
    layout = global_place(
        netlist,
        nangate45_like(num_layers=10),
        GlobalPlacementSpec(
            target_utilization=0.6,
            seed=seed,
            clustered=tuple(assets) if cluster_assets else (),
        ),
    )
    return {
        "layout": layout,
        "constraints": TimingConstraints(clock_period=MEMO_CLOCK_PERIOD),
        "assets": assets,
        "routing": global_route(layout),
    }


@pytest.fixture(scope="module", params=MEMO_SEEDS)
def memo_design(request):
    """One tiny placed and routed design per generator seed."""
    return _tiny_design(request.param)


def _memo_guard(design):
    return GDSIIGuard(
        design["layout"],
        design["constraints"],
        design["assets"],
        baseline_routing=design["routing"],
        thresh_er=MEMO_THRESH_ER,
    )


def _flow_key(result):
    return (
        result.score,
        result.tns,
        result.wns,
        result.power,
        result.drc_count,
        result.feasible,
        result.security.er_sites,
        result.security.er_tracks,
        result.security.num_regions,
        result.op_report,
    )


def _memo_configs(rng, keys):
    """One config per ``(op, n, n_iter)`` key, each with fresh RWS scales."""
    return [
        FlowConfig(
            op, n, n_iter, tuple(rng.choice(RWS_SCALE_CHOICES) for _ in range(10))
        )
        for op, n, n_iter in keys
    ]


class TestOperatorMemo:
    """Memo hits and LDA prefix chains of one warm guard vs fresh guards."""

    def _assert_memo_matches(self, design, configs):
        warm = _memo_guard(design)
        obs.enable()
        try:
            results = [warm.run(config) for config in configs]
            metrics = obs.get_metrics()
            hits = metrics.counter("flow.incremental.op_cache_hits").value
            misses = metrics.counter("flow.incremental.op_cache_misses").value
            chains = metrics.counter("flow.incremental.op_prefix_chains").value
            plans = metrics.counter("route.plan.calls").value
        finally:
            obs.disable()
            obs.get_metrics().reset()
        # the sequence must exercise both memo paths to mean anything
        assert hits >= 1 and chains >= 1
        # a memo hit routes from its entry's plan; only a miss builds one
        assert plans == misses
        for config, result in zip(configs, results):
            fresh = _memo_guard(design).run(config)
            assert _flow_key(result) == _flow_key(fresh), config
            assert result.layout.placements == fresh.layout.placements, config
            assert route_digest(result.routing) == route_digest(
                fresh.routing
            ), config

    def test_memo_configs_fast(self, memo_design):
        # LDA(2, 1) repeats under new scales, LDA(2, 3) chains off it,
        # and CS repeats.
        keys = [("LDA", 2, 1), ("CS", 2, 1), ("LDA", 2, 1), ("LDA", 2, 3),
                ("CS", 2, 1)]
        self._assert_memo_matches(
            memo_design, _memo_configs(random.Random(303), keys)
        )

    @pytest.mark.slow
    def test_memo_configs_bulk(self, memo_design):
        rng = random.Random(404)
        pool = [("CS", 2, 1)] + [
            ("LDA", n, j) for n in (2, 4) for j in LDA_ITER_CHOICES
        ]
        keys = [rng.choice(pool) for _ in range(24)]
        self._assert_memo_matches(memo_design, _memo_configs(rng, keys))


class TestPrefixAttraction:
    """A chained LDA key keeps attracting towards the baseline assets."""

    def test_chain_after_the_assets_moved(self):
        # Unclustered assets on this design leave LDA(2, 1) moving them,
        # so continuing towards their new centroid would diverge.
        design = _tiny_design(5, cluster_assets=False)
        scales = tuple([1.0] * 10)
        guard = _memo_guard(design)
        prefix = guard.run(FlowConfig("LDA", 2, 1, scales))
        assets = design["assets"]
        assert asset_centroid(prefix.layout, assets) != asset_centroid(
            design["layout"], assets
        )
        chained = guard.run(FlowConfig("LDA", 2, 3, scales))
        fresh = _memo_guard(design).run(FlowConfig("LDA", 2, 3, scales))
        assert chained.layout.placements == fresh.layout.placements
        assert _flow_key(chained) == _flow_key(fresh)


class TestMemoFaults:
    """A run that dies after building its memo entry leaves no entry."""

    def test_flow_error_drops_the_memo_entry(self, tiny_design):
        d = tiny_design

        def make_guard():
            return GDSIIGuard(
                d["layout"], d["constraints"], d["assets"],
                baseline_routing=d["routing"],
            )

        config = FlowConfig("LDA", 2, 2, tuple([1.2] * 10))
        guard = make_guard()
        faults.install(faults.FaultPlan([faults.FaultSpec(0, "flow-error")]))
        obs.enable()
        try:
            with faults.evaluation_scope(0, 0, 0, in_worker=False):
                with pytest.raises(InjectedFault, match="flow-error"):
                    guard.run(config)
            with faults.evaluation_scope(0, 0, 1, in_worker=False):
                retry = guard.run(config)
            misses = obs.get_metrics().counter(
                "flow.incremental.op_cache_misses"
            ).value
        finally:
            faults.clear()
            obs.disable()
            obs.get_metrics().reset()
        assert misses == 2  # the retry placed the operator key again
        fresh = make_guard().run(config)
        assert _flow_key(retry) == _flow_key(fresh)
        assert retry.layout.placements == fresh.layout.placements
