"""Differential harness: incremental evaluation vs the full-recompute oracle.

Every layer of :mod:`repro.incremental` promises *exact* equality with a
fresh recompute — not tolerance-based closeness.  These tests drive
randomized ECO sequences (cell moves + routing-width scale changes)
through the :class:`~repro.incremental.engine.DeltaEvaluator` and the
incremental :class:`~repro.core.flow.GDSIIGuard` path, and compare every
observable output (routes, grid usage, arrival/required times, endpoint
slacks, exploitable regions, flow objectives) bitwise against the oracle.

The fast subset keeps CI snappy; the ``slow``-marked bulk tests push the
sequence count past 200 across three independently generated designs.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import GeneratorParams, generate_design
from repro.core.flow import GDSIIGuard
from repro.core.params import (
    LDA_ITER_CHOICES,
    LDA_N_CHOICES,
    RWS_SCALE_CHOICES,
    FlowConfig,
)
from repro.incremental.engine import DeltaEvaluator
from repro.lint import run_lint
from repro.place.global_place import GlobalPlacementSpec, global_place
from repro.route.ndr import NonDefaultRule
from repro.route.router import global_route
from repro.security.assets import annotate_key_assets
from repro.security.exploitable import find_exploitable_regions
from repro.tech.library import nangate45_library
from repro.tech.technology import nangate45_like
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import run_sta

#: Generator seeds for the three independent differential designs.
DESIGN_SEEDS = (7, 19, 31)

#: Exploitable-region threshold small enough that tiny designs have
#: nonzero regions (the default of 20 sites would report nothing).
THRESH_ER = 5

#: Tight clock so the tiny designs carry real negative slack and the
#: TNS/WNS comparison is not trivially 0 == 0.
CLOCK_PERIOD = 0.9


def _build(seed: int):
    """One tiny placed+routed design keyed by generator seed."""
    library = nangate45_library()
    tech = nangate45_like(num_layers=10)
    params = GeneratorParams(
        n_state=12, n_key=8, cone_inputs=3, cone_depth=3,
        n_inputs=8, n_outputs=8, seed=seed,
    )
    netlist = generate_design(f"diff{seed}", library, params)
    assets = annotate_key_assets(netlist)
    layout = global_place(
        netlist,
        tech,
        GlobalPlacementSpec(
            target_utilization=0.6, seed=seed, clustered=tuple(assets)
        ),
    )
    constraints = TimingConstraints(clock_period=CLOCK_PERIOD)
    return {
        "netlist": netlist,
        "tech": tech,
        "layout": layout,
        "constraints": constraints,
        "assets": assets,
    }


@pytest.fixture(scope="module", params=DESIGN_SEEDS)
def diff_design(request):
    """Module-cached differential design, parametrized over seeds."""
    return _build(request.param)


# ---------------------------------------------------------------------------
# Canonical comparison keys — exact, order-independent.
# ---------------------------------------------------------------------------


def _routing_key(routing):
    routes = {
        name: [
            (s.layer, tuple(s.gcells), s.length_um, s.demand)
            for s in r.segments
        ]
        for name, r in routing.routes.items()
    }
    parasitics = {
        name: (r.resistance, r.capacitance)
        for name, r in routing.routes.items()
    }
    return routes, parasitics, routing.grid.usage.tobytes()


def _sta_key(sta):
    return (
        sorted(sta.arrival.items()),
        sorted(sta.required.items()),
        sorted((e.kind, e.name, e.arrival, e.required) for e in sta.endpoints),
        sta.tns,
        sta.wns,
    )


def _security_key(report):
    regions = sorted(
        (
            tuple(sorted((g.row, g.lo, g.hi) for g in r.component.gaps)),
            r.free_tracks,
            r.num_sites,
        )
        for r in report.regions
    )
    return regions, sorted(report.distances.items()), report.thresh_er


def _random_move(rng, layout, pool):
    """Move one random cell to a random legal slot; True if it moved."""
    name = rng.choice(pool)
    width = layout.netlist.instance(name).width_sites
    old = layout.placements[name]
    layout.unplace(name)
    for _ in range(200):
        row = rng.randrange(layout.num_rows)
        start = rng.randrange(0, max(1, layout.sites_per_row - width))
        if layout.occupancy[row].can_place(start, width):
            layout.place(name, row, start)
            break
    else:
        layout.place(name, old.row, old.start)
    return layout.placements[name] != old


def _apply_random_eco(rng, design):
    """Mutate the layout with 1–5 random moves; return a random NDR."""
    layout = design["layout"]
    assets = design["assets"]
    movable = [
        i.name
        for i in design["netlist"].instances
        if layout.is_placed(i.name) and i.name not in layout.fixed
    ]
    asset_pool = [
        a for a in assets if layout.is_placed(a) and a not in layout.fixed
    ]
    for _ in range(rng.randint(1, 5)):
        pool = asset_pool if (asset_pool and rng.random() < 0.4) else movable
        _random_move(rng, layout, pool)
    scale = round(rng.uniform(1.0, 2.0), 2)
    return NonDefaultRule.from_list([scale] * design["tech"].num_layers)


def _oracle(design, ndr):
    """Full recompute: fresh route, fresh STA, fresh security scan."""
    layout = design["layout"]
    routing = global_route(layout, ndr=ndr)
    sta = run_sta(layout, design["constraints"], routing=routing)
    security = find_exploitable_regions(
        layout, sta, design["assets"], thresh_er=THRESH_ER, routing=routing
    )
    return routing, sta, security


#: Structural lint rules asserted after every random ECO (the DEF
#: round-trip rule is checked once per sequence instead — it re-parses
#: the whole layout, which would dominate the bulk tier's runtime).
_STRUCTURAL_RULES = ("L001", "L002", "L003", "L004", "L005", "N001", "N002")


def _assert_layout_legal(design, step, rules=_STRUCTURAL_RULES):
    """Lint-as-oracle: random ECOs must never corrupt the layout."""
    report = run_lint(
        design["layout"], assets=design["assets"], rules=list(rules)
    )
    assert report.errors == 0, (
        f"step {step}: random ECO corrupted the layout\n"
        + report.format_text(verbose=True)
    )


def _run_sequences(design, rng, n_sequences):
    """Drive ``n_sequences`` random ECOs through one DeltaEvaluator."""
    evaluator = DeltaEvaluator(
        design["layout"],
        design["constraints"],
        design["assets"],
        thresh_er=THRESH_ER,
    )
    for step in range(n_sequences):
        ndr = _apply_random_eco(rng, design)
        _assert_layout_legal(design, step)
        inc = evaluator.evaluate(ndr=ndr)
        routing, sta, security = _oracle(design, ndr)
        assert _routing_key(inc.routing) == _routing_key(routing), (
            f"step {step}: routing diverged from fresh route"
        )
        assert _sta_key(inc.sta) == _sta_key(sta), (
            f"step {step}: delta-STA diverged from full STA"
        )
        assert _security_key(inc.security) == _security_key(security), (
            f"step {step}: delta-security diverged from full scan"
        )
    _assert_layout_legal(
        design, "final", rules=_STRUCTURAL_RULES + ("S001",)
    )


class TestEvaluatorDifferential:
    """DeltaEvaluator vs fresh route/STA/security, per design."""

    def test_first_evaluation_equals_oracle(self, diff_design):
        evaluator = DeltaEvaluator(
            diff_design["layout"],
            diff_design["constraints"],
            diff_design["assets"],
            thresh_er=THRESH_ER,
        )
        ndr = NonDefaultRule.default(diff_design["tech"].num_layers)
        inc = evaluator.evaluate(ndr=ndr)
        routing, sta, security = _oracle(diff_design, ndr)
        assert _routing_key(inc.routing) == _routing_key(routing)
        assert _sta_key(inc.sta) == _sta_key(sta)
        assert _security_key(inc.security) == _security_key(security)

    def test_random_eco_sequences_fast(self, diff_design):
        rng = random.Random(101)
        _run_sequences(diff_design, rng, n_sequences=4)

    @pytest.mark.slow
    def test_random_eco_sequences_bulk(self, diff_design):
        # 3 design params x 66 sequences + the fast subset's 3 x 4 puts
        # the harness past 200 randomized sequences per full run.
        rng = random.Random(202)
        _run_sequences(diff_design, rng, n_sequences=66)


class TestFlowDifferential:
    """GDSIIGuard incremental path vs the full-recompute path."""

    def _flow_key(self, result):
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
        )

    def _random_configs(self, rng, num_layers, count):
        configs = []
        for _ in range(count):
            scales = tuple(
                rng.choice(RWS_SCALE_CHOICES) for _ in range(num_layers)
            )
            if rng.random() < 0.3:
                configs.append(FlowConfig("CS", 8, 1, scales))
            else:
                configs.append(
                    FlowConfig(
                        "LDA",
                        rng.choice(LDA_N_CHOICES[:3]),
                        rng.choice(LDA_ITER_CHOICES),
                        scales,
                    )
                )
        return configs

    def _assert_flow_matches(self, design, configs):
        layout = design["layout"]
        routing = global_route(layout)
        guard_inc = GDSIIGuard(
            layout,
            design["constraints"],
            design["assets"],
            baseline_routing=routing,
            thresh_er=THRESH_ER,
            incremental=True,
        )
        guard_full = GDSIIGuard(
            layout,
            design["constraints"],
            design["assets"],
            baseline_routing=routing,
            thresh_er=THRESH_ER,
            incremental=False,
        )
        for config in configs:
            inc = guard_inc.run(config)
            full = guard_full.run(config)
            assert self._flow_key(inc) == self._flow_key(full), (
                f"incremental flow diverged on {config}"
            )

    def test_flow_configs_fast(self, diff_design):
        rng = random.Random(303)
        configs = self._random_configs(
            rng, diff_design["tech"].num_layers, count=3
        )
        self._assert_flow_matches(diff_design, configs)

    @pytest.mark.slow
    def test_flow_configs_bulk(self, diff_design):
        # Repeats op keys with fresh scale vectors on purpose: the cached
        # operator entry is exactly the state the GA inner loop
        # exercises.
        rng = random.Random(404)
        configs = self._random_configs(
            rng, diff_design["tech"].num_layers, count=10
        )
        self._assert_flow_matches(diff_design, configs)
