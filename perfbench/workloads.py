"""The three benchmark workloads: set-up, timed region, output checks.

Every workload drives the program only through its public entry points
on the default production path (incremental engine on, vector kernels):

* ``explore_aes1`` — :meth:`ParetoExplorer.explore` on AES_1;
* ``harden_suite`` — a fresh :class:`GDSIIGuard` plus one
  :meth:`GDSIIGuard.run` per hardening, over a list of designs;
* ``attack_aes1`` — :meth:`AttackCampaign.run` against AES_1's baseline
  and CS-hardened layouts.

The seed draws every input a run uses, except the GA seed of
``explore_aes1``, which is pinned (see ``ExploreAES1``); the run size is
a fixed function of ``--seconds`` (never of a clock), so two commits
measured at the same seed and seconds do identical work.  See ``README.md`` for why each
workload exists and how its operations and failures are defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: The explorer's LDA seed individual uses this grid; the harden suite
#: fixes it so the seed only draws iteration counts and RWS genes.
LDA_GRID_N = 16

#: Per-layer routing-width scales of every hardening in the harden suite
#: (10 metal layers), in an order the seed draws.
RWS_MULTISET = (1.0, 1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.5, 1.5, 1.5)

#: LDA iteration counts of one harden-suite pass, one per design, in an
#: order the seed draws.
LDA_ITERS = (1, 2, 2, 3)


@dataclass
class RegionOutcome:
    """What a timed region produced, handed to the output checks.

    Attributes:
        ops: Operations completed (the ``ops_per_s`` numerator).
        failed: Operations that raised, were retried or timed out.
        state: Workload-specific results the checks inspect.
        counters: Exact program counters the traced run reports.
    """

    ops: int
    failed: int = 0
    state: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


class Hooks:
    """Operation boundaries: a root span per operation when traced.

    Untraced runs leave the program untouched; calibration slices come
    from :class:`~perfbench.calib.Calibrator`'s timer, not from here.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    def instrument(self, evaluator: Any) -> None:
        """Open an operation span around each ``evaluator.run`` call.

        The class method is looked up at call time, so wrappers a tracer
        installed on the class still run underneath the operation span.
        """
        if self.tracer is None:
            return

        def call(*args, **kwargs):
            return type(evaluator).run(evaluator, *args, **kwargs)

        evaluator.run = self.tracer.op(call)

    def call_op(self, fn: Callable, *args) -> Any:
        """Run one operation the benchmark loop issues itself."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.op(fn)(*args)


def units_for(seconds: float, unit_s: float) -> int:
    """Fixed work units for a run of ``seconds`` (at least one)."""
    return max(1, int(round(seconds / unit_s)))


def _error_rule_ids() -> List[str]:
    from repro.lint.rules import all_rules
    from repro.lint.violations import Severity

    return [r.rule_id for r in all_rules() if r.severity >= Severity.ERROR]


def _new_guard(design):
    """The guard ``repro harden`` builds: baseline routing reused."""
    from repro.core.flow import GDSIIGuard

    return GDSIIGuard(
        design.layout,
        design.constraints,
        design.assets,
        baseline_routing=design.routing,
    )


class Workload:
    """Base: three set-up phases, a timed region, output checks."""

    name = ""
    #: Nominal seconds of one work unit; ``--seconds`` sets the units.
    unit_s = 1.0

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.units = units_for(seconds, self.unit_s)

    def imports(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def construct(self) -> None:
        raise NotImplementedError

    def run(self, hooks: Hooks) -> RegionOutcome:
        raise NotImplementedError

    def check(self, outcome: RegionOutcome) -> int:
        """Failed operations found by the output checks."""
        raise NotImplementedError


class ExploreAES1(Workload):
    """Serial NSGA-II exploration of AES_1 with checkpoints on.

    The GA seed is pinned rather than drawn from the workload seed: the
    evaluation count, the mix of cold and cached placements and the peak
    RSS (one cached placement per operator key the GA visits) all follow
    the GA path, so a drawn GA seed would make the run-to-run spread a
    property of the GA rather than of the program.
    """

    name = "explore_aes1"
    design_name = "AES_1"
    ga_seed = 9
    population = 4
    generations = 2
    unit_s = 20.0

    def imports(self) -> None:
        import repro.bench.designs  # noqa: F401
        import repro.core.flow  # noqa: F401
        import repro.optimize.explorer  # noqa: F401
        import repro.optimize.nsga2  # noqa: F401

    def build(self) -> None:
        from repro.bench.designs import build_design

        self.design = build_design(self.design_name)

    def _explorer(self, unit: int):
        from repro.optimize.explorer import ParetoExplorer
        from repro.optimize.nsga2 import NSGA2Config

        guard = _new_guard(self.design)
        explorer = ParetoExplorer(
            guard,
            config=NSGA2Config(
                population_size=self.population,
                generations=self.generations,
                seed=self.ga_seed,
            ),
            checkpoint_dir=self.workdir / f"explore-{unit}",
        )
        return guard, explorer

    def construct(self) -> None:
        # The first unit's guard and explorer count as set-up; further
        # units build theirs inside the timed region.
        self._first = self._explorer(0)

    def run(self, hooks: Hooks) -> RegionOutcome:
        results = []
        evaluations = failed = requests = hits = 0
        for unit in range(self.units):
            guard, explorer = self._first if unit == 0 else self._explorer(unit)
            self._first = None
            hooks.instrument(guard)
            result = explorer.explore()
            res = explorer.resilience
            failed += res.task_failures + res.timeouts + res.worker_deaths
            evaluations += result.evaluations
            requests += result.cache_requests
            hits += result.cache_hits
            results.append(result)
            del guard, explorer
        return RegionOutcome(
            ops=evaluations,
            failed=failed,
            state={"results": results},
            counters={
                "optimize.cache_requests": requests,
                "optimize.cache_hits": hits,
            },
        )

    def check(self, outcome: RegionOutcome) -> int:
        """Re-evaluate the final rank 0 on a fresh guard; demand equality."""
        from repro.optimize.nsga2 import fast_non_dominated_sort

        failed = 0
        for result in outcome.state["results"]:
            fronts = fast_non_dominated_sort(result.population)
            rank0 = {}
            for ind in fronts[0] if fronts else []:
                rank0.setdefault(ind.genome.canonical(), []).append(ind)
            if not rank0:
                failed += 1
                continue
            guard = _new_guard(self.design)
            for inds in rank0.values():
                fresh = guard.run(inds[0].genome)
                violation = fresh.constraint_violation(
                    n_drc=guard.n_drc,
                    beta_power=guard.beta_power,
                    base_power=guard.baseline_power,
                )
                if any(
                    ind.objectives != fresh.objectives
                    or ind.violation != violation
                    for ind in inds
                ):
                    failed += 1
        return failed


class HardenSuite(Workload):
    """Cold one-shot hardening: fresh guard + one run, CS and LDA per design."""

    name = "harden_suite"
    designs: Tuple[str, ...] = ("PRESENT", "SPARX", "CAST", "AES_2")
    unit_s = 10.0

    def imports(self) -> None:
        import repro.bench.designs  # noqa: F401
        import repro.core.flow  # noqa: F401
        import repro.core.params  # noqa: F401

    def build(self) -> None:
        from repro.bench.designs import build_design

        self.built = {name: build_design(name) for name in self.designs}

    def plan(self) -> List[Tuple[str, Any]]:
        """The seed's hardenings: RWS genes, LDA iterations, order.

        Every pass has the same composition: per design one CS and one
        LDA run; each RWS vector is a drawn permutation of
        :data:`RWS_MULTISET` and the LDA iteration counts are a drawn
        permutation of :data:`LDA_ITERS`.  Fully random RWS vectors make
        one AES_2 run's cost vary by 19% (CV over five draws) against 2%
        for permutations, so the seed would otherwise decide the
        throughput.
        """
        from repro.core.params import FlowConfig

        rng = random.Random(self.seed)
        jobs = []
        for _ in range(self.units):
            iters = list(LDA_ITERS)
            rng.shuffle(iters)
            unit = []
            for name, n_iter in zip(self.designs, iters):
                for op in ("CS", "LDA"):
                    rws = list(RWS_MULTISET)
                    rng.shuffle(rws)
                    unit.append(
                        (name, FlowConfig(op, LDA_GRID_N, n_iter, tuple(rws)))
                    )
            rng.shuffle(unit)
            jobs.extend(unit)
        return jobs

    def construct(self) -> None:
        self.jobs = self.plan()

    def run(self, hooks: Hooks) -> RegionOutcome:
        from repro.errors import ReproError

        def harden(design, config):
            return _new_guard(design).run(config)

        hardened = []
        failed = 0
        for name, config in self.jobs:
            try:
                result = hooks.call_op(harden, self.built[name], config)
            except ReproError:
                failed += 1
                continue
            hardened.append((name, result))
        return RegionOutcome(
            ops=len(self.jobs), failed=failed, state={"hardened": hardened}
        )

    def check(self, outcome: RegionOutcome) -> int:
        """Lint every hardened layout with the error-severity rules."""
        from repro.lint import run_lint

        rules = _error_rule_ids()
        failed = 0
        for name, result in outcome.state["hardened"]:
            base = self.built[name].layout
            report = run_lint(
                result.layout,
                routing=result.routing,
                assets=self.built[name].assets,
                reference_placements={
                    cell: base.placements[cell]
                    for cell in result.layout.fixed
                    if cell in base.placements
                },
                rules=rules,
            )
            if report.errors:
                failed += 1
        return failed


class AttackAES1(Workload):
    """Serial red-team campaign on AES_1's baseline and CS-hardened layouts."""

    name = "attack_aes1"
    design_name = "AES_1"
    grid = "default"
    attempts = 12
    unit_s = 20.0

    def imports(self) -> None:
        import repro.bench.designs  # noqa: F401
        import repro.core.flow  # noqa: F401
        import repro.redteam  # noqa: F401
        import repro.timing.sta  # noqa: F401

    def build(self) -> None:
        from repro.bench.designs import build_design

        self.design = build_design(self.design_name)

    def construct(self) -> None:
        """The targets ``repro attack --hardened`` builds."""
        from repro.core.params import FlowConfig
        from repro.redteam import LayoutAttackSurface
        from repro.timing.sta import run_sta

        d = self.design
        result = _new_guard(d).run(
            FlowConfig("CS", 2, 1, (1.0,) * d.technology.num_layers)
        )
        hardened_sta = run_sta(
            result.layout, d.constraints, routing=result.routing
        )
        self.targets = [
            ("baseline", LayoutAttackSurface(
                "baseline", d.layout, d.sta, d.assets,
                routing=d.routing, constraints=d.constraints,
            )),
            ("hardened", LayoutAttackSurface(
                "hardened", result.layout, hardened_sta, d.assets,
                routing=result.routing, constraints=d.constraints,
            )),
        ]
        self.campaigns = [self._campaign(u) for u in range(self.units)]

    def _campaign(self, unit: int):
        from repro.redteam import AttackCampaign, AttackGrid

        return AttackCampaign(
            self.targets,
            AttackGrid.preset(self.grid),
            attempts=self.attempts,
            seed=self.seed + unit * 1_000_003,
            checkpoint_dir=self.workdir / f"attack-{unit}",
        )

    def run(self, hooks: Hooks) -> RegionOutcome:
        for _, surface in self.targets:
            hooks.instrument(surface)
        results = []
        failed = attempts = successes = 0
        for campaign in self.campaigns:
            result = campaign.run()
            res = campaign.resilience
            failed += res.task_failures + res.timeouts + res.worker_deaths
            for row in result.rows():
                attempts += len(row["outcomes"])
                successes += row["successes"]
            results.append(result)
        return RegionOutcome(
            ops=attempts,
            failed=failed,
            state={"results": results},
            counters={"redteam.successes": successes},
        )

    def check(self, outcome: RegionOutcome) -> int:
        """No hardened regression; one clean implant per successful cell."""
        import numpy as np

        from repro.lint import run_lint
        from repro.reporting.attack_report import hardened_regressions
        from repro.security.trojan import attempt_insertion, materialize_implant

        rules = _error_rule_ids()
        surfaces = dict(self.targets)
        failed = 0
        for result in outcome.state["results"]:
            summary = result.summary()
            failed += result.attempts * len(hardened_regressions(summary))
            points = {p.spec_id: p for p in result.grid.points}
            for row in result.rows():
                first = next(
                    (o for o in row["outcomes"] if o["success"]), None
                )
                if first is None:
                    continue
                surface = surfaces[row["target"]]
                point = points[row["spec_id"]]
                spec = point.trojan_spec()
                report = attempt_insertion(
                    surface.layout,
                    surface.sta,
                    surface.assets,
                    routing=surface.routing,
                    spec=spec,
                    thresh_er=point.thresh_er,
                    rng=np.random.default_rng(first["seed"]),
                )
                if (
                    not report.success
                    or report.region_sites != first["region_sites"]
                ):
                    failed += 1
                    continue
                implanted = materialize_implant(surface.layout, report, spec)
                lint = run_lint(
                    implanted,
                    assets=surface.assets,
                    reference_placements={
                        a: surface.layout.placements[a]
                        for a in surface.assets
                        if a in surface.layout.placements
                    },
                    rules=rules,
                )
                if lint.errors:
                    failed += 1
        return failed


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ExploreAES1, HardenSuite, AttackAES1)
}
