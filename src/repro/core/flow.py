"""The GDSII-Guard ECO flow: ``L_opt = f(L_base; x)`` (§III of the paper).

Pipeline (Fig. 2): preprocess (freeze the security-critical assets so no
operator can move or displace them) → anti-Trojan ECO placement (Cell
Shift or LDA, selected by the configuration) → anti-Trojan ECO routing
(Routing Width Scaling) → post-design metric extraction (security, TNS,
power, DRC).  A :class:`FlowResult` carries everything the multi-objective
optimizer needs: the two objectives and the two hard-constraint values,
normalized against the baseline design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from repro import obs
from repro.core.cell_shift import CellShiftReport, cell_shift
from repro.core.local_density import (
    LdaReport,
    asset_centroid,
    local_density_adjustment,
)
from repro.core.params import FlowConfig
from repro.drc.checker import check_drc
from repro.errors import FlowError
from repro.incremental.engine import DeltaEvaluator
from repro.layout.layout import Layout
from repro.power.power import analyze_power
from repro.resilience import faults
from repro.route.ndr import NonDefaultRule
from repro.route.router import RoutingResult, global_route
from repro.security.assets import SecurityAssets
from repro.security.exploitable import DEFAULT_THRESH_ER
from repro.security.metrics import (
    DEFAULT_ALPHA,
    SecurityMetrics,
    measure_security,
    security_score,
)
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import run_sta

#: The paper's hard-constraint defaults (§IV-A).
DEFAULT_N_DRC = 20
DEFAULT_BETA_POWER = 1.2


@dataclass
class FlowResult:
    """Everything one flow evaluation produced.

    Attributes:
        config: The evaluated parameter vector x.
        layout: The hardened layout L_opt.
        routing: Its routing result.
        security: Raw security metrics of L_opt.
        score: Normalized ``Security(L_opt)`` (lower = more secure).
        tns: Total negative slack (ns, <= 0).
        wns: Worst negative slack (ns, <= 0).
        power: Total power (mW).
        drc_count: #DRC violations.
        feasible: Whether the DRC and power hard constraints hold.
        op_report: The placement operator's report (CS or LDA).
        runtime_s: Wall-clock seconds spent in the flow.
    """

    config: FlowConfig
    layout: Layout
    routing: RoutingResult
    security: SecurityMetrics
    score: float
    tns: float
    wns: float
    power: float
    drc_count: int
    feasible: bool
    op_report: Union[CellShiftReport, LdaReport, None] = None
    runtime_s: float = 0.0

    @property
    def objectives(self) -> tuple:
        """(Security score, −TNS) — both minimized by the optimizer."""
        return (self.score, -self.tns)

    def constraint_violation(
        self,
        n_drc: int = DEFAULT_N_DRC,
        beta_power: float = DEFAULT_BETA_POWER,
        base_power: Optional[float] = None,
    ) -> float:
        """Aggregate hard-constraint violation (0 when feasible)."""
        v = max(0, self.drc_count - n_drc)
        if base_power is not None:
            v += max(0.0, self.power - beta_power * base_power) * 100.0
        return float(v)


@dataclass
class _OpCacheEntry:
    """One operator key's memo entry: the deterministic placement result
    and the evaluator that routes, times and scans it."""

    layout: Layout
    op_report: Union[CellShiftReport, LdaReport]
    evaluator: DeltaEvaluator


class GDSIIGuard:
    """The hardening flow bound to one baseline design.

    Both ECO placement operators are deterministic functions of their
    config genes, so :meth:`run` memoizes one placed layout per operator
    key and routes, times and scans it cold under each candidate's RWS
    scales.

    Args:
        baseline: The finalized baseline layout L_base (never mutated).
        constraints: Timing specification (SDC equivalent).
        assets: Annotated security-critical cells.
        baseline_routing: Baseline routing (re-routed if omitted).
        thresh_er: Exploitable-region threshold (paper: 20, from A2).
        alpha: Site/track weighting of the security score (paper: 0.5).
        n_drc: DRC hard bound N_DRC (paper: 20).
        beta_power: Power hard bound multiplier (paper: 1.2).
        check_invariants: Paranoid mode — re-run the :mod:`repro.lint`
            invariant rules after every ECO operator stage (placement op
            and routing) and raise :class:`FlowError` on any
            error-severity violation.  Costs one full rule sweep per
            stage; off by default.
    """

    def __init__(
        self,
        baseline: Layout,
        constraints: TimingConstraints,
        assets: SecurityAssets,
        baseline_routing: Optional[RoutingResult] = None,
        thresh_er: int = DEFAULT_THRESH_ER,
        alpha: float = DEFAULT_ALPHA,
        n_drc: int = DEFAULT_N_DRC,
        beta_power: float = DEFAULT_BETA_POWER,
        check_invariants: bool = False,
    ) -> None:
        assets.validate_against(baseline.netlist)
        self.baseline = baseline
        self.constraints = constraints
        self.assets = assets
        self.thresh_er = thresh_er
        self.alpha = alpha
        self.n_drc = n_drc
        self.beta_power = beta_power
        self.check_invariants = check_invariants
        #: number of paranoid-mode lint sweeps run / violations they found
        #: (warnings included; errors raise immediately).
        self.invariant_checks = 0
        self.invariant_violations = 0
        self._op_cache: dict = {}
        if baseline_routing is None:
            baseline_routing = global_route(baseline)
        self.baseline_routing = baseline_routing
        self._baseline_sta = run_sta(
            baseline, constraints, routing=self.baseline_routing
        )
        self.baseline_security = measure_security(
            baseline,
            self._baseline_sta,
            assets,
            routing=self.baseline_routing,
            thresh_er=thresh_er,
        )
        self.baseline_power = analyze_power(
            baseline, constraints, self._baseline_sta
        ).total
        from repro.security.exploitable import exploitable_distance

        #: per-asset exploitable distances of the baseline — used by the
        #: CS operator to score where residual free space is harmless.
        self.baseline_distances = {
            name: exploitable_distance(baseline, self._baseline_sta, name)
            for name in assets
        }
        self._netlist_signature = baseline.netlist.signature()

    # ------------------------------------------------------------------ #

    def preprocess(self, layout: Layout, freeze_assets: bool = False) -> None:
        """Protect the security-critical cells (Fig. 2's preprocessing).

        Per §III-A the critical cells must not be *removed or replaced*
        during the optimization — our operators never delete or swap
        instances, and :meth:`run` asserts the netlist signature is
        untouched, which enforces exactly that invariant.  Shifting an
        asset within the layout is allowed (both ECO operators are
        placement moves, not removals); pass ``freeze_assets=True`` to
        additionally pin the assets in place.
        """
        if freeze_assets:
            for name in self.assets:
                layout.fixed.add(name)

    def _apply_placement_op(
        self, layout: Layout, config: FlowConfig
    ) -> Union[CellShiftReport, LdaReport]:
        """Run the configured ECO placement operator in place."""
        if config.op_select == "CS":
            return cell_shift(
                layout,
                thresh_er=self.thresh_er,
                assets=self.assets,
                distances=self.baseline_distances,
            )
        if config.op_select == "LDA":
            return local_density_adjustment(
                layout,
                self.assets,
                n=config.lda_n,
                n_iter=config.lda_n_iter,
            )
        # pragma: no cover - FlowConfig already validates
        raise FlowError(f"unknown operator {config.op_select!r}")

    @staticmethod
    def _op_key(config: FlowConfig) -> tuple:
        """The genes that decide the placement — CS takes none, LDA two."""
        if config.op_select == "LDA":
            return ("LDA", config.lda_n, config.lda_n_iter)
        return ("CS",)

    def _materialize_op(
        self, config: FlowConfig
    ) -> tuple:
        """Produce the placed layout + report for a new operator key.

        LDA keys chain off the longest cached ``(n, j)`` prefix — the
        operator is a pure iteration on the layout state, so continuing
        ``j``'s layout for ``n_iter − j`` more cycles (with the original
        attraction point) reproduces the full run exactly.
        """
        prefix = None
        prefix_iters = 0
        if config.op_select == "LDA":
            for j in range(config.lda_n_iter - 1, 0, -1):
                prefix = self._op_cache.get(("LDA", config.lda_n, j))
                if prefix is not None:
                    prefix_iters = j
                    break
        if prefix is None:
            with obs.timed("flow.preprocess"):
                layout = self.baseline.clone()
                self.preprocess(layout)
            with obs.timed("flow.place_op", op=config.op_select):
                op_report = self._apply_placement_op(layout, config)
            return layout, op_report
        obs.count("flow.incremental.op_prefix_chains")
        with obs.timed("flow.preprocess"):
            layout = prefix.layout.clone()
        with obs.timed("flow.place_op", op=config.op_select):
            # Every evaluation starts from a fresh clone of the baseline,
            # so a full run attracts towards the baseline's asset
            # centroid; the prefix already moved the assets, so the
            # continuation must be given that centroid explicitly.
            cont = local_density_adjustment(
                layout,
                self.assets,
                n=config.lda_n,
                n_iter=config.lda_n_iter - prefix_iters,
                attract_point=asset_centroid(self.baseline, self.assets),
            )
        op_report = LdaReport(
            grid_n=config.lda_n,
            iterations=list(prefix.op_report.iterations)
            + list(cont.iterations),
        )
        return layout, op_report

    def _assert_invariants(
        self, layout: Layout, stage: str, routing=None
    ) -> None:
        """Paranoid-mode lint sweep; raise on error-severity violations.

        The frozen-cell reference is the baseline placement: fixed cells
        are frozen where the baseline put them, so any drift is an
        operator walking through :attr:`Layout.fixed`.
        """
        if not self.check_invariants:
            return
        from repro.lint.engine import run_lint
        from repro.lint.violations import Severity

        reference = {
            name: self.baseline.placement(name)
            for name in layout.fixed
            if self.baseline.is_placed(name)
        }
        with obs.timed("flow.invariant_check", at=stage):
            report = run_lint(
                layout,
                routing=routing,
                assets=self.assets,
                reference_placements=reference,
                thresh_er=self.thresh_er,
                subject=f"{layout.netlist.name}:{stage}",
            )
        self.invariant_checks += 1
        self.invariant_violations += len(report.violations)
        obs.count("flow.invariant_checks")
        if report.violations:
            obs.count("flow.invariant_violations", len(report.violations))
        if report.errors:
            first = next(
                v for v in report.violations if v.severity >= Severity.ERROR
            )
            raise FlowError(
                f"invariant violation after {stage}: {first.format()} "
                f"({report.errors} error(s) total)"
            )

    def run(self, config: FlowConfig) -> FlowResult:
        """Evaluate the flow at parameter vector ``config``.

        Candidates sharing an operator key reuse the memoized placed
        layout; each evaluation re-routes it under its own RWS scales and
        re-times and re-scans it cold.

        Returns:
            A :class:`FlowResult` whose layout is the memo entry's shared
            layout (treat as read-only).

        Raises:
            FlowError: If an operator structurally modified the netlist
                (threat-model invariant) or the config is malformed.
        """
        t0 = time.perf_counter()
        with obs.timed("flow.run", op=config.op_select):
            k = self.baseline.technology.num_layers
            if len(config.rws_scales) != k:
                raise FlowError(
                    f"RWS needs {k} layer scales, got {len(config.rws_scales)}"
                )
            key = self._op_key(config)
            entry = self._op_cache.get(key)
            if entry is None:
                obs.count("flow.incremental.op_cache_misses")
                layout, op_report = self._materialize_op(config)
                if layout.netlist.signature() != self._netlist_signature:
                    raise FlowError(
                        "flow operator modified the netlist — "
                        "threat-model violation"
                    )
                layout.validate()
                self._assert_invariants(
                    layout, f"place_op:{config.op_select}"
                )
                evaluator = DeltaEvaluator(
                    layout,
                    self.constraints,
                    self.assets,
                    thresh_er=self.thresh_er,
                )
                entry = _OpCacheEntry(layout, op_report, evaluator)
                self._op_cache[key] = entry
            else:
                obs.count("flow.incremental.op_cache_hits")
            layout = entry.layout

            ndr = NonDefaultRule.from_list(config.rws_scales)
            try:
                if faults.is_active():
                    faults.maybe_flow_fault()
                res = entry.evaluator.evaluate(ndr)
            except BaseException:
                # Drop the entry so a supervised retry rebuilds it from
                # the baseline instead of trusting state an evaluation
                # died in.  BaseException on purpose: a KeyboardInterrupt
                # or SystemExit mid-evaluation is no different, and
                # everything is re-raised unconditionally.
                self._op_cache.pop(key, None)
                raise
            routing = res.routing
            self._assert_invariants(layout, "route", routing=routing)
            security = SecurityMetrics.from_report(res.security)
            score = security_score(security, self.baseline_security, self.alpha)
            with obs.timed("flow.power"):
                power = analyze_power(layout, self.constraints, res.sta).total
            with obs.timed("flow.drc"):
                drc = check_drc(layout, routing).count
        feasible = (
            drc <= self.n_drc and power <= self.beta_power * self.baseline_power
        )
        obs.count("flow.evaluations")
        return FlowResult(
            config=config,
            layout=layout,
            routing=routing,
            security=security,
            score=score,
            tns=res.sta.tns,
            wns=res.sta.wns,
            power=power,
            drc_count=drc,
            feasible=feasible,
            op_report=entry.op_report,
            runtime_s=time.perf_counter() - t0,
        )
