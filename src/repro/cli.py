"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the end-to-end workflow a user needs without writing
Python:

* ``designs`` — list the benchmark suite with baseline attributes.
* ``baseline`` — build one design and print its baseline metric row.
* ``harden`` — run the GDSII-Guard flow at a fixed configuration and
  optionally export the hardened layout (DEF / Verilog / GDSII).
* ``explore`` — run the NSGA-II Pareto exploration and print the front.
* ``attack`` — run the A2-class Trojan attacker against the baseline or a
  hardened layout; with ``--grid``/``--attempts``/``--front`` it runs a
  full Monte Carlo red-team campaign (checkpointed, resumable, with an
  optional hardened-vs-baseline CI gate).
* ``signoff`` — multi-corner (MMMC-style) timing signoff.
* ``report`` — consolidated markdown security report for a layout.
* ``defend`` — run one of the baseline defenses (icas / bisa / ba).
* ``profile`` — run the flow under the observability layer and print the
  per-stage wall-clock / peak-RSS breakdown (plus a JSONL event trace).
* ``lint`` — run the rule-based layout DRC/invariant analyzer over a
  design (text or JSON diagnostics, ``--fail-on`` exit-code gate).
* ``analyze`` — run the source analyzer over the repro tree itself
  (determinism rules, purity contracts, event-loop and fork safety;
  ratcheted baseline, ``--fail-on`` exit-code gate).
* ``serve`` — run the long-lived job-orchestration daemon (JSON-over-
  HTTP API, bounded priority queue, graceful SIGTERM drain).
* ``submit`` — submit a harden/explore job to a running daemon
  (optionally ``--wait`` for the result and print the front).
* ``jobs`` — list a daemon's jobs, or show/cancel/fetch one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.designs import DESIGN_NAMES, build_design
from repro.bench.suite import baseline_metrics, baseline_security
from repro.core.flow import GDSIIGuard
from repro.core.params import (
    LDA_ITER_CHOICES,
    LDA_N_CHOICES,
    RWS_SCALE_CHOICES,
    FlowConfig,
)
from repro.errors import FlowError, ReproError
from repro.reporting.tables import format_table


def _build_guard(design, check_invariants: bool = False):
    return GDSIIGuard(
        design.layout,
        design.constraints,
        design.assets,
        baseline_routing=design.routing,
        check_invariants=check_invariants,
    )


def _hardened(args: argparse.Namespace, design):
    """The ``--hardened`` target: CS with the ``--rws`` scales on a guard.

    Returns its layout, routing and STA result.
    """
    from repro.timing.sta import run_sta

    config = FlowConfig(
        "CS", 2, 1, _parse_scales(args.rws, design.technology.num_layers)
    )
    result = _build_guard(design).run(config)
    sta = run_sta(result.layout, design.constraints, routing=result.routing)
    return result.layout, result.routing, sta


def _parse_scales(raw: str, num_layers: int) -> tuple:
    try:
        parts = [float(x) for x in raw.split(",")] if raw else [1.0]
    except ValueError:
        raise FlowError(
            f"--rws {raw!r}: expected comma-separated numbers"
        ) from None
    if len(parts) == 1:
        parts = parts * num_layers
    if len(parts) != num_layers:
        raise FlowError(
            f"--rws needs 1 or {num_layers} comma-separated values"
        )
    for p in parts:
        if p not in RWS_SCALE_CHOICES:
            raise FlowError(f"RWS scale {p} not in {RWS_SCALE_CHOICES}")
    return tuple(parts)


def cmd_designs(args: argparse.Namespace) -> int:
    rows = []
    for name in DESIGN_NAMES:
        d = build_design(name)
        m = baseline_metrics(d)
        rows.append(
            [
                name,
                int(m["cells"]),
                f"{m['utilization']:.2f}",
                f"{d.constraints.clock_period:.3f}",
                f"{m['tns']:.3f}",
                f"{m['power']:.3f}",
                int(m["drc"]),
                int(m["er_sites"]),
            ]
        )
    print(
        format_table(
            ["design", "cells", "util", "clk (ns)", "TNS", "power (mW)",
             "#DRC", "ER sites"],
            rows,
            title="Benchmark suite (baselines)",
        )
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    d = build_design(args.design)
    m = baseline_metrics(d)
    for key, value in m.items():
        print(f"{key:12s} {value:.4f}" if isinstance(value, float) else value)
    return 0


def cmd_harden(args: argparse.Namespace) -> int:
    d = build_design(args.design)
    config = FlowConfig(
        op_select=args.op,
        lda_n=args.lda_n,
        lda_n_iter=args.lda_iter,
        rws_scales=_parse_scales(args.rws, d.technology.num_layers),
    )
    guard = _build_guard(d, check_invariants=args.check_invariants)
    result = guard.run(config)
    if args.check_invariants:
        print(
            f"invariants      : OK ({guard.invariant_checks} checks, "
            f"{guard.invariant_violations} violations)"
        )
    base = guard.baseline_security
    print(f"config          : {config}")
    print(f"security score  : {result.score:.4f} (baseline 1.0)")
    print(f"ER sites/tracks : {result.security.er_sites} / "
          f"{result.security.er_tracks:.0f} "
          f"(was {base.er_sites} / {base.er_tracks:.0f})")
    print(f"TNS             : {result.tns:.3f} ns (was {d.sta.tns:.3f})")
    print(f"power           : {result.power:.3f} mW "
          f"(cap {guard.beta_power * guard.baseline_power:.3f})")
    print(f"#DRC            : {result.drc_count} (cap {guard.n_drc})")
    print(f"feasible        : {result.feasible}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        from repro.layout.def_io import save_def
        from repro.layout.gdsii import save_gdsii
        from repro.netlist.verilog import write_structural_verilog

        save_def(result.layout, out / f"{args.design}.def")
        save_gdsii(result.layout, out / f"{args.design}.gds")
        (out / f"{args.design}.v").write_text(
            write_structural_verilog(d.netlist)
        )
        print(f"wrote {out}/{args.design}.def, .gds, .v")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.optimize.explorer import ParetoExplorer
    from repro.resilience.supervisor import SupervisionConfig
    from repro.optimize.nsga2 import NSGA2Config

    supervision = SupervisionConfig(
        timeout_s=args.eval_timeout, max_retries=args.max_retries
    )
    d = build_design(args.design)
    guard = _build_guard(d)
    explorer = ParetoExplorer(
        guard,
        config=NSGA2Config(
            population_size=args.population,
            generations=args.generations,
            seed=args.seed,
        ),
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        supervision=supervision,
    )
    result = explorer.explore()
    manager = explorer.resumable.manager
    if result.resumed_from is not None:
        print(f"resumed from generation {result.resumed_from} "
              f"({manager.path})")
    print(f"{result.evaluations} evaluations; front:")
    rows = [
        [
            f"{i.objectives[0]:.4f}",
            f"{i.objectives[1]:.4f}",
            i.genome.op_select,
            i.genome.lda_n,
            i.genome.lda_n_iter,
            "/".join(f"{s:g}" for s in i.genome.rws_scales),
        ]
        for i in sorted(result.pareto_front, key=lambda x: x.objectives[0])
    ]
    print(
        format_table(
            ["security", "-TNS", "op", "N", "iter", "RWS"],
            rows,
            title=f"Pareto front — {args.design}",
        )
    )
    res = result.resilience
    if res is not None and any(v for v in res.as_dict().values()):
        print("resilience      : "
              + ", ".join(f"{k}={v}" for k, v in res.as_dict().items()))
    if manager is not None:
        print(f"checkpoint      : {manager.path}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.security.trojan import attempt_insertion

    campaign_mode = (
        args.grid is not None
        or args.attempts is not None
        or args.front is not None
    )
    d = build_design(args.design)
    if campaign_mode:
        return _cmd_attack_campaign(args, d)
    if args.hardened:
        layout, routing, sta = _hardened(args, d)
    else:
        layout, routing, sta = d.layout, d.routing, d.sta
    report = attempt_insertion(layout, sta, d.assets, routing=routing)
    print("SUCCESS" if report.success else "FAILED", "—", report.reason)
    return 0 if not report.success else 1


def _load_front_configs(path: str, num_layers: int) -> List[FlowConfig]:
    """The flow configs of an exploration-front JSON file.

    Accepts either a bare list of front entries or an object with a
    ``front`` key (the shape ``repro jobs <id> --result`` prints);
    entries may be full individuals (``{"genome": ...}``) or bare
    genome objects.  Each genome's RWS vector must hold ``num_layers``
    scales, one per metal layer of the design.

    Raises:
        FlowError: Naming the file (and the entry index) when it cannot
            be read, an entry is not a genome, or its RWS vector has the
            wrong length.
    """
    from repro.resilience.checkpoint import decode_flow_config

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FlowError(f"--front {path}: {exc}") from None
    entries = payload.get("front") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise FlowError(
            f"--front {path}: expected a non-empty JSON list of front "
            f"entries (or an object with a 'front' list)"
        )
    configs = []
    for i, entry in enumerate(entries):
        genome = entry.get("genome", entry) if isinstance(entry, dict) else entry
        if not isinstance(genome, dict):
            what = f"entry {i}" if genome is entry else f"entry {i}'s genome"
            raise FlowError(
                f"--front {path}: {what} must be a JSON object, "
                f"got {type(genome).__name__}"
            )
        try:
            configs.append(decode_flow_config(genome))
        except ReproError as exc:
            detail = exc.__cause__ if exc.__cause__ is not None else exc
            raise FlowError(
                f"--front {path}: entry {i}: malformed genome "
                f"{genome!r} ({detail!r})"
            ) from None
        scales = configs[-1].rws_scales
        if len(scales) != num_layers:
            raise FlowError(
                f"--front {path}: entry {i}: RWS needs {num_layers} layer "
                f"scales, got {len(scales)}"
            )
    return configs


def _cmd_attack_campaign(args: argparse.Namespace, d) -> int:
    from repro.redteam import AttackCampaign, AttackGrid, LayoutAttackSurface
    from repro.reporting.attack_report import (
        attack_summary_json,
        attack_table,
        hardened_regressions,
    )
    from repro.resilience.supervisor import SupervisionConfig
    from repro.timing.sta import run_sta

    def surface(target_id, layout, sta, routing):
        return LayoutAttackSurface(
            target_id, layout, sta, d.assets,
            routing=routing, constraints=d.constraints,
        )

    targets = [("baseline", surface("baseline", d.layout, d.sta, d.routing))]
    front = (
        _load_front_configs(args.front, d.technology.num_layers)
        if args.front else []
    )
    if args.hardened:
        layout, routing, sta = _hardened(args, d)
        targets.append(("hardened", surface("hardened", layout, sta, routing)))
    if front:
        guard = _build_guard(d)
        for i, config in enumerate(front):
            result = guard.run(config)
            sta = run_sta(result.layout, d.constraints,
                          routing=result.routing)
            targets.append(
                (f"front-{i}",
                 surface(f"front-{i}", result.layout, sta, result.routing))
            )
    campaign = AttackCampaign(
        targets,
        AttackGrid.preset(args.grid or "quick"),
        attempts=4 if args.attempts is None else args.attempts,
        seed=args.seed,
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        supervision=SupervisionConfig(),
    )
    result = campaign.run()
    summary = result.summary()
    manager = campaign.resumable.manager
    if result.resumed_from is not None:
        print(f"resumed from batch {result.resumed_from} "
              f"({manager.path})")
    print(attack_table(
        summary,
        title=(f"Attack campaign — {args.design}, "
               f"grid {summary['grid']['name']!r}, "
               f"{summary['attempts_per_spec']} attempts/spec, "
               f"seed {summary['seed']}"),
    ))
    res = campaign.resilience.as_dict()
    if any(v for v in res.values()):
        print("resilience      : "
              + ", ".join(f"{k}={v}" for k, v in res.items()))
    if manager is not None:
        print(f"checkpoint      : {manager.path}")
    if args.json:
        Path(args.json).write_text(attack_summary_json(summary))
        print(f"wrote {args.json}")
    if args.gate_hardened:
        if len(targets) < 2:
            raise SystemExit(
                "--gate-hardened needs a hardened target; add --hardened "
                "or --front"
            )
        regressions = hardened_regressions(summary)
        if regressions:
            for target, spec_id, rate, base in regressions:
                print(f"GATE: {target} is easier to attack than baseline "
                      f"on {spec_id} ({rate:.2f} > {base:.2f})",
                      file=sys.stderr)
            return 1
        print("hardened gate   : OK (no spec attacks hardened layouts "
              "more easily than the baseline)")
    return 0


def cmd_signoff(args: argparse.Namespace) -> int:
    from repro.timing.corners import run_multi_corner_sta

    d = build_design(args.design)
    if args.hardened:
        layout, routing, _ = _hardened(args, d)
    else:
        layout, routing = d.layout, d.routing
    mc = run_multi_corner_sta(layout, d.constraints, routing=routing)
    rows = [
        [name, f"{tns:.3f}"] for name, tns in mc.tns_by_corner().items()
    ]
    print(format_table(["corner", "TNS (ns)"], rows,
                       title=f"Multi-corner signoff — {args.design}"))
    print(f"worst corner: {mc.worst_corner} (TNS {mc.worst_tns:.3f} ns)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.security_report import security_report

    d = build_design(args.design)
    if args.hardened:
        layout, routing, sta = _hardened(args, d)
        title = f"{args.design} (GDSII-Guard hardened)"
    else:
        layout, routing, sta = d.layout, d.routing, d.sta
        title = f"{args.design} (baseline)"
    text = security_report(title, layout, sta, d.assets, d.constraints,
                           routing=routing)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_defend(args: argparse.Namespace) -> int:
    from repro.defenses import ba_defense, bisa_defense, icas_defense
    from repro.security.metrics import security_score

    d = build_design(args.design)
    fn = {"icas": icas_defense, "bisa": bisa_defense, "ba": ba_defense}[
        args.defense
    ]
    r = fn(d)
    base = baseline_security(d)
    print(f"{r.name}: security {security_score(r.security, base):.4f}, "
          f"TNS {r.tns:.3f} ns, power {r.power:.3f} mW, #DRC {r.drc_count}, "
          f"{r.runtime_s:.1f} s")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.optimize.explorer import ParetoExplorer
    from repro.optimize.nsga2 import NSGA2Config
    from repro.reporting.profile_report import (
        counters_table,
        profile_table,
        write_metrics_json,
    )

    ga_config = NSGA2Config(
        population_size=args.population,
        generations=args.generations,
        seed=args.seed,
    )

    trace_path = args.trace or f"{args.design}_profile.jsonl"
    obs.enable(trace_path=trace_path)
    with obs.timed("profile", design=args.design):
        with obs.timed("profile.build_design"):
            d = build_design(args.design)
        with obs.timed("profile.baseline"):
            guard = _build_guard(d)
        with obs.timed("profile.explore"):
            result = ParetoExplorer(
                guard, config=ga_config, processes=args.processes
            ).explore()
    obs.disable()
    snapshot = obs.get_metrics().snapshot()
    print(
        profile_table(
            snapshot, title=f"Stage profile — {args.design} (explore)"
        )
    )
    resilience = counters_table(
        snapshot, prefix="resilience.", title="Resilience counters"
    )
    if resilience:
        print()
        print(resilience)
    print(
        f"\n{result.evaluations} flow evaluations, "
        f"{result.cache_requests} GA lookups, "
        f"memo hit rate {result.cache_hit_rate:.1%}"
    )
    print(f"trace           : {trace_path}")
    if args.json:
        out = write_metrics_json(
            snapshot,
            args.json,
            extra={
                "design": args.design,
                "population": args.population,
                "generations": args.generations,
                "evaluations": result.evaluations,
                "cache_hit_rate": result.cache_hit_rate,
            },
        )
        print(f"metrics json    : {out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import all_rules, run_lint
    from repro.lint.violations import Severity
    from repro.reporting.tables import format_table

    if args.list_rules:
        rows = [
            [r.rule_id, r.name, r.severity.label(), r.description]
            for r in all_rules()
        ]
        print(format_table(["id", "name", "severity", "checks"], rows,
                           title="Lint rule catalog"))
        return 0
    if args.design is None:
        raise SystemExit("repro lint: a design is required (or --list-rules)")
    selectors = None
    if args.rules:
        selectors = [s for part in args.rules for s in part.split(",") if s]
    d = build_design(args.design)
    report = run_lint(
        d.layout,
        routing=d.routing,
        assets=d.assets,
        rules=selectors,
        subject=args.design,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text(verbose=args.verbose))
    return report.exit_code(Severity.parse(args.fail_on))


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, analyze_tree
    from repro.analysis.baseline import write_baseline
    from repro.analysis.engine import default_root
    from repro.lint.violations import Severity
    from repro.reporting.tables import format_table

    if args.list_rules:
        rows = [
            [spec.rule_id, spec.severity.label(), spec.summary]
            for _, spec in sorted(RULES.items())
        ]
        print(format_table(["id", "severity", "checks"], rows,
                           title="Static analysis rule catalog"))
        return 0
    selectors = None
    if args.rules:
        selectors = [s for part in args.rules for s in part.split(",") if s]
    root = Path(args.root).resolve() if args.root else default_root()
    baseline: Optional[Path] = None
    if args.baseline != "none":
        baseline = Path(args.baseline)
        if not baseline.is_absolute():
            baseline = root / baseline
    report = analyze_tree(root=root, rules=selectors, baseline=baseline)
    if args.update_baseline:
        if baseline is None:
            raise SystemExit(
                "repro analyze: --update-baseline needs a --baseline path"
            )
        grandfathered = report.findings + report.baselined
        write_baseline(baseline, grandfathered)
        print(f"wrote {len(grandfathered)} baseline key(s) to {baseline}")
        return 0
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text(verbose=args.verbose))
    return report.exit_code(Severity.parse(args.fail_on))


def cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.resilience.supervisor import SupervisionConfig
    from repro.service.app import ServiceApp
    from repro.service.scheduler import SchedulerConfig

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    if args.guard == "fake":
        from repro.service.testing import FakeGuardFactory

        factory = FakeGuardFactory()
    else:
        from repro.service.runner import DesignGuardFactory

        factory = DesignGuardFactory()
    app = ServiceApp(
        args.state_dir,
        guard_factory=factory,
        config=SchedulerConfig(
            workers=args.workers,
            queue_limit=args.queue_limit,
            retry_after_s=args.retry_after,
            max_job_retries=args.max_job_retries,
            supervision=SupervisionConfig(
                timeout_s=args.eval_timeout,
                max_retries=args.max_retries,
            ),
        ),
        host=args.host,
        port=args.port,
        resume=args.resume,
    )
    return app.run()


def _print_front_rows(front: list, title: str) -> None:
    rows = [
        [
            f"{e['objectives'][0]:.4f}",
            f"{e['objectives'][1]:.4f}",
            e["genome"]["op_select"],
            e["genome"]["lda_n"],
            e["genome"]["lda_n_iter"],
            "/".join(f"{s:g}" for s in e["genome"]["rws_scales"]),
        ]
        for e in front
    ]
    print(
        format_table(
            ["security", "-TNS", "op", "N", "iter", "RWS"],
            rows,
            title=title,
        )
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    spec = {
        "kind": args.kind,
        "design": args.design,
        "priority": args.priority,
        "seed": args.seed,
        "population": args.population,
        "generations": args.generations,
        "processes": args.processes,
        "resume": args.resume,
        "resume_from": args.resume_from,
        "attempts": args.attempts,
        "grid": args.grid,
    }
    job = client.submit(spec, honor_backpressure=args.block)
    print(f"submitted {job['id']} ({args.kind} {args.design}, "
          f"priority {args.priority}, seed {args.seed}) — "
          f"state {job['state']}")
    if not args.wait:
        return 0
    record = client.wait(job["id"], timeout_s=args.timeout)
    state = record["state"]
    print(f"{job['id']}: {state}")
    if state != "done":
        if record.get("error"):
            print(f"error: {record['error']}", file=sys.stderr)
        return 1
    result = client.result(job["id"])
    if args.kind == "explore":
        print(f"{result['evaluations']} evaluations; front:")
        _print_front_rows(
            result["front"],
            title=f"Pareto front — {args.design} (served)",
        )
    elif args.kind == "attack":
        from repro.reporting.attack_report import attack_table

        print(attack_table(
            result["summary"],
            title=f"Attack campaign — {args.design} (served)",
        ))
    else:
        print(f"objectives      : "
              + ", ".join(f"{v:.4f}" for v in result["objectives"]))
        print(f"violation       : {result['violation']:.4f}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id is None:
        rows = [
            [
                j["id"], j["kind"], j["design"], j["priority"],
                j["seed"], j["state"],
                "-" if j["generation"] is None else j["generation"],
            ]
            for j in client.jobs()
        ]
        print(
            format_table(
                ["id", "kind", "design", "prio", "seed", "state", "gen"],
                rows,
                title=f"Jobs — {args.url}",
            )
        )
        return 0
    if args.cancel:
        job = client.cancel(args.job_id)
        print(f"{job['id']}: {job['state']}")
        return 0
    if args.result:
        result = client.result(args.job_id)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    job = client.job(args.job_id)
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GDSII-Guard reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("designs", help="list the benchmark suite").set_defaults(
        func=cmd_designs
    )

    p = sub.add_parser("baseline", help="baseline metrics of one design")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("harden", help="run the GDSII-Guard flow")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--op", choices=("CS", "LDA"), default="CS")
    p.add_argument("--lda-n", type=int, choices=LDA_N_CHOICES, default=16)
    p.add_argument("--lda-iter", type=int, choices=LDA_ITER_CHOICES, default=2)
    p.add_argument("--rws", default="1.0",
                   help="one scale for all layers or K comma-separated")
    p.add_argument("--out", help="directory for DEF/GDSII/Verilog export")
    p.add_argument("--check-invariants", action="store_true",
                   help="paranoid mode: re-run the layout invariant lint "
                        "after every ECO operator and fail on violations")
    p.set_defaults(func=cmd_harden)

    p = sub.add_parser("explore", help="NSGA-II Pareto exploration")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--population", type=int, default=8)
    p.add_argument("--generations", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--processes", type=int, default=0)
    p.add_argument("--checkpoint-dir",
                   help="run directory for per-generation checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --checkpoint-dir "
                        "(starts fresh when none exists)")
    p.add_argument("--eval-timeout", type=float, default=600.0,
                   help="per-evaluation timeout in seconds before a worker "
                        "is killed and the task retried (default 600)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="re-dispatches per failed evaluation before "
                        "falling back to in-process execution (default 2)")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "attack",
        help="run the Trojan attacker (single attempt, or a Monte Carlo "
             "campaign with --grid/--attempts/--front)",
    )
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--hardened", action="store_true",
                   help="also attack a GDSII-Guard-hardened layout")
    p.add_argument("--rws", default="1.0")
    p.add_argument("--grid", default=None,
                   help="campaign mode: named spec-grid preset "
                        "(ci, quick, default)")
    p.add_argument("--attempts", type=int, default=None,
                   help="campaign mode: seeded attempts per grid spec "
                        "(default 4)")
    p.add_argument("--front", metavar="FILE", default=None,
                   help="campaign mode: attack every point of an "
                        "exploration-front JSON file (harden each genome, "
                        "targets named front-<i>)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (every attempt seed derives from it)")
    p.add_argument("--processes", type=int, default=0,
                   help="supervised worker processes per batch "
                        "(0 = inline serial)")
    p.add_argument("--checkpoint-dir",
                   help="run directory for per-batch campaign checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --checkpoint-dir "
                        "(starts fresh when none exists)")
    p.add_argument("--json", metavar="OUT",
                   help="write the canonical campaign summary JSON here")
    p.add_argument("--gate-hardened", action="store_true",
                   help="exit non-zero if any hardened/front target is "
                        "easier to attack than the baseline on any spec")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("signoff", help="multi-corner timing signoff")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--hardened", action="store_true")
    p.add_argument("--rws", default="1.0")
    p.set_defaults(func=cmd_signoff)

    p = sub.add_parser("report", help="markdown security report")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--hardened", action="store_true")
    p.add_argument("--rws", default="1.0")
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("defend", help="run a baseline defense")
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("defense", choices=("icas", "bisa", "ba"))
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser(
        "profile",
        help="per-stage wall-clock/RSS profile of the flow + exploration",
    )
    p.add_argument("design", choices=DESIGN_NAMES)
    p.add_argument("--population", type=int, default=6)
    p.add_argument("--generations", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--processes", type=int, default=0)
    p.add_argument("--trace",
                   help="JSONL event-trace path (default <design>_profile.jsonl)")
    p.add_argument("--json", help="also write the metrics snapshot as JSON")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "lint",
        help="rule-based layout DRC/invariant analysis of a design",
    )
    p.add_argument("design", nargs="?", choices=DESIGN_NAMES,
                   help="design to lint (omit with --list-rules)")
    p.add_argument("--rules", action="append", default=[],
                   help="rule ids/names to run (comma-separated or "
                        "repeated); default: the whole catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on", choices=("info", "warning", "error"),
                   default="error",
                   help="lowest severity that makes the exit code "
                        "non-zero (default error)")
    p.add_argument("--verbose", action="store_true",
                   help="also print fix hints under each finding")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="determinism, effect & concurrency analysis of the "
             "repro source tree itself",
    )
    p.add_argument("--rules", action="append", default=[],
                   help="rule ids or family prefixes (DET, EFF, ASY, FRK; "
                        "comma-separated or repeated); default: all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on", choices=("info", "warning", "error"),
                   default="error",
                   help="lowest severity that makes the exit code "
                        "non-zero (default error)")
    p.add_argument("--baseline", default="tools/analysis_ratchet.json",
                   help="ratcheted baseline file, relative to the repo "
                        "root ('none' disables baseline handling)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from the current findings "
                        "and exit (the ratchet should only go down)")
    p.add_argument("--root",
                   help="repo root containing src/repro (default: "
                        "inferred from the installed package)")
    p.add_argument("--out",
                   help="also write the JSON report to this path "
                        "(CI artifact)")
    p.add_argument("--verbose", action="store_true",
                   help="also print fix hints under each finding")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "serve",
        help="run the job-orchestration daemon (JSON-over-HTTP API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8347,
                   help="TCP port to bind (0 picks a free one)")
    p.add_argument("--state-dir", default="repro-service",
                   help="journal + checkpoint directory (default "
                        "./repro-service)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job slots (default 2)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded queue size before 429 backpressure")
    p.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After seconds advertised on 429s")
    p.add_argument("--max-job-retries", type=int, default=1,
                   help="whole-job retries after a ReproError (default 1)")
    p.add_argument("--eval-timeout", type=float, default=600.0,
                   help="per-evaluation timeout in seconds (default 600)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="per-evaluation re-dispatches before in-process "
                        "fallback (default 2)")
    p.add_argument("--resume", action="store_true",
                   help="resurrect unfinished journaled jobs from "
                        "--state-dir before serving")
    p.add_argument("--guard", choices=("real", "fake"), default="real",
                   help="'fake' serves the deterministic test evaluator "
                        "(chaos tests, smoke loads)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a harden/explore/attack job to a running daemon",
    )
    p.add_argument("design")
    p.add_argument("--url", default="http://127.0.0.1:8347",
                   help="daemon base URL")
    p.add_argument("--kind", choices=("explore", "harden", "attack"),
                   default="explore")
    p.add_argument("--attempts", type=int, default=4,
                   help="attack jobs: seeded attempts per grid spec")
    p.add_argument("--grid", default="quick",
                   help="attack jobs: named spec-grid preset")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=8)
    p.add_argument("--generations", type=int, default=3)
    p.add_argument("--processes", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="continue from the job's service-side checkpoint")
    p.add_argument("--resume-from", metavar="JOB_ID", default=None,
                   help="continue a cancelled job's checkpoint lineage "
                        "(the DELETE handoff; implies --resume)")
    p.add_argument("--block", action="store_true",
                   help="wait out 429 backpressure instead of failing")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes and print the result")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait deadline in seconds (default 600)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "jobs",
        help="list a daemon's jobs, or show/cancel/fetch one",
    )
    p.add_argument("job_id", nargs="?",
                   help="job id (omit to list all jobs)")
    p.add_argument("--url", default="http://127.0.0.1:8347",
                   help="daemon base URL")
    p.add_argument("--cancel", action="store_true",
                   help="cancel the given job (checkpoint handoff)")
    p.add_argument("--result", action="store_true",
                   help="print the given job's final result as JSON")
    p.set_defaults(func=cmd_jobs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Library errors (bad benchmark, corrupt checkpoint, unwritable
    checkpoint directory, flow mis-configuration, ...) exit non-zero
    with a one-line actionable message instead of a traceback.
    """
    from repro.resilience.supervisor import check_processes

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_processes(getattr(args, "processes", 0))
        return args.func(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
