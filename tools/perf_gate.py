#!/usr/bin/env python3
"""Gate a change on perfbench: measure two checkouts and compare them.

Usage::

    python tools/perf_gate.py BASE_DIR HEAD_DIR --out DIR

BASE_DIR and HEAD_DIR are git checkouts of the base commit and of the
change; each runs its own ``perfbench/run.py``, which imports its own
``src/``.  Workloads, run length and bounds come from the base's
``BENCHMARK.json``, so a change cannot loosen its gate.  Per workload
the gate runs :data:`PAIRS` alternating ``--trace 0`` pairs, then one
``--trace 1`` run per side, writes ``BENCH_<rev>.json`` per side into
DIR, and exits 1 when a run crashes or a check of :func:`compare` fails.
Before a side's first run the gate byte-compiles that checkout's
``src`` (:func:`precompile`), so no run pays for compiling the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

#: Alternating untraced (base, head) pairs per workload.
PAIRS = 3

#: Workload seed of every run.
SEED = 1

#: A layer is gated when it holds at least this share of base traced wall.
LAYER_SHARE = 0.05

#: Largest relative ``self_ms`` slowdown a gated layer may show.  Five
#: ``--trace 1`` runs of identical code per workload (seed 1, 20 s, shared
#: 2-vCPU x86 host) spread the ``self_ms`` of every layer that held >= 5%
#: of wall in some run by at most (max / min - 1): explore_aes1 route 6.8%,
#: place_op 13.8%, sta_incr 12.8%; harden_suite route 3.4%, place_op 4.8%,
#: sta_incr 16.7%; attack_aes1 sta_full 5.1%, implant 14.1%, scan_full
#: 3.4%, trojan 4.5%.  The bound is 1.5x the largest, for one pair of runs.
LAYER_BOUND = 0.25


class Check(NamedTuple):
    """One compared quantity of one workload and whether it fails."""

    workload: str
    subject: str
    detail: str
    failed: bool

    def __str__(self) -> str:
        verdict = "FAIL" if self.failed else "ok  "
        return f"{verdict}  {self.workload}: {self.subject}: {self.detail}"


def _layer_checks(workload: str, base: dict, head: dict) -> Iterator[Check]:
    """Layers' self times sum to ``1 - unattributed_share`` of wall.

    A gated layer that base calls and head never calls fails: its self
    time reads 0.0 in head, which is no measurement of the work moved
    elsewhere.
    """
    layers = {k.removesuffix(".self_ms"): v for k, v in base.items()
              if k.endswith(".self_ms")}
    wall = sum(layers.values()) / (1.0 - base["unattributed_share"])
    for layer, ms in layers.items():
        if ms / wall < LAYER_SHARE:
            continue
        base_calls = base.get(layer + ".calls", 0)
        if base_calls > 0 and head.get(layer + ".calls", 0) == 0:
            yield Check(
                workload, f"layer {layer}",
                f"{base_calls} calls -> none in head ({ms / wall:.1%} of"
                f" base wall)",
                True,
            )
            continue
        head_ms = head.get(layer + ".self_ms", 0.0)
        yield Check(
            workload, f"layer {layer}",
            f"self {ms:.1f} -> {head_ms:.1f} ms/op ({head_ms / ms - 1:+.1%},"
            f" bound +{LAYER_BOUND:.0%}; {ms / wall:.1%} of base wall)",
            head_ms > ms * (1.0 + LAYER_BOUND),
        )


def compare(base: dict, head: dict, benchmark: dict) -> List[Check]:
    """Every check of head against base; the gate fails if any failed.

    Per workload: each end-to-end median against its ``BENCHMARK.json``
    bound, the share of failed operations against base's, and each
    layer holding at least LAYER_SHARE of base traced wall against
    LAYER_BOUND.  A workload missing from either record fails.
    """
    checks: List[Check] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        b = base["workloads"].get(workload)
        h = head["workloads"].get(workload)
        if b is None or h is None:
            side = "base" if b is None else "head"
            checks.append(Check(workload, "record", f"missing from {side}",
                                True))
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bv, hv = b["medians"][name], h["medians"][name]
            sign = -1.0 if metric["better"] == "higher" else 1.0
            checks.append(Check(
                workload, name,
                f"median {bv:.4g} -> {hv:.4g} {metric['unit']} "
                f"({hv / bv - 1:+.1%}, bound {sign * bound:+.0%})",
                sign * (hv / bv - 1) > bound,
            ))
        checks.append(Check(
            workload, "failed operations",
            f"{b['failed']}/{b['attempted']} -> "
            f"{h['failed']}/{h['attempted']}",
            h["failed"] / h["attempted"] > b["failed"] / b["attempted"],
        ))
        checks.extend(_layer_checks(workload, b["ledger"], h["ledger"]))
    return checks


def workload_record(runs: List[dict], traced: dict,
                    metrics: List[str]) -> dict:
    """One side's record of one workload: its runs and what they sum to."""
    return {
        "runs": runs,
        "medians": {m: statistics.median(r[m] for r in runs)
                    for m in metrics},
        "attempted": sum(r["attempted"] for r in runs + [traced]),
        "failed": sum(r["failed"] for r in runs + [traced]),
        "ledger": traced,
        "host.cal_ms": traced["host.cal_ms"],
    }


def git_rev(checkout: Path) -> str:
    """Short commit id, with ``-dirty`` when tracked files differ."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    rev = git("rev-parse", "--short=7", "HEAD")
    return rev + "-dirty" if git("status", "--porcelain", "-uno") else rev


def precompile(checkout: Path, command: List[str]) -> None:
    """Byte-compile ``checkout/src`` with the benchmark's interpreter.

    Bytecode writing is forced on: with ``PYTHONDONTWRITEBYTECODE`` set,
    a checkout without cached bytecode (a fresh clone) or with stale
    bytecode (modules edited since) recompiles those modules in every
    cold set-up, which ``setup_s`` then counts against that side only.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([command[0], "-m", "compileall", "-q", "src"],
                   cwd=checkout, env=env, capture_output=True, check=True)


def run_bench(checkout: Path, command: List[str], workload: str,
              seconds: float, trace: int, label: str) -> dict:
    """One perfbench run; its result line flattened to ``{name: value}``."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perf_gate: {label}: {workload} --trace {trace} "
                         f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    for line in lines[:-1]:
        print(f"[{label}] {line}", flush=True)
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def measure(checkouts: Dict[str, Path], revs: Dict[str, str],
            benchmark: dict) -> Dict[str, dict]:
    """Run every workload on both sides; one record per side."""
    names = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]

    def run(side: str, workload: str, trace: int) -> dict:
        return run_bench(checkouts[side], benchmark["command"], workload,
                         benchmark["run_seconds"], trace,
                         f"{side} {revs[side]}")

    runs: Dict[str, Dict[str, List[dict]]] = {s: {w: [] for w in names}
                                              for s in checkouts}
    for checkout in checkouts.values():
        precompile(checkout, benchmark["command"])
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in names:
            for side in order:
                runs[side][workload].append(run(side, workload, 0))
    traced = {s: {w: run(s, w, 1) for w in names} for s in checkouts}
    return {
        side: {
            "rev": revs[side],
            "seed": SEED,
            "run_seconds": benchmark["run_seconds"],
            "workloads": {
                w: workload_record(runs[side][w], traced[side][w], metrics)
                for w in names
            },
        }
        for side in checkouts
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="base commit's checkout")
    parser.add_argument("head", type=Path, help="the change's checkout")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the BENCH_<rev>.json records")
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    try:
        benchmark = json.loads(
            (checkouts["base"] / "BENCHMARK.json").read_text())
        revs = {side: git_rev(path) for side, path in checkouts.items()}
        if revs["head"] == revs["base"]:
            revs["head"] += "-head"
        args.out.mkdir(parents=True, exist_ok=True)
        records = measure(checkouts, revs, benchmark)
    except (OSError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 1
    for record in records.values():
        path = args.out / f"BENCH_{record['rev']}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    checks = compare(records["base"], records["head"], benchmark)
    failed = [c for c in checks if c.failed]
    print(*checks, sep="\n")
    print(f"perf_gate: {revs['head']} vs {revs['base']}: "
          f"{'FAIL' if failed else 'PASS'} "
          f"({len(failed)} of {len(checks)} checks failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
