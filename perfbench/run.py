#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore_aes1 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``ops_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs the timed region once
untraced and once traced, each in a forked copy of the set-up process,
and reports the per-layer ledger instead.  Every time is host-normalized
by :mod:`perfbench.calib`.  The last line of standard output is the
result object; the lines before it are a human-readable summary with
the raw wall-clock counterparts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.calib import Calibrator, calibration_slice  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    TIMED_BOUNDARIES,
    Tracer,
    ledger,
    write_spans,
)
from perfbench.workloads import WORKLOADS, Hooks, Workload  # noqa: E402

#: Set-up runs per measured run: this process plus fresh child processes.
SETUP_SAMPLES = 3

#: Environment switches that would take the program off its default
#: production path (observability, scalar kernels, fault injection).
_PROGRAM_ENV = ("REPRO_OBS", "REPRO_OBS_TRACE", "REPRO_KERNELS", "REPRO_FAULTS")

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def _use_checkout_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    for var in _PROGRAM_ENV:
        os.environ.pop(var, None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload: Workload, cal: Calibrator) -> Tuple[float, float]:
    """Imports, design build and construction, each bracketed by slices.

    Returns ``(normalized, raw)`` seconds.
    """
    calibration_slice()  # warm the slice's code and table; not measured
    bounds = [
        cal.sampled(phase)[1:]
        for phase in (workload.imports, workload.build, workload.construct)
    ]
    clock = cal.clock()
    return (
        sum(clock.norm_interval(t0, t1) for t0, t1 in bounds),
        sum(clock.raw_interval(t0, t1) for t0, t1 in bounds),
    )


def setup_in_children(args: argparse.Namespace, n: int) -> List[dict]:
    """``n`` more cold set-ups, each in a fresh interpreter, one at a time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=150
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({proc.returncode}): "
                + proc.stderr.strip()[-2000:]
            )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(
    workload: Workload,
    cal: Calibrator,
    tracer: Optional[Tracer] = None,
    check: bool = True,
) -> dict:
    """Run the timed region (and, if asked, the output checks)."""
    hooks = Hooks(tracer)
    if tracer is not None:
        tracer.recording = True
    try:
        outcome, t0, t1 = cal.sampled(lambda: workload.run(hooks))
    finally:
        if tracer is not None:
            tracer.recording = False
    peak = _peak_rss_mb()
    clock = cal.clock()
    norm_s = clock.norm_interval(t0, t1)
    raw_s = clock.raw_interval(t0, t1)
    check_failed = workload.check(outcome) if check else 0
    return {
        "ops": outcome.ops,
        "failed": outcome.failed + check_failed,
        "ops_per_s": outcome.ops / norm_s,
        "raw_ops_per_s": outcome.ops / raw_s,
        "region_s": norm_s,
        "raw_region_s": raw_s,
        "peak_rss_mb": peak,
        "cal_ms": cal.median_slice_ms(since=t0),
        "slices": sum(1 for _, e in cal.slices if e >= t0),
        "outcome": outcome,
        "clock": clock,
        "t0": t0,
        "t1": t1,
    }


def run_forked(fn: Callable[[], dict]) -> dict:
    """Run ``fn`` in a forked copy of this process; return its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(r)
        code = 0
        try:
            with os.fdopen(w, "w") as fh:
                fh.write(json.dumps(fn()))
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError("forked measurement failed")
    return json.loads(data)


def layer_metrics(
    tracer: Tracer, m: dict, untraced_ops_per_s: float, raw_setup_s: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer ledger of one traced region."""
    clock, ops, outcome = m["clock"], m["ops"], m["outcome"]
    spans = tracer.spans
    wall = clock.norm_interval(m["t0"], m["t1"])
    per_layer, unattributed = ledger(spans, clock.norm_interval, wall)
    calls = Counter(s.name for s in spans)
    out: Dict[str, Tuple[float, str]] = {}
    for name in TIMED_BOUNDARIES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (
            per_layer.get(name, 0.0) * 1000.0 / ops, "ms/op"
        )
    routes = calls["route.global_route"]
    warm = sum(1 for s in spans if s.name == "route.global_route" and s.warm)
    out["route.warm_ratio"] = (warm / routes if routes else 0.0, "ratio")
    runs = tracer.counts.get("flow.run", 0)
    out["flow.run.calls"] = (runs, "count")
    out["incremental.op_cache_hit_ratio"] = (
        1.0 - calls["core.place_op"] / runs if runs else 0.0, "ratio"
    )
    requests = outcome.counters.get("optimize.cache_requests", 0)
    hits = outcome.counters.get("optimize.cache_hits", 0)
    out["optimize.cache_requests"] = (requests, "count")
    out["optimize.memo_hit_ratio"] = (
        hits / requests if requests else 0.0, "ratio"
    )
    attempts = calls["redteam.attempt"]
    successes = outcome.counters.get("redteam.successes", 0)
    out["redteam.success_ratio"] = (
        successes / attempts if attempts else 0.0, "ratio"
    )
    out["unattributed_share"] = (unattributed / wall, "ratio")
    out["trace.overhead"] = (
        1.0 - m["ops_per_s"] / untraced_ops_per_s, "ratio"
    )
    out["host.cal_ms"] = (m["cal_ms"], "ms")
    out["raw.ops_per_s"] = (m["raw_ops_per_s"], "1/s")
    out["raw.setup_s"] = (raw_setup_s, "s")
    return out


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def run_untraced(args, workload: Workload, cal: Calibrator,
                 setup: Tuple[float, float]) -> str:
    samples = [setup] + [
        (s["setup_s"], s["raw_setup_s"])
        for s in setup_in_children(args, SETUP_SAMPLES - 1)
    ]
    setup_s = statistics.median(s for s, _ in samples)
    raw_setup_s = statistics.median(r for _, r in samples)
    m = measure(workload, cal)
    print(
        f"{args.workload} seed={args.seed}: {m['ops']} ops, "
        f"{m['failed']} failed; ops_per_s={m['ops_per_s']:.4f} "
        f"(raw {m['raw_ops_per_s']:.4f}); setup_s={setup_s:.4f} "
        f"(raw {raw_setup_s:.4f}; samples "
        + ", ".join(f"{s:.3f}" for s, _ in samples)
        + f"); region_s={m['region_s']:.3f} (raw {m['raw_region_s']:.3f}); "
        f"peak_rss_mb={m['peak_rss_mb']:.1f}; host.cal_ms={m['cal_ms']:.3f} "
        f"over {m['slices']} slices"
    )
    return _result_line(
        m["failed"] == 0, m["ops"], m["failed"],
        {
            "ops_per_s": (m["ops_per_s"], "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        },
    )


def run_traced(args, workload: Workload, cal: Calibrator,
               setup: Tuple[float, float]) -> str:
    """Untraced then traced region, each in a fork of the set-up state."""

    def untraced() -> dict:
        return {"ops_per_s": measure(workload, cal, check=False)["ops_per_s"]}

    def traced() -> dict:
        tracer = Tracer(time.perf_counter)
        tracer.install()
        try:
            m = measure(workload, cal, tracer, check=False)
        finally:
            tracer.uninstall()
        m["failed"] += workload.check(m["outcome"])
        write_spans(
            tracer.spans,
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
            m["clock"].norm,
        )
        return {
            "ops": m["ops"],
            "failed": m["failed"],
            "metrics": layer_metrics(tracer, m, base_ops_per_s, setup[1]),
            "spans": len(tracer.spans),
        }

    base_ops_per_s = run_forked(untraced)["ops_per_s"]
    t = run_forked(traced)
    metrics = t["metrics"]
    print(
        f"{args.workload} seed={args.seed} traced: {t['ops']} ops, "
        f"{t['spans']} spans; untraced ops_per_s={base_ops_per_s:.4f}; "
        f"unattributed_share={metrics['unattributed_share'][0]:.4f}; "
        f"trace.overhead={metrics['trace.overhead'][0]:.4f}"
    )
    return _result_line(t["failed"] == 0, t["ops"], t["failed"], metrics)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _use_checkout_program()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    cal = Calibrator()
    try:
        setup = timed_setup(workload, cal)
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "raw_setup_s": setup[1]}))
            return 0
        if args.trace:
            line = run_traced(args, workload, cal, setup)
        else:
            line = run_untraced(args, workload, cal, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
