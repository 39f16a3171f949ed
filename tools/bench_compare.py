#!/usr/bin/env python3
"""Diff two ``repro bench`` result files and gate on wall-clock regressions.

Usage::

    python tools/bench_compare.py BASELINE.json CURRENT.json \
        [--threshold 0.15] [--warn-only]

For every case present in both files the median wall-clock is compared;
a case regresses when ``current > baseline * (1 + threshold)``.  The exit
code is 1 when any case regresses (0 with ``--warn-only``, which still
prints the findings — used on fork PRs where the baseline artifact may
come from different hardware).

Cases present in only one file are reported but never fail the gate, so
adding or retiring a bench case does not require lock-step baselines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_THRESHOLD = 0.15


def load_bench(path: Path) -> dict:
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}")
    if not isinstance(record, dict) or "cases" not in record:
        raise SystemExit(f"bench_compare: {path} is not a bench result file")
    return record


def case_medians(record: dict) -> Dict[str, float]:
    medians: Dict[str, float] = {}
    for name, case in record.get("cases", {}).items():
        try:
            medians[name] = float(case["wall_s"]["median"])
        except (KeyError, TypeError, ValueError):
            continue
    return medians


def compare(
    baseline: dict, current: dict, threshold: float
) -> Tuple[List[str], List[str]]:
    """Return (report lines, regressed case names)."""
    base = case_medians(baseline)
    cur = case_medians(current)
    lines: List[str] = []
    regressed: List[str] = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            lines.append(f"  NEW      {name}: {cur[name]:.2f}s (no baseline)")
            continue
        if name not in cur:
            lines.append(f"  DROPPED  {name}: was {base[name]:.2f}s")
            continue
        b, c = base[name], cur[name]
        delta = (c - b) / b if b > 0 else 0.0
        status = "ok"
        if delta > threshold:
            status = "REGRESSED"
            regressed.append(name)
        elif delta < -threshold:
            status = "improved"
        lines.append(
            f"  {status:10s}{name}: {b:.2f}s -> {c:.2f}s ({delta:+.1%})"
        )
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_compare")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed median growth fraction (default 0.15)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args(argv)

    baseline = load_bench(args.baseline)
    current = load_bench(args.current)
    lines, regressed = compare(baseline, current, args.threshold)
    print(
        f"bench_compare: {args.baseline.name} (rev {baseline.get('rev')}) "
        f"vs {args.current.name} (rev {current.get('rev')}), "
        f"threshold {args.threshold:.0%}"
    )
    for line in lines:
        print(line)
    if regressed:
        print(
            f"bench_compare: {len(regressed)} case(s) regressed "
            f">{args.threshold:.0%}: {', '.join(regressed)}"
        )
        return 0 if args.warn_only else 1
    print("bench_compare: no median regression above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
