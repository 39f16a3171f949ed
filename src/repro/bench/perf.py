"""Pinned performance-benchmark suite behind ``repro bench``.

The suite measures the evaluator hot paths end to end on fixed workloads
so wall-clock regressions are caught in CI (``tools/bench_compare.py``
diffs two result files and fails on >15% median regression):

* ``harden_present`` / ``harden_seed`` — one cold (non-incremental)
  GDSII-Guard flow run at the default configuration.
* ``explore_present_full`` — the pinned NSGA-II exploration (PRESENT,
  population 10, 4 generations, seed 9) with incremental evaluation off:
  every individual pays the full ECO-place → route → STA → security
  pipeline.
* ``explore_present_incremental`` — the same exploration with the
  incremental engine on.

Every measurement runs in a child process (clean peak-RSS high-water
mark, no warm caches leaking between cases) with ``PYTHONPATH`` pinned
to the repository ``src`` tree.  Results land in ``BENCH_<rev>.json``:
per case the median/p95 wall-clock over the repeats, peak RSS, and
evaluations per second (counted by the flow itself via
:mod:`repro.obs`).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError

#: Result-file schema version (bump on breaking layout changes).
#: 2: no per-case ``kernels`` field and no ``derived`` map.
SCHEMA = 2

#: The pinned exploration workload (overridable only for self-tests).
PERF_DESIGN = "PRESENT"
PERF_POP = int(os.environ.get("REPRO_PERF_POP", "10"))
PERF_GENS = int(os.environ.get("REPRO_PERF_GENS", "4"))
PERF_SEED = 9

#: Median regression threshold shared with ``tools/bench_compare.py``.
DEFAULT_THRESHOLD = 0.15


def _src_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# case bodies (run inside the child process)
# ---------------------------------------------------------------------- #


def _run_harden(design_name: str) -> int:
    from repro.bench.designs import build_design
    from repro.core.flow import GDSIIGuard
    from repro.core.params import FlowConfig

    d = build_design(design_name)
    guard = GDSIIGuard(
        d.layout,
        d.constraints,
        d.assets,
        baseline_routing=d.routing,
        incremental=False,
    )
    # Same configuration `repro harden <design>` runs by default.
    guard.run(
        FlowConfig(
            op_select="CS",
            lda_n=16,
            lda_n_iter=2,
            rws_scales=tuple([1.0] * d.technology.num_layers),
        )
    )
    return 1


def _run_explore(incremental: bool) -> int:
    from repro.bench.designs import build_design
    from repro.core.flow import GDSIIGuard
    from repro.optimize.explorer import ParetoExplorer
    from repro.optimize.nsga2 import NSGA2Config

    d = build_design(PERF_DESIGN)
    guard = GDSIIGuard(
        d.layout,
        d.constraints,
        d.assets,
        baseline_routing=d.routing,
        incremental=incremental,
    )
    explorer = ParetoExplorer(
        guard,
        config=NSGA2Config(
            population_size=PERF_POP,
            generations=PERF_GENS,
            seed=PERF_SEED,
        ),
    )
    return explorer.explore().evaluations


#: case name → zero-argument body returning the number of evaluations.
CASES: Dict[str, Callable[[], int]] = {
    "harden_present": lambda: _run_harden("PRESENT"),
    "harden_seed": lambda: _run_harden("SEED"),
    "explore_present_full": lambda: _run_explore(incremental=False),
    "explore_present_incremental": lambda: _run_explore(incremental=True),
}


def _peak_rss_kb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_case_inline(case: str) -> Dict[str, float]:
    """Execute one case in this process and return its raw measurements."""
    try:
        body = CASES[case]
    except KeyError:
        raise ReproError(
            f"unknown bench case {case!r}; valid: {', '.join(sorted(CASES))}"
        ) from None
    from repro import obs

    obs.enable()
    try:
        t0 = time.perf_counter()
        evaluations = body()
        wall = time.perf_counter() - t0
    finally:
        obs.disable()
    return {
        "wall_s": wall,
        "peak_rss_kb": _peak_rss_kb(),
        "evaluations": float(evaluations),
    }


# ---------------------------------------------------------------------- #
# parent-side orchestration
# ---------------------------------------------------------------------- #


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(_src_dir())
    prior = env.get("PYTHONPATH", "")
    # Pin the repository src tree first so the child resolves the same
    # code under measurement regardless of the caller's install state.
    env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
    return env


def _run_child(case: str) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.perf", "--child", case],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ReproError(
            f"bench case {case!r} failed:\n{proc.stderr[-2000:]}"
        )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ReproError(f"bench case {case!r} emitted no measurement")


def _median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def _p95(values: Sequence[float]) -> float:
    s = sorted(values)
    return s[min(int(round(0.95 * (len(s) - 1))), len(s) - 1)]


def _aggregate(runs: List[Dict[str, float]]) -> Dict[str, object]:
    walls = [r["wall_s"] for r in runs]
    med = _median(walls)
    evals = runs[0]["evaluations"]
    return {
        "repeats": len(runs),
        "wall_s": {
            "median": med,
            "p95": _p95(walls),
            "runs": [round(w, 4) for w in walls],
        },
        "peak_rss_kb": max(r["peak_rss_kb"] for r in runs),
        "evaluations": int(evals),
        "evals_per_sec": (evals / med) if med > 0 else 0.0,
    }


@dataclass
class SuiteOptions:
    """Knobs for one ``repro bench`` invocation."""

    quick: bool = False
    repeat: Optional[int] = None
    cases: Optional[List[str]] = None

    def effective_repeat(self) -> int:
        if self.repeat is not None:
            if self.repeat < 1:
                raise ReproError("--repeat must be >= 1")
            return self.repeat
        return 1 if self.quick else 3

    def effective_cases(self) -> List[str]:
        if not self.cases:
            return list(CASES)
        for c in self.cases:
            if c not in CASES:
                raise ReproError(
                    f"unknown bench case {c!r}; "
                    f"valid: {', '.join(sorted(CASES))}"
                )
        return list(self.cases)


def run_suite(
    options: SuiteOptions,
    rev: str = "unknown",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the pinned suite and return the ``BENCH_<rev>.json`` record."""
    say = progress or (lambda msg: None)
    repeat = options.effective_repeat()
    names = options.effective_cases()
    cases: Dict[str, object] = {}
    for case in names:
        runs = []
        for i in range(repeat):
            say(f"{case} {i + 1}/{repeat} ...")
            runs.append(_run_child(case))
        cases[case] = _aggregate(runs)
    return {
        "schema": SCHEMA,
        "rev": rev,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "mode": "quick" if options.quick else "full",
        "workload": {
            "design": PERF_DESIGN,
            "population": PERF_POP,
            "generations": PERF_GENS,
            "seed": PERF_SEED,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "cases": cases,
    }


def git_rev(repo_dir: Optional[Path] = None) -> str:
    """Short git revision of the repo (``unknown`` outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir or Path.cwd(),
            capture_output=True,
            text=True,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def format_suite_table(record: Dict[str, object]) -> str:
    """Human-readable summary of a bench record."""
    from repro.reporting.tables import format_table

    rows = []
    for name, case in record["cases"].items():  # type: ignore[union-attr]
        wall = case["wall_s"]
        rows.append(
            [
                name,
                f"{wall['median']:.2f}",
                f"{wall['p95']:.2f}",
                f"{case['peak_rss_kb'] / 1024:.0f}",
                f"{case['evals_per_sec']:.2f}",
            ]
        )
    title = f"repro bench — rev {record['rev']} ({record['mode']})"
    return format_table(
        ["case", "median s", "p95 s", "peak RSS MB", "evals/s"],
        rows,
        title=title,
    )


def _child_main(case: str) -> int:
    # Child half of the measurement protocol: one JSON line on stdout,
    # parsed by _run_child in the parent (not user-facing output).
    sys.stdout.write(json.dumps(run_case_inline(case)) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.perf")
    parser.add_argument("--child", metavar="CASE", default=None)
    args = parser.parse_args(argv)
    if args.child is None:
        parser.error("--child CASE required (use `repro bench` as the UI)")
    return _child_main(args.child)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
