#!/usr/bin/env python3
"""Codebase determinism lint for the repro sources (stdlib-only).

This is the *code* half of the project's static-verification story: the
design-database analyzer lives in ``repro.lint``; this tool walks the
repository's own Python sources with :mod:`ast` and enforces the rules
that keep the flow reproducible:

========  ==============================================================
DET101    Nondeterministic RNG: ``import random``, ``np.random.seed``,
          seedless ``np.random.default_rng()``, or the legacy global
          ``np.random.rand/randint/shuffle/choice/permutation/random``.
          All randomness must flow through a seeded ``default_rng``.
DET103    RNG construction inside ``src/repro/kernels/``.  Kernels must
          not own randomness: any reference to ``np.random`` /
          ``numpy.random`` (even a seeded ``default_rng``) is banned
          there — a kernel needing randomness takes a
          ``numpy.random.Generator`` argument from its caller, so a
          kernel and its scalar test oracle consume the *same* stream
          and stay bitwise comparable.
DET102    Wall-clock reads (``time.time``/``time_ns``,
          ``datetime.now/utcnow/today``, ``date.today``) in core
          library code.  Durations (``perf_counter``/``monotonic``)
          are fine; absolute timestamps make outputs run-dependent.
          ``cli.py`` and ``obs/`` are exempt (reporting surfaces).
DET104    Wall-clock reads in the replayable daemon/campaign trees
          (``service/``, ``redteam/``, ``analysis/``).  Same calls as
          DET102 plus the formatting family (``localtime``/``gmtime``/
          ``ctime``/``strftime``, ``fromtimestamp``): a timestamp that
          leaks into a job journal or campaign artifact breaks the
          bitwise resume/replay contracts, so clocks must be injected
          at the obs/CLI boundary.  Takes precedence over DET102
          inside those trees.
DET201    Blanket exception handler: bare ``except:`` or
          ``except Exception/BaseException`` whose body never
          re-raises.  Swallowing unknown errors hides bugs and eats
          ``KeyboardInterrupt``-adjacent state corruption.
DET202    ``print()`` outside ``cli.py`` and ``reporting/``.  Library
          imports and API calls must be silent; user-facing output
          belongs to the CLI and the reporting layer.
DET301    Unsorted set iteration in a serialization module.  Set order
          varies across processes (string hash randomization), so any
          ``for``/comprehension over a set expression in a module that
          writes artifacts must go through ``sorted()``.
========  ==============================================================

Opt out per line with ``# repro-lint: disable=DET201`` (comma-separate
multiple rule ids).  Run standalone (``python tools/repro_lint.py``),
or via the test suite (``tests/static/``), or in the CI ``static`` job.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Module prefixes (posix relpaths) the determinism rules apply to.
CORE_PREFIX = "src/repro/"

#: Modules that must not construct RNGs at all (DET103): kernels take a
#: ``numpy.random.Generator`` argument instead of owning randomness.
KERNELS_PREFIX = "src/repro/kernels/"

#: Files allowed to read wall-clock time (reporting surfaces).
WALLCLOCK_EXEMPT = ("src/repro/cli.py", "src/repro/obs/")

#: Trees whose journals / artifacts must replay bitwise: wall-clock
#: reads there are DET104 (stricter call set) instead of DET102.
REPLAYABLE_PREFIXES = (
    "src/repro/service/",
    "src/repro/redteam/",
    "src/repro/analysis/",
)

#: Wall-clock calls banned in core library code (DET102).
WALLCLOCK_CALLS = (
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
)

#: Additional wall-clock family banned in the replayable trees
#: (DET104): formatting and epoch-conversion helpers that smuggle the
#: current time into strings and artifacts.
WALLCLOCK_EXTRA = (
    "time.localtime", "time.gmtime", "time.ctime", "time.strftime",
    "datetime.fromtimestamp", "datetime.datetime.fromtimestamp",
    "datetime.utcfromtimestamp",
    "datetime.datetime.utcfromtimestamp",
)

#: Files allowed to call ``print`` (user-facing output layers).
PRINT_ALLOWED = ("src/repro/cli.py", "src/repro/reporting/")

#: Serialization/checkpoint modules where set-iteration order leaks
#: into on-disk artifacts.
SERIALIZATION_MODULES = (
    "src/repro/layout/def_io.py",
    "src/repro/layout/gdsii.py",
    "src/repro/netlist/verilog.py",
    "src/repro/resilience/checkpoint.py",
    "src/repro/obs/trace.py",
)

#: Attributes known (project-wide) to be sets even though the AST can't
#: prove it — ``Layout.fixed`` is the load-bearing one.
KNOWN_SET_ATTRS = frozenset({"fixed"})

#: Legacy ``np.random.*`` functions that use the global (unseeded) state.
LEGACY_NP_RANDOM = frozenset(
    {"rand", "randn", "randint", "random", "shuffle", "choice",
     "permutation", "uniform", "normal", "seed"}
)

PRAGMA = "repro-lint:"


class Finding(NamedTuple):
    """One lint finding: where, which rule, and why."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _pragmas(code: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids disabled on that line via comments."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(iter(code.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT or PRAGMA not in tok.string:
                continue
            directive = tok.string.split(PRAGMA, 1)[1].strip()
            if directive.startswith("disable="):
                # Rule list ends at the first whitespace; anything after
                # is free-form justification text.
                rule_list = directive[len("disable="):].split(None, 1)[0]
                rules = {r.strip() for r in rule_list.split(",") if r.strip()}
                out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return out


def _is_set_expr(node: ast.expr) -> bool:
    """Conservatively: does this expression evaluate to a set?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Attribute) and node.attr in KNOWN_SET_ATTRS:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for an attribute chain, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.findings: List[Finding] = []
        self.in_core = relpath.startswith(CORE_PREFIX)
        self.in_kernels = relpath.startswith(KERNELS_PREFIX)
        self.wallclock_ok = any(
            relpath == p or relpath.startswith(p) for p in WALLCLOCK_EXEMPT
        )
        self.in_replayable = relpath.startswith(REPLAYABLE_PREFIXES)
        self.print_ok = any(
            relpath == p or relpath.startswith(p) for p in PRINT_ALLOWED
        )
        self.serialization = relpath in SERIALIZATION_MODULES

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.relpath, getattr(node, "lineno", 0), message)
        )

    # -- DET101 ------------------------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        if self.in_core:
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    self._emit(
                        "DET101", node,
                        "stdlib 'random' is banned; use a seeded "
                        "np.random.default_rng(seed)",
                    )
        if self.in_kernels:
            for alias in node.names:
                if alias.name.startswith("numpy.random"):
                    self._emit(
                        "DET103", node,
                        "kernels must not own randomness; take a "
                        "numpy.random.Generator argument from the caller",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.in_core and node.module == "random":
            self._emit(
                "DET101", node,
                "stdlib 'random' is banned; use a seeded "
                "np.random.default_rng(seed)",
            )
        if self.in_kernels and node.module:
            from_numpy_random = node.module.startswith("numpy.random")
            from_numpy = node.module == "numpy" and any(
                alias.name == "random" for alias in node.names
            )
            if from_numpy_random or from_numpy:
                self._emit(
                    "DET103", node,
                    "kernels must not own randomness; take a "
                    "numpy.random.Generator argument from the caller",
                )
        self.generic_visit(node)

    # -- DET103 -------------------------------------------------------- #

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Any np.random / numpy.random reference in a kernel module —
        # flagged at the innermost `<np>.random` attribute node so each
        # use yields exactly one finding regardless of chain depth.
        if self.in_kernels and _dotted(node) in ("np.random", "numpy.random"):
            self._emit(
                "DET103", node,
                "kernels must not own randomness; take a "
                "numpy.random.Generator argument from the caller",
            )
        self.generic_visit(node)

    # -- calls: DET101 / DET102 / DET202 ------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if self.in_core:
            # Kernels fall under the stricter DET103 (any np.random
            # reference, flagged in visit_Attribute), so the DET101
            # call checks would only duplicate those findings.
            if not self.in_kernels:
                self._check_rng_call(node, dotted)
            if not self.wallclock_ok:
                if self.in_replayable and dotted in (
                    WALLCLOCK_CALLS + WALLCLOCK_EXTRA
                ):
                    self._emit(
                        "DET104", node,
                        f"wall-clock read '{dotted}' in replayable "
                        "daemon/campaign code; a timestamp leaking into "
                        "a journal or campaign artifact breaks bitwise "
                        "resume/replay — inject clocks at the obs/CLI "
                        "boundary",
                    )
                elif dotted in WALLCLOCK_CALLS:
                    self._emit(
                        "DET102", node,
                        f"wall-clock read '{dotted}' makes output "
                        "run-dependent; measure durations with "
                        "perf_counter or stamp in the CLI/obs layer",
                    )
            if (
                not self.print_ok
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                self._emit(
                    "DET202", node,
                    "'print' in library code; route output through the "
                    "CLI or reporting layer",
                )
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, dotted: str) -> None:
        tail = dotted.rsplit(".", 1)[-1] if "." in dotted else ""
        if dotted.endswith(".random.default_rng") or dotted == "default_rng":
            if not node.args and not node.keywords:
                self._emit(
                    "DET101", node,
                    "default_rng() without a seed is entropy-seeded; "
                    "pass an explicit seed",
                )
        elif ".random." in dotted + "." and tail in LEGACY_NP_RANDOM:
            # np.random.<fn> / numpy.random.<fn> global-state API.
            head = dotted.rsplit(".", 2)[0]
            if head in ("np", "numpy"):
                self._emit(
                    "DET101", node,
                    f"legacy global-state '{dotted}' is banned; use a "
                    "seeded Generator",
                )

    # -- DET201 -------------------------------------------------------- #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.in_core and self._is_blanket(node.type):
            if not self._reraises(node.body):
                what = (
                    "bare 'except:'" if node.type is None
                    else f"'except {ast.unparse(node.type)}'"
                )
                self._emit(
                    "DET201", node,
                    f"{what} without re-raise swallows unknown errors; "
                    "catch specific types or re-raise",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_blanket(exc: ast.expr) -> bool:
        if exc is None:
            return True
        names = exc.elts if isinstance(exc, ast.Tuple) else [exc]
        for n in names:
            if isinstance(n, ast.Name) and n.id in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _reraises(body: Sequence[ast.stmt]) -> bool:
        for stmt in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if isinstance(stmt, ast.Raise) and stmt.exc is None:
                return True
        return False

    # -- DET301 -------------------------------------------------------- #

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iter(self, gens: Sequence[ast.comprehension]) -> None:
        for gen in gens:
            self._check_set_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iter(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_iter(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iter(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iter(node.generators)
        self.generic_visit(node)

    def _check_set_iter(self, iter_node: ast.expr) -> None:
        if self.serialization and _is_set_expr(iter_node):
            self._emit(
                "DET301", iter_node,
                "iterating a set in a serialization module; wrap in "
                "sorted() so artifact order is stable",
            )


def check_source(code: str, relpath: str) -> List[Finding]:
    """Lint one source string as if it lived at ``relpath``.

    ``relpath`` is posix-style, relative to the repo root (e.g.
    ``src/repro/layout/def_io.py``) — it determines which rules apply.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        return [Finding("DET000", relpath, exc.lineno or 0,
                        f"syntax error: {exc.msg}")]
    checker = _Checker(relpath)
    checker.visit(tree)
    disabled = _pragmas(code)
    return [
        f for f in checker.findings
        if f.rule not in disabled.get(f.line, ())
    ]


def check_tree(root: Path = REPO_ROOT) -> List[Finding]:
    """Lint every Python file under ``src/repro``; findings sorted."""
    findings: List[Finding] = []
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        findings.extend(check_source(path.read_text(), relpath))
    return sorted(findings)


def _relpath_for(path: Path) -> str:
    """Repo-relative posix path used for rule scoping.

    Out-of-tree files are anchored at their last ``src`` component so
    the path-scoped rules still apply when linting a staging copy.
    """
    try:
        return path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        parts = path.parts
        if "src" in parts:
            last = len(parts) - 1 - parts[::-1].index("src")
            return Path(*parts[last:]).as_posix()
        return path.name


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro determinism lint (DET rules)"
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or tree roots to check (default: all of src/repro)",
    )
    args = parser.parse_args(argv)
    if args.paths:
        findings = []
        for p in args.paths:
            path = Path(p).resolve()
            if path.is_dir():
                findings.extend(check_tree(path))
            else:
                findings.extend(
                    check_source(path.read_text(), _relpath_for(path))
                )
        findings.sort()
    else:
        findings = check_tree()
    for f in findings:
        print(f.format())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
