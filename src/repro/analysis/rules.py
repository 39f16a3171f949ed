"""The DET / EFF / ASY / FRK rule catalogue and their checkers.

=======  =============================================================
DET101   Nondeterministic RNG: ``import random``, ``np.random.seed``,
         seedless ``np.random.default_rng()``, or the legacy global
         ``np.random.rand/randint/shuffle/choice/permutation/random``.
         All randomness must flow through a seeded ``default_rng``.
DET102   Wall-clock reads (``time.time``/``time_ns``,
         ``datetime.now/utcnow/today``, ``date.today``) in core library
         code.  Durations (``perf_counter``/``monotonic``) are fine;
         absolute timestamps make outputs run-dependent.  ``cli.py``
         and ``obs/`` are exempt (reporting surfaces).
DET103   Any ``numpy.random`` use inside ``src/repro/kernels/``, even a
         seeded ``default_rng``: a kernel needing randomness takes a
         ``numpy.random.Generator`` argument, so a kernel and its
         scalar test oracle consume the *same* stream.  EFF103 does not
         cover this — it accepts a seeded local generator and never
         sees a module-level ``from numpy import random``.
DET104   Wall-clock reads in the replayable daemon/campaign trees
         (``service/``, ``redteam/``, ``analysis/``): the DET102 calls
         plus ``localtime``/``gmtime``/``ctime``/``strftime`` and
         ``fromtimestamp``.  A timestamp leaking into a job journal or
         campaign artifact breaks bitwise resume/replay.  Takes
         precedence over DET102 inside those trees.
DET201   Bare ``except:`` or ``except Exception/BaseException`` whose
         body never re-raises.
DET202   ``print()`` outside ``cli.py`` and ``reporting/``: library
         imports and API calls must be silent.
DET301   ``for``/comprehension over a set expression in a serialization
         module: set order varies across processes (string hash
         randomization), so artifacts must iterate ``sorted()``.
EFF101   A declared-pure function mutates one of its arguments.
EFF102   A declared-pure function has a non-argument impurity — module
         state mutation, file/socket I/O, or process spawn — either
         directly or through a transitive callee.
EFF103   A declared-pure function draws from randomness that was not
         passed in (seedless ``default_rng()``, legacy ``np.random``
         globals, stdlib ``random``, or a module-level RNG).
ASY101   A blocking call — ``time.sleep``, ``subprocess``, sync
         file/socket I/O, ``Queue.get`` without timeout — is reachable
         from an ``async def`` in ``repro.service`` without hopping
         off the event loop, or sits in a callback scheduled onto the
         loop (``call_soon*``).  Findings anchor at the *first* sync
         edge out of the async function, so one pragma covers one
         design decision.
ASY102   An internal coroutine is called as a bare statement without
         ``await``: the awaitable is created and dropped.
FRK101   A worker-pool target's closure captures a lock, open file, or
         socket from the enclosing scope — shared with the parent
         across ``fork()``.  ``args=`` is the sanctioned channel.
FRK102   Code reachable inside a forked worker mutates a module-level
         global or draws from a module-level RNG (warning: fork-shared
         state diverges silently between parent and children).
=======  =============================================================

The DET rules are line-local and scoped by the module's repo relpath;
call and attribute names are resolved through the module's imports
(:meth:`Project.canonical`), so ``from time import time as now; now()``
is ``time.time``.  Only module-level imports are modelled: a
function-local ``import time`` still matches by its literal name, a
function-local *aliased* import does not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from repro.analysis.callgraph import FunctionFacts
from repro.analysis.contracts import ContractRegistry
from repro.analysis.effects import EffectMap, effect_path, in_ambient
from repro.analysis.findings import Finding, Severity
from repro.analysis.model import ModuleInfo, Project, dotted_chain

__all__ = ["RULES", "RuleSpec", "check_all"]

#: Prefix of the modules whose ``async def`` functions are event-loop
#: roots for the ASY rules.
SERVICE_PREFIX = "repro.service"

#: Constructor-ish methods exempt from purity contracts (initializing
#: ``self`` is their job).
CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})


class RuleSpec(NamedTuple):
    """One rule: id, severity, summary, fix hint."""

    rule_id: str
    severity: Severity
    summary: str
    hint: str


RULES: Dict[str, RuleSpec] = {
    spec.rule_id: spec
    for spec in [
        RuleSpec(
            "DET101", Severity.ERROR,
            "nondeterministic RNG (stdlib random, np.random globals, "
            "seedless default_rng)",
            "use a seeded np.random.default_rng(seed)",
        ),
        RuleSpec(
            "DET102", Severity.ERROR,
            "wall-clock read in core library code",
            "measure durations with perf_counter or stamp in the "
            "CLI/obs layer",
        ),
        RuleSpec(
            "DET103", Severity.ERROR,
            "kernels must not own randomness",
            "take a numpy.random.Generator argument from the caller",
        ),
        RuleSpec(
            "DET104", Severity.ERROR,
            "wall-clock read in replayable daemon/campaign code",
            "a timestamp leaking into a journal or campaign artifact "
            "breaks bitwise resume/replay — inject clocks at the "
            "obs/CLI boundary",
        ),
        RuleSpec(
            "DET201", Severity.ERROR,
            "blanket exception handler without re-raise",
            "catch specific types or re-raise",
        ),
        RuleSpec(
            "DET202", Severity.ERROR,
            "'print' in library code",
            "route output through the CLI or reporting layer",
        ),
        RuleSpec(
            "DET301", Severity.ERROR,
            "iterating a set in a serialization module",
            "wrap in sorted() so artifact order is stable",
        ),
        RuleSpec(
            "EFF101", Severity.ERROR,
            "declared-pure function mutates an argument",
            "copy the input before editing it, or register the "
            "mutation in the contract if it is the documented API",
        ),
        RuleSpec(
            "EFF102", Severity.ERROR,
            "declared-pure function reaches an impure operation",
            "hoist the side effect to the caller, or drop the callee "
            "from the pure path",
        ),
        RuleSpec(
            "EFF103", Severity.ERROR,
            "declared-pure function draws from an RNG not passed in",
            "take a seeded numpy.random.Generator parameter from the "
            "caller instead of owning randomness",
        ),
        RuleSpec(
            "ASY101", Severity.ERROR,
            "blocking call reachable from the event loop",
            "wrap the call in asyncio.to_thread(...), or pragma the "
            "edge if blocking the loop is the documented contract",
        ),
        RuleSpec(
            "ASY102", Severity.ERROR,
            "coroutine called without await",
            "await the call (or create_task it); a bare call only "
            "builds the awaitable and drops it",
        ),
        RuleSpec(
            "FRK101", Severity.ERROR,
            "fork-unsafe object captured in a worker target's closure",
            "pass the object through args=/initargs= (pickled or "
            "fork-inherited explicitly) instead of the closure",
        ),
        RuleSpec(
            "FRK102", Severity.WARNING,
            "worker-reachable code mutates module-level state",
            "move the state into arguments/returns, or pragma it if "
            "the slot is a deliberate fork-shared design",
        ),
    ]
}


@dataclass
class AnalysisInput:
    """Everything the checkers consume."""

    project: Project
    facts: Dict[str, FunctionFacts]
    effects: Dict[str, EffectMap]
    registry: ContractRegistry


def check_all(
    data: AnalysisInput, rule_ids: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    if any(r.startswith("DET") for r in rule_ids):
        findings.extend(_check_determinism(data, rule_ids))
    if any(r.startswith("EFF") for r in rule_ids):
        findings.extend(_check_purity(data, rule_ids))
    if any(r.startswith("ASY") for r in rule_ids):
        findings.extend(_check_async(data, rule_ids))
    if any(r.startswith("FRK") for r in rule_ids):
        findings.extend(_check_fork(data, rule_ids))
    return sorted(findings, key=Finding.sort_key)


def _emit(
    rule_id: str,
    info_relpath: str,
    line: int,
    qualname: str,
    detail: str,
    message: str,
) -> Finding:
    spec = RULES[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=spec.severity,
        message=message,
        relpath=info_relpath,
        line=line,
        qualname=qualname,
        detail=detail,
        hint=spec.hint,
    )


# --------------------------------------------------------------------- #
# DET: determinism
# --------------------------------------------------------------------- #

#: Relpath prefix the determinism rules apply to.
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

#: Wall-clock calls banned in core library code (DET102).  The short
#: forms match where the import is function-local (literal names).
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

#: ``numpy.random`` as resolved through an import, or literally.
NP_RANDOM = ("numpy.random", "np.random")


def _is_set_expr(node: ast.expr) -> bool:
    """Conservatively: does this expression evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
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


def _is_blanket(exc: Optional[ast.expr]) -> bool:
    if exc is None:
        return True
    names = exc.elts if isinstance(exc, ast.Tuple) else [exc]
    return any(
        isinstance(n, ast.Name) and n.id in ("Exception", "BaseException")
        for n in names
    )


def _reraises(body: Sequence[ast.stmt]) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for stmt in body
        for node in ast.walk(stmt)
    )


class _DeterminismVisitor(ast.NodeVisitor):
    """Collects one module's DET findings; its relpath sets the scope."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        def_quals: Dict[int, str],
        rule_ids: List[str],
    ) -> None:
        self.project = project
        self.module = module
        self.def_quals = def_quals
        self.rule_ids = rule_ids
        self.scope = [module.name]
        self.findings: List[Finding] = []
        relpath = module.relpath
        self.in_kernels = relpath.startswith(KERNELS_PREFIX)
        self.wallclock_ok = relpath.startswith(WALLCLOCK_EXEMPT)
        self.in_replayable = relpath.startswith(REPLAYABLE_PREFIXES)
        self.print_ok = relpath.startswith(PRINT_ALLOWED)
        self.serialization = relpath in SERIALIZATION_MODULES

    def _flag(
        self,
        rule_id: str,
        node: ast.AST,
        detail: str,
        what: Optional[str] = None,
    ) -> None:
        """Emit ``rule_id`` at ``node``; the message is ``what`` (default:
        the rule summary) followed by the rule's fix hint."""
        if rule_id in self.rule_ids:
            spec = RULES[rule_id]
            self.findings.append(_emit(
                rule_id, self.module.relpath, getattr(node, "lineno", 0),
                self.scope[-1], detail,
                f"{what or spec.summary}; {spec.hint}",
            ))

    def _canonical(self, node: ast.expr) -> str:
        chain = dotted_chain(node)
        return self.project.canonical(self.module, chain) if chain else ""

    def _enter_def(self, node: ast.AST) -> None:
        self.scope.append(self.def_quals.get(id(node), self.scope[-1]))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_def(node)

    # -- DET101 / DET103: imports ---------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._flag("DET101", node, f"import:{alias.name}",
                           "stdlib 'random' is banned")
            if self.in_kernels and alias.name.startswith("numpy.random"):
                self._flag("DET103", node, f"import:{alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag("DET101", node, "import:random",
                       "stdlib 'random' is banned")
        if self.in_kernels and node.module and (
            node.module.startswith("numpy.random")
            or (node.module == "numpy"
                and any(alias.name == "random" for alias in node.names))
        ):
            self._flag("DET103", node, "import:numpy.random")
        self.generic_visit(node)

    # -- DET103: any numpy.random reference in a kernel ------------------- #

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Flagged at the innermost ``<np>.random`` node, so each use
        # yields exactly one finding regardless of chain depth.
        if self.in_kernels and self._canonical(node) in NP_RANDOM:
            self._flag("DET103", node, "numpy.random")
        self.generic_visit(node)

    # -- DET101 / DET102 / DET104 / DET202: calls ----------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        name = self._canonical(node.func)
        # Kernels fall under the stricter DET103, which would only be
        # duplicated by the DET101 call checks.
        if not self.in_kernels:
            self._check_rng_call(node, name)
        if not self.wallclock_ok:
            if self.in_replayable and name in (
                WALLCLOCK_CALLS + WALLCLOCK_EXTRA
            ):
                self._flag("DET104", node, name,
                           f"wall-clock read '{name}' in replayable "
                           f"daemon/campaign code")
            elif name in WALLCLOCK_CALLS:
                self._flag("DET102", node, name,
                           f"wall-clock read '{name}' makes output "
                           f"run-dependent")
        if (
            not self.print_ok
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            self._flag("DET202", node, "print")
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, name: str) -> None:
        if name.endswith(".random.default_rng") or name == "default_rng":
            if not node.args and not node.keywords:
                self._flag("DET101", node, f"{name}()",
                           "default_rng() without a seed is entropy-seeded")
            return
        head, _, tail = name.rpartition(".")
        if head in NP_RANDOM and tail in LEGACY_NP_RANDOM:
            self._flag("DET101", node, name,
                       f"legacy global-state '{name}' is banned")

    # -- DET201 ----------------------------------------------------------- #

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_blanket(node.type) and not _reraises(node.body):
            if node.type is None:
                clause, what = "except", "bare 'except:'"
            else:
                clause = f"except {ast.unparse(node.type)}"
                what = f"'{clause}'"
            self._flag("DET201", node, clause,
                       f"{what} without re-raise swallows unknown errors")
        self.generic_visit(node)

    # -- DET301 ----------------------------------------------------------- #

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def _check_set_iter(self, iter_node: ast.expr) -> None:
        if self.serialization and _is_set_expr(iter_node):
            self._flag("DET301", iter_node,
                       f"set-iter:{ast.unparse(iter_node)}")


def _check_determinism(
    data: AnalysisInput, rule_ids: List[str]
) -> List[Finding]:
    def_quals = {
        id(info.node): qual for qual, info in data.project.functions.items()
    }
    findings: List[Finding] = []
    for module in data.project.modules.values():
        if not module.relpath.startswith(CORE_PREFIX):
            continue
        visitor = _DeterminismVisitor(
            data.project, module, def_quals, rule_ids
        )
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


# --------------------------------------------------------------------- #
# EFF: purity contracts
# --------------------------------------------------------------------- #


def _check_purity(
    data: AnalysisInput, rule_ids: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for qual, info in data.project.functions.items():
        if info.name in CONSTRUCTOR_NAMES:
            continue
        contract = data.registry.lookup(info)
        if contract is None:
            continue
        for eff, origin in data.effects.get(qual, {}).items():
            if contract.allows(eff):
                continue
            where = (
                "directly" if origin.is_intrinsic
                else f"via {effect_path(qual, eff, data.effects)}"
            )
            if eff.kind == "mutates_arg":
                rule = "EFF101" if origin.is_intrinsic else "EFF102"
                message = (
                    f"{info.name} is declared pure "
                    f"({contract.reason}) but mutates argument "
                    f"{eff.detail!r} {where}"
                )
                detail = f"mutates_arg:{eff.detail}"
            elif eff.kind == "rng":
                rule = "EFF103"
                message = (
                    f"{info.name} is declared pure "
                    f"({contract.reason}) but draws randomness not "
                    f"passed in: {eff.detail} ({where})"
                )
                detail = f"rng:{eff.detail}"
            else:
                rule = "EFF102"
                message = (
                    f"{info.name} is declared pure "
                    f"({contract.reason}) but has effect "
                    f"{eff.describe()} {where}"
                )
                detail = eff.describe()
            if rule in rule_ids:
                findings.append(
                    _emit(rule, info.relpath, origin.lineno, qual,
                          detail, message)
                )
    return findings


# --------------------------------------------------------------------- #
# ASY: event-loop safety
# --------------------------------------------------------------------- #


def _check_async(
    data: AnalysisInput, rule_ids: List[str]
) -> List[Finding]:
    findings: List[Finding] = []

    def blocks(qual: str) -> bool:
        return any(
            eff.kind == "blocking"
            for eff in data.effects.get(qual, {})
        )

    def blocking_detail(qual: str) -> str:
        for eff in data.effects.get(qual, {}):
            if eff.kind == "blocking":
                return effect_path(qual, eff, data.effects) + (
                    f" [{eff.detail}]" if eff.detail else ""
                )
        return qual

    for qual, info in data.project.functions.items():
        if not info.module.startswith(SERVICE_PREFIX):
            continue
        fact = data.facts[qual]
        if info.is_async:
            # Direct blocking primitives in the async body.
            for eff, origin in data.effects.get(qual, {}).items():
                if eff.kind != "blocking" or not origin.is_intrinsic:
                    continue
                if "ASY101" in rule_ids:
                    findings.append(_emit(
                        "ASY101", info.relpath, origin.lineno, qual,
                        f"blocking:{eff.detail}",
                        f"async {info.name} blocks the event loop: "
                        f"{eff.detail}",
                    ))
            # First sync edge whose transitive closure blocks.
            for cs in fact.calls:
                callee_info = data.project.functions.get(cs.callee)
                if callee_info is None or cs.off_loop:
                    continue
                if callee_info.is_async:
                    if (
                        cs.bare and not cs.awaited
                        and "ASY102" in rule_ids
                    ):
                        findings.append(_emit(
                            "ASY102", info.relpath, cs.lineno, qual,
                            f"unawaited:{cs.callee}",
                            f"coroutine {callee_info.name} called "
                            f"without await: the awaitable is created "
                            f"and dropped",
                        ))
                    continue
                if blocks(cs.callee) and "ASY101" in rule_ids:
                    findings.append(_emit(
                        "ASY101", info.relpath, cs.lineno, qual,
                        f"call:{cs.callee}",
                        f"async {info.name} calls "
                        f"{callee_info.name}, which blocks the event "
                        f"loop ({blocking_detail(cs.callee)})",
                    ))
        # Callbacks scheduled onto the loop run on the loop no matter
        # where they were registered from.
        for reg in fact.loop_callbacks:
            if blocks(reg.callback) and "ASY101" in rule_ids:
                findings.append(_emit(
                    "ASY101", info.relpath, reg.lineno, qual,
                    f"callback:{reg.callback}",
                    f"{reg.api} schedules "
                    f"{reg.callback.rsplit('.', 1)[-1]} onto the event "
                    f"loop, and it blocks "
                    f"({blocking_detail(reg.callback)})",
                ))
    return findings


# --------------------------------------------------------------------- #
# FRK: fork safety
# --------------------------------------------------------------------- #


def _worker_reachable(data: AnalysisInput) -> Dict[str, str]:
    """Function qualname -> the worker entry point it is reachable
    from (first registration wins)."""
    roots: List[str] = []
    for fact in data.facts.values():
        for reg in fact.worker_targets:
            roots.append(reg.target)
    reachable: Dict[str, str] = {}
    for root in roots:
        stack = [root]
        while stack:
            cur = stack.pop()
            if cur in reachable:
                continue
            reachable[cur] = root
            for cs in data.facts.get(
                cur, FunctionFacts(qualname=cur)
            ).calls:
                if cs.callee not in reachable:
                    stack.append(cs.callee)
    return reachable


def _check_fork(
    data: AnalysisInput, rule_ids: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for qual, fact in data.facts.items():
        info = data.project.functions[qual]
        for hit in fact.captures:
            if "FRK101" not in rule_ids:
                continue
            findings.append(_emit(
                "FRK101", info.relpath, hit.lineno, qual,
                f"capture:{hit.var}",
                f"worker target "
                f"{hit.target.rsplit('.', 1)[-1]} closes over "
                f"{hit.tag} {hit.var!r} from the enclosing scope; "
                f"fork shares it with the parent",
            ))
    if "FRK102" not in rule_ids:
        return findings
    reachable = _worker_reachable(data)
    seen: Set[str] = set()
    for qual, root in reachable.items():
        info = data.project.functions.get(qual)
        if info is None:
            continue
        if in_ambient(qual, data.registry.ambient_modules):
            continue  # sanctioned instrumentation / chaos hooks
        for eff, origin in data.effects.get(qual, {}).items():
            if not origin.is_intrinsic:
                continue
            is_state = eff.kind == "mutates_global"
            is_module_rng = eff.kind == "rng" and (
                "module RNG" in eff.detail
                or "without a seed" in eff.detail
            )
            if not (is_state or is_module_rng):
                continue
            key = f"{qual}:{eff.describe()}"
            if key in seen:
                continue
            seen.add(key)
            what = (
                f"mutates module state {eff.detail}"
                if is_state else f"draws from {eff.detail}"
            )
            findings.append(_emit(
                "FRK102", info.relpath, origin.lineno, qual,
                eff.describe(),
                f"{info.name} runs inside forked workers (via "
                f"{root.rsplit('.', 1)[-1]}) and {what}; fork-shared "
                f"state diverges between parent and children",
            ))
    return findings
