"""Lightweight whole-project AST model.

Parses every module of the analyzed tree into :class:`ModuleInfo` /
:class:`FunctionInfo` / :class:`ClassInfo` records and builds the name
resolution machinery the call-graph pass leans on: import alias maps,
module-level globals (with the mutable / RNG subsets the fork rules
care about), per-class attribute types recovered from ``__init__``
assignments and dataclass field annotations, and a unique-method-name
index used as a last-resort receiver resolution.

The model is deliberately *optimistic*: anything it cannot resolve is
treated as effect-free.  The rules built on top only ever flag what the
model can positively prove, so unresolved calls cost recall, never
precision.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "Resolved",
    "SourceModule",
    "dotted_chain",
    "module_name_for",
]

#: Constructor calls whose *result type* the type environment tracks.
#: Maps a canonical dotted callable to a type tag.
CONSTRUCTOR_TAGS: Dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "open": "file",
    "io.open": "file",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "queue.Queue": "queue",
    "queue.SimpleQueue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "multiprocessing.Queue": "queue",
    "multiprocessing.get_context": "mp_context",
    "multiprocessing.Pool": "mp_pool",
    "concurrent.futures.ProcessPoolExecutor": "mp_pool",
    "concurrent.futures.ThreadPoolExecutor": "thread_pool",
    "asyncio.get_running_loop": "event_loop",
    "asyncio.get_event_loop": "event_loop",
    "pathlib.Path": "path",
    "pathlib.PurePath": "path",
}

#: ``mp_context`` attribute constructors (``ctx.Lock()`` etc.).
MP_CONTEXT_TAGS: Dict[str, str] = {
    "Lock": "lock",
    "RLock": "rlock",
    "Queue": "queue",
    "SimpleQueue": "queue",
    "JoinableQueue": "queue",
    "Pool": "mp_pool",
    "Pipe": "pipe_pair",
}

#: Annotation names that map straight to a type tag.
ANNOTATION_TAGS: Dict[str, str] = {
    "pathlib.Path": "path",
    "Path": "path",
    "threading.Lock": "lock",
    "socket.socket": "socket",
}


class SourceModule(NamedTuple):
    """One module handed to the analyzer: name, repo relpath, source."""

    name: str
    relpath: str
    source: str


class Resolved(NamedTuple):
    """Outcome of resolving a dotted name.

    ``kind`` is one of ``function`` / ``class`` / ``global`` /
    ``rng_global`` / ``external``; ``target`` is the canonical dotted
    name (for internal kinds, a project qualname).
    """

    kind: str
    target: str


@dataclass
class FunctionInfo:
    """One function / method / nested def in the project."""

    qualname: str
    module: str
    name: str
    relpath: str
    lineno: int
    node: ast.AST
    is_async: bool
    params: Tuple[str, ...]
    class_name: Optional[str] = None
    parent: Optional[str] = None
    is_static: bool = False
    param_annotations: Dict[str, str] = field(default_factory=dict)
    #: Names loaded but not bound locally nor module-level: closure
    #: candidates for the fork-capture rule.
    free_vars: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def self_param(self) -> Optional[str]:
        if self.is_method and not self.is_static and self.params:
            return self.params[0]
        return None


@dataclass
class ClassInfo:
    """One class: its methods and what its attributes are typed as."""

    qualname: str
    module: str
    name: str
    methods: Dict[str, str] = field(default_factory=dict)
    #: attr name -> canonical class dotted name or type tag.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its module-level namespace."""

    name: str
    relpath: str
    source: str
    tree: ast.Module
    is_package: bool = False
    imports: Dict[str, str] = field(default_factory=dict)
    #: Every name assigned at module level -> first assignment line.
    global_names: Dict[str, int] = field(default_factory=dict)
    #: Module-level names bound to mutable containers.
    global_mutables: Dict[str, int] = field(default_factory=dict)
    #: Module-level names bound to RNG instances.
    global_rngs: Dict[str, int] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def module_name_for(relpath: str) -> str:
    """``src/repro/service/http.py`` -> ``repro.service.http``."""
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-Name roots."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def annotation_text(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort dotted text of an annotation expression.

    Unwraps ``Optional[X]`` / string literals; gives up (``None``) on
    anything more exotic — unresolved annotations just lose precision.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = dotted_chain(node.value)
        if base and base[-1] in ("Optional",):
            return annotation_text(node.slice)
        return None
    chain = dotted_chain(node)
    return ".".join(chain) if chain else None


MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque",
     "OrderedDict", "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = dotted_chain(node.func)
        if chain and chain[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


def _is_rng_constructor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = dotted_chain(node.func)
    if not chain:
        return False
    dotted = ".".join(chain)
    return (
        dotted.endswith("random.default_rng")
        or dotted == "default_rng"
        or dotted.endswith("random.Random")
        or dotted.endswith("random.RandomState")
    )


class _ModuleCollector:
    """Builds one :class:`ModuleInfo` from a parsed tree."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info

    def collect(self) -> None:
        for stmt in self.info.tree.body:
            self._top_level(stmt)

    # -- module body ---------------------------------------------------- #

    def _top_level(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                self.info.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_base(stmt)
            if base is not None:
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.info.imports[local] = target
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(stmt, class_name=None, parent=None)
        elif isinstance(stmt, ast.ClassDef):
            self._class(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    self.info.global_names.setdefault(
                        target.id, target.lineno
                    )
                    if value is not None and _is_mutable_literal(value):
                        self.info.global_mutables.setdefault(
                            target.id, target.lineno
                        )
                    if value is not None and _is_rng_constructor(value):
                        self.info.global_rngs.setdefault(
                            target.id, target.lineno
                        )
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks and guarded imports.
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._top_level(sub)

    def _import_base(self, stmt: ast.ImportFrom) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module or ""
        # Relative import: anchor at the module's package.
        parts = self.info.name.split(".")
        if not self.info.is_package:
            parts = parts[:-1]
        up = stmt.level - 1
        if up > len(parts):
            return None
        base_parts = parts[: len(parts) - up] if up else parts
        if stmt.module:
            base_parts = base_parts + stmt.module.split(".")
        return ".".join(base_parts)

    # -- defs ----------------------------------------------------------- #

    def _function(
        self,
        node: ast.stmt,
        class_name: Optional[str],
        parent: Optional[str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if parent is not None:
            qual = f"{parent}.<locals>.{node.name}"
        elif class_name is not None:
            qual = f"{self.info.name}.{class_name}.{node.name}"
        else:
            qual = f"{self.info.name}.{node.name}"
        args = node.args
        params = tuple(
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        annotations: Dict[str, str] = {}
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            text = annotation_text(a.annotation)
            if text:
                annotations[a.arg] = text
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        info = FunctionInfo(
            qualname=qual,
            module=self.info.name,
            name=node.name,
            relpath=self.info.relpath,
            lineno=node.lineno,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=params,
            class_name=class_name,
            parent=parent,
            is_static=is_static,
            param_annotations=annotations,
            free_vars=tuple(sorted(_free_vars(node))),
        )
        self.info.functions[qual] = info
        if class_name is not None and parent is None:
            self.info.classes[class_name].methods[node.name] = qual
        self._nested(node, qual)

    def _nested(self, node: ast.stmt, parent_qual: str) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(sub, class_name=None, parent=parent_qual)
            elif isinstance(sub, ast.stmt) and not isinstance(
                sub, ast.ClassDef
            ):
                self._nested(sub, parent_qual)

    def _class(self, node: ast.ClassDef) -> None:
        qual = f"{self.info.name}.{node.name}"
        cls = ClassInfo(qualname=qual, module=self.info.name,
                        name=node.name)
        self.info.classes[node.name] = cls
        self.info.global_names.setdefault(node.name, node.lineno)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(stmt, class_name=node.name, parent=None)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # Dataclass-style field annotation.
                text = annotation_text(stmt.annotation)
                if text:
                    cls.attr_types.setdefault(stmt.target.id, text)


def _free_vars(node: ast.stmt) -> List[str]:
    """Loaded names not bound inside the function (closure candidates)."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    bound = set()
    args = node.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    loaded: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, (ast.Store, ast.Del)):
                bound.add(sub.id)
            else:
                loaded.append(sub.id)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            bound.update(sub.names)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if sub is not node:
                bound.add(sub.name)
    return sorted(
        {n for n in loaded if n not in bound}
        - set(dir(builtins))
    )


class Project:
    """All parsed modules plus cross-module resolution."""

    def __init__(self, sources: List[SourceModule]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.errors: List[str] = []
        for src in sources:
            try:
                tree = ast.parse(src.source)
            except SyntaxError as exc:
                self.errors.append(
                    f"{src.relpath}:{exc.lineno}: syntax error: {exc.msg}"
                )
                continue
            info = ModuleInfo(
                name=src.name,
                relpath=src.relpath,
                source=src.source,
                tree=tree,
                is_package=src.relpath.endswith("__init__.py"),
            )
            _ModuleCollector(info).collect()
            self.modules[src.name] = info
            self.functions.update(info.functions)
            for cls in info.classes.values():
                self.classes[cls.qualname] = cls
        #: method name -> defining classes (for unique-name fallback).
        self.method_index: Dict[str, List[str]] = {}
        for cls in self.classes.values():
            for mname, fq in cls.methods.items():
                self.method_index.setdefault(mname, []).append(fq)

    # -- name resolution ------------------------------------------------ #

    def canonical(self, module: ModuleInfo, chain: List[str]) -> str:
        """Map a dotted chain through the module's import aliases."""
        root = chain[0]
        target = module.imports.get(root)
        if target is not None:
            return ".".join([target] + chain[1:])
        if (
            root in module.global_names
            or any(f.name == root and f.class_name is None
                   and f.parent is None
                   for f in module.functions.values())
        ):
            return ".".join([module.name] + chain)
        return ".".join(chain)

    def resolve(self, canonical: str, depth: int = 0) -> Resolved:
        """Classify a canonical dotted name against the project."""
        if depth > 4:
            return Resolved("external", canonical)
        parts = canonical.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:split])
            mod = self.modules.get(mod_name)
            if mod is None:
                continue
            rest = parts[split:]
            return self._resolve_in(mod, rest, canonical, depth)
        return Resolved("external", canonical)

    def _resolve_in(
        self,
        mod: ModuleInfo,
        rest: List[str],
        canonical: str,
        depth: int,
    ) -> Resolved:
        head = rest[0]
        if len(rest) == 1:
            fq = f"{mod.name}.{head}"
            if fq in self.functions:
                return Resolved("function", fq)
            if head in mod.classes:
                return Resolved("class", fq)
            if head in mod.global_rngs:
                return Resolved("rng_global", fq)
            if head in mod.global_names:
                return Resolved("global", fq)
            if head in mod.imports:
                return self.resolve(mod.imports[head], depth + 1)
            return Resolved("external", canonical)
        if head in mod.classes:
            cls = mod.classes[head]
            if len(rest) == 2 and rest[1] in cls.methods:
                return Resolved("function", cls.methods[rest[1]])
            return Resolved("external", canonical)
        if head in mod.imports:
            # Re-export through a package __init__.
            return self.resolve(
                ".".join([mod.imports[head]] + rest[1:]), depth + 1
            )
        return Resolved("external", canonical)

    def unique_method(self, name: str) -> Optional[str]:
        """Resolve ``x.m()`` with unknown receiver: unique def wins."""
        candidates = self.method_index.get(name, [])
        if len(candidates) == 1 and name not in AMBIGUOUS_METHOD_NAMES:
            return candidates[0]
        return None


#: Method names too generic for unique-name receiver resolution even
#: when only one project class happens to define them today.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {"get", "run", "save", "load", "close", "open", "put", "pop", "set",
     "add", "update", "copy", "reset", "clear", "start", "stop", "wait",
     "join", "send", "recv", "read", "write", "format", "parse", "keys",
     "values", "items", "append", "extend"}
)
