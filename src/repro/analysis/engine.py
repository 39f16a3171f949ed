"""Analyzer orchestration: sources -> model -> effects -> findings.

:func:`analyze_sources` is the synthetic-module entry point the test
fixtures use; :func:`analyze_tree` walks ``src/repro`` on disk.  Both
run the same pipeline and honour the ratchet baseline plus line
pragmas: ``# repro-lint: disable=DET201,ASY101 <justification>``
silences those rule ids on that line (the rule list ends at the first
whitespace; the rest is free text).
"""

from __future__ import annotations

import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.callgraph import build_facts
from repro.analysis.contracts import ContractRegistry, default_registry
from repro.analysis.effects import propagate
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.model import Project, SourceModule, module_name_for
from repro.analysis.rules import RULES, AnalysisInput, check_all
from repro.errors import ReproError

__all__ = ["analyze_sources", "analyze_tree", "default_root",
           "select_rules"]

PRAGMA = "repro-lint:"


def _pragmas(code: str) -> Dict[int, Set[str]]:
    """Line -> rule ids disabled there by a pragma comment."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(
            iter(code.splitlines(True)).__next__
        )
        for tok in tokens:
            if tok.type != tokenize.COMMENT or PRAGMA not in tok.string:
                continue
            directive = tok.string.split(PRAGMA, 1)[1].strip()
            if directive.startswith("disable="):
                rule_list = directive[len("disable="):].split(None, 1)[0]
                rules = {
                    r.strip() for r in rule_list.split(",") if r.strip()
                }
                out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return out


def select_rules(selectors: Optional[Sequence[str]]) -> List[str]:
    """Expand rule selectors (ids or family prefixes) to rule ids."""
    if not selectors:
        return sorted(RULES)
    out: List[str] = []
    for sel in selectors:
        key = sel.strip().upper()
        if key in RULES:
            out.append(key)
            continue
        family = [r for r in sorted(RULES) if r.startswith(key)]
        if not family:
            raise ReproError(
                f"unknown analysis rule {sel!r}; choose from "
                + ", ".join(sorted(RULES))
            )
        out.extend(family)
    return sorted(set(out))


def analyze_sources(
    sources: Sequence[SourceModule],
    registry: Optional[ContractRegistry] = None,
    rules: Optional[Sequence[str]] = None,
    baseline_keys: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the full pipeline over in-memory modules."""
    registry = registry if registry is not None else default_registry()
    rule_ids = select_rules(rules)
    project = Project(list(sources))
    if project.errors:
        raise ReproError(
            "analysis cannot parse the tree: " + "; ".join(project.errors)
        )
    facts = build_facts(project)
    effects = propagate(facts, registry.ambient_modules)
    findings = check_all(
        AnalysisInput(
            project=project,
            facts=facts,
            effects=effects,
            registry=registry,
        ),
        rule_ids,
    )
    findings = _apply_pragmas(project, findings)
    live, baselined, stale = apply_baseline(
        findings, list(baseline_keys or [])
    )
    return AnalysisReport(
        findings=live,
        baselined=baselined,
        stale_baseline=stale,
        modules=len(project.modules),
        functions=len(project.functions),
        rules_run=rule_ids,
    )


def _apply_pragmas(
    project: Project, findings: List[Finding]
) -> List[Finding]:
    pragma_cache: Dict[str, Dict[int, Set[str]]] = {}
    by_relpath = {m.relpath: m for m in project.modules.values()}
    kept: List[Finding] = []
    for f in findings:
        mod = by_relpath.get(f.relpath)
        if mod is None:
            kept.append(f)
            continue
        if f.relpath not in pragma_cache:
            pragma_cache[f.relpath] = _pragmas(mod.source)
        if f.rule_id in pragma_cache[f.relpath].get(f.line, ()):
            continue
        kept.append(f)
    return kept


def _tree_sources(root: Path) -> List[SourceModule]:
    src = root / "src" / "repro"
    if not src.is_dir():
        raise ReproError(f"no src/repro tree under {root}")
    sources: List[SourceModule] = []
    for path in sorted(src.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        sources.append(
            SourceModule(
                name=module_name_for(relpath),
                relpath=relpath,
                source=path.read_text(),
            )
        )
    return sources


def default_root() -> Path:
    """Repo root inferred from this package's location on disk."""
    return Path(__file__).resolve().parents[3]


def analyze_tree(
    root: Optional[Path] = None,
    registry: Optional[ContractRegistry] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Path] = None,
) -> AnalysisReport:
    """Analyze the on-disk ``src/repro`` tree under ``root``.

    ``baseline`` points at a ratchet file (missing file = empty
    baseline); ``None`` skips baseline handling entirely.
    """
    if root is None:
        root = default_root()
    keys = load_baseline(baseline) if baseline is not None else []
    return analyze_sources(
        _tree_sources(root),
        registry=registry,
        rules=rules,
        baseline_keys=keys,
    )
