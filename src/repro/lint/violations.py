"""Structured lint diagnostics: severities, violations, reports.

A :class:`Violation` is one rule finding with a stable rule id, a
severity, a human message, a location (ordered key/value pairs such as
``row=3, site=17``) and a fix hint.  A :class:`LintReport` aggregates the
findings of one engine run and knows how to render itself as text or JSON
and how to turn a ``--fail-on`` threshold into an exit code.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons mean "at least"."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: Union[str, "Severity"]) -> "Severity":
        """Parse a severity name (``warn``/``warning``/``error``/``info``)."""
        if isinstance(text, Severity):
            return text
        key = text.strip().lower()
        aliases = {
            "info": cls.INFO,
            "warn": cls.WARNING,
            "warning": cls.WARNING,
            "error": cls.ERROR,
        }
        if key not in aliases:
            raise ValueError(
                f"unknown severity {text!r}; choose from info/warning/error"
            )
        return aliases[key]

    def label(self) -> str:
        """Lower-case display name."""
        return self.name.lower()


@dataclass(frozen=True)
class Violation:
    """One rule finding on one design object.

    Attributes:
        rule_id: Stable rule identifier (e.g. ``"L001"``).
        severity: Finding severity (may differ from the rule default).
        message: One-line human description.
        location: Ordered ``(key, value)`` pairs locating the finding
            (row/site/instance/net/layer...).
        hint: Actionable fix hint inherited from the rule.
    """

    rule_id: str
    severity: Severity
    message: str
    location: Tuple[Tuple[str, object], ...] = ()
    hint: Optional[str] = None

    def location_dict(self) -> Dict[str, object]:
        """Location pairs as a dict (insertion-ordered)."""
        return dict(self.location)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation with stable key order."""
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.label(),
            "message": self.message,
            "location": self.location_dict(),
            "hint": self.hint,
        }

    def format(self) -> str:
        """``[L001] error: message (row=3, site=17)``."""
        loc = ""
        if self.location:
            loc = " (" + ", ".join(f"{k}={v}" for k, v in self.location) + ")"
        return f"[{self.rule_id}] {self.severity.label()}: {self.message}{loc}"


@dataclass
class LintReport:
    """All findings of one lint run.

    Attributes:
        subject: Name of the linted design/layout.
        violations: Findings in deterministic (rule id, emission) order.
        rules_run: Ids of the rules that executed.
        rules_skipped: Rule id → reason, for rules suppressed because a
            structural dependency already failed (cascade suppression).
    """

    subject: str
    violations: List[Violation] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()
    rules_skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def errors(self) -> int:
        """Number of error-severity findings."""
        return self.count_at_least(Severity.ERROR)

    @property
    def warnings(self) -> int:
        """Number of warning-severity findings (exactly WARNING)."""
        return sum(1 for v in self.violations if v.severity is Severity.WARNING)

    @property
    def is_clean(self) -> bool:
        """Whether the run produced no findings at all."""
        return not self.violations

    def count_at_least(self, severity: Severity) -> int:
        """Findings at or above ``severity``."""
        return sum(1 for v in self.violations if v.severity >= severity)

    def rule_ids(self) -> List[str]:
        """Sorted distinct ids of the rules that fired."""
        return sorted({v.rule_id for v in self.violations})

    def exit_code(self, fail_on: Union[str, Severity] = Severity.ERROR) -> int:
        """CLI exit code: 1 when findings at/above ``fail_on`` exist."""
        return 1 if self.count_at_least(Severity.parse(fail_on)) else 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation with stable key order."""
        return {
            "subject": self.subject,
            "rules_run": list(self.rules_run),
            "rules_skipped": dict(sorted(self.rules_skipped.items())),
            "counts": {
                "error": self.errors,
                "warning": self.warnings,
                "total": len(self.violations),
            },
            "violations": [v.as_dict() for v in self.violations],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`as_dict` as JSON text."""
        return json.dumps(self.as_dict(), indent=indent)

    def format_text(self, verbose: bool = False) -> str:
        """Human-readable multi-line rendering."""
        lines: List[str] = []
        if self.is_clean:
            lines.append(
                f"{self.subject}: clean "
                f"({len(self.rules_run)} rules, 0 violations)"
            )
        else:
            for v in self.violations:
                lines.append(v.format())
                if verbose and v.hint:
                    lines.append(f"    hint: {v.hint}")
            lines.append(
                f"{self.subject}: {self.errors} error(s), "
                f"{self.warnings} warning(s) "
                f"({len(self.rules_run)} rules run)"
            )
        for rule_id, reason in sorted(self.rules_skipped.items()):
            lines.append(f"[{rule_id}] skipped: {reason}")
        return "\n".join(lines)


def merge_reports(subject: str, reports: Sequence[LintReport]) -> LintReport:
    """Concatenate several reports under one subject (used by sweeps)."""
    merged = LintReport(subject=subject)
    seen_rules: List[str] = []
    for r in reports:
        merged.violations.extend(r.violations)
        for rid in r.rules_run:
            if rid not in seen_rules:
                seen_rules.append(rid)
        for rid, reason in r.rules_skipped.items():
            merged.rules_skipped.setdefault(rid, reason)
    merged.rules_run = tuple(seen_rules)
    return merged
