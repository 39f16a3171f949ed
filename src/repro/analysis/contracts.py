"""Declared purity contracts and effect-masking policy.

A :class:`Contract` marks a family of functions (fnmatch pattern over
qualnames) as **pure**: the EFF rules then reject any inferred effect
the contract does not explicitly allow.  ``allow`` entries are either a
bare kind (``"lock"``) or ``kind:detail`` (``"mutates_arg:use"``) for
surgical exemptions — e.g. a kernel documented as in-place, or a
version-keyed memo cache that is observationally pure.

Two modules are **ambient**: their effects never propagate to callers.

* :mod:`repro.obs` — counters/timers are sanctioned instrumentation;
  without masking, one ``obs.count`` would poison every pure path.
* :mod:`repro.resilience.faults` — the chaos hooks fire only under an
  explicitly installed fault plan; production paths treat them as
  no-ops.

The default registry covers the four families ISSUE-critical for the
bitwise guarantees: design-database lint rule callables, the vectorized
kernels, the security attack-query path, and the red-team probe
surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.effects import Effect
from repro.analysis.model import FunctionInfo

__all__ = [
    "AMBIENT_MODULES",
    "Contract",
    "ContractRegistry",
    "default_registry",
]

#: Modules whose effects are masked during propagation (see module doc).
AMBIENT_MODULES: FrozenSet[str] = frozenset(
    {"repro.obs", "repro.resilience.faults"}
)

#: Effect kinds that do not break purity (they affect *when*, not
#: *what*, a pure function computes).
PURITY_NEUTRAL_KINDS: FrozenSet[str] = frozenset({"blocking", "lock"})

#: The kernels' four memo caches and the layout's pin-table map (WeakKey
#: maps invalidated by ``mod_count``, occupancy ``version``, a row's free
#: bits and budget row epochs and ``used``): written on a miss,
#: observationally pure, so allowed on every pure path that reaches a
#: kernel or a pin-geometry read.
_KERNEL_MEMO_CACHES: Tuple[str, ...] = (
    "mutates_global:repro.kernels.exploitable._FILLERS",
    "mutates_global:repro.kernels.exploitable._ROW_MASKS",
    "mutates_global:repro.kernels.legalize._BUDGET_CACHE",
    "mutates_global:repro.kernels.sta._CACHE",
    "mutates_global:repro.layout.pins._TABLES",
)


@dataclass(frozen=True)
class Contract:
    """One declared-pure family of functions.

    Attributes:
        pattern: fnmatch pattern over function qualnames.
        reason: Why this family must be pure (shown in messages).
        allow: Sanctioned effects — ``"kind"`` or ``"kind:detail"``.
        top_level_only: Restrict the pattern to module-level functions
            (so ``repro.kernels.*`` does not sweep in helper classes).
    """

    pattern: str
    reason: str
    allow: Tuple[str, ...] = ()
    top_level_only: bool = False

    def matches(self, info: FunctionInfo) -> bool:
        if self.top_level_only and (
            info.class_name is not None or info.parent is not None
        ):
            return False
        return fnmatchcase(info.qualname, self.pattern)

    def allows(self, eff: Effect) -> bool:
        return (
            eff.kind in PURITY_NEUTRAL_KINDS
            or eff.kind in self.allow
            or f"{eff.kind}:{eff.detail}" in self.allow
        )


@dataclass
class ContractRegistry:
    """Ordered contract list; first match wins."""

    contracts: List[Contract] = field(default_factory=list)
    ambient_modules: FrozenSet[str] = AMBIENT_MODULES

    def lookup(self, info: FunctionInfo) -> Optional[Contract]:
        for contract in self.contracts:
            if contract.matches(info):
                return contract
        return None


def default_registry() -> ContractRegistry:
    """The shipped contract registry for the repro tree."""
    return ContractRegistry(
        contracts=[
            # Design-database lint rules: a rule that mutated the layout
            # it checks would corrupt every later rule's verdict.
            Contract(
                pattern="repro.lint.rules._check_*",
                reason="lint rules must not mutate the checked design",
            ),
            # Kernels: each must stay bitwise-comparable with its
            # scalar test oracle, so kernels own no state and no
            # randomness.  Documented exceptions: `apply_line` is the
            # one in-place primitive (callers own the usage grid and
            # the ratio grid kept in step with it), and the memo caches
            # are observationally pure.
            Contract(
                pattern="repro.kernels.routegrid.apply_line",
                reason="documented in-place track-usage and ratio update",
                allow=("mutates_arg:use", "mutates_arg:ratio"),
                top_level_only=True,
            ),
            Contract(
                pattern="repro.kernels.*",
                reason="kernels must match their test oracles bitwise",
                allow=_KERNEL_MEMO_CACHES,
                top_level_only=True,
            ),
            # Security attack queries: `evaluate`/`attempt` paths are
            # read-only probes of the layout; a mutation here would
            # corrupt the defense evaluation it feeds.  The region scan
            # they run reaches the exploitable kernel's memo caches.
            Contract(
                pattern="repro.security.trojan.*",
                reason="attack queries must not mutate the layout",
                allow=_KERNEL_MEMO_CACHES,
                top_level_only=True,
            ),
            # Red-team probe surface: one attempt must not leak state
            # into the next or the campaign loses bitwise replay.  Its
            # one memo, the per-Thresh_ER region ranking, is a write-once
            # cache of a pure function of the target.
            Contract(
                pattern="repro.redteam.surface.*",
                reason="attack probes must be replayable bitwise",
                allow=_KERNEL_MEMO_CACHES
                + ("mutates_global:repro.redteam.surface._RANKINGS",),
            ),
        ]
    )
