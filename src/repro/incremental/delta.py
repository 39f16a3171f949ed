"""The :class:`LayoutDelta` — what changed between two placement states.

A delta records per-instance old/new placements.  The
exploitable-region scanner derives its dirt from it: it re-scans the
rows whose occupancy changed (plus the reach of any asset whose position
changed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.layout.layout import Placement


@dataclass
class LayoutDelta:
    """A placement change set between an *old* and a *new* layout state.

    Attributes:
        moved: Instance name → ``(old, new)`` placement.  ``None`` on
            either side means the instance was unplaced in that state.
    """

    moved: Dict[str, Tuple[Optional[Placement], Optional[Placement]]] = field(
        default_factory=dict
    )

    @classmethod
    def empty(cls) -> "LayoutDelta":
        """The no-op delta (NDR-only re-evaluations use this)."""
        return cls()

    def dirty_rows(self) -> Set[int]:
        """Row indices whose occupancy changed (old and new rows)."""
        rows: Set[int] = set()
        for old, new in self.moved.values():
            if old is not None:
                rows.add(old.row)
            if new is not None:
                rows.add(new.row)
        return rows
