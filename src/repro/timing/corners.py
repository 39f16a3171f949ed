"""Multi-corner (MMMC-style) timing analysis.

The paper's benchmarks ship SDC + MMMC files: signoff checks setup timing
at a slow corner and (in full flows) hold at a fast one.  The model here
is the standard derating approach — a corner scales cell delays and wire
RC — which is what the single-library substrate can express.  The default
corner set covers slow/typical/fast silicon.

Multi-corner TNS is the worst (most negative) TNS over the corners; the
GDSII-Guard flow itself optimizes the typical corner (as calibrated), and
this module lets a user check a hardened layout at signoff corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.layout.layout import Layout
from repro.timing.constraints import TimingConstraints
from repro.timing.delay import TYPICAL, Corner
from repro.timing.sta import STAResult, run_sta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.route.router import RoutingResult

#: The default corner set: ±12 % silicon with ±10 % interconnect.
DEFAULT_CORNERS: Tuple[Corner, ...] = (
    Corner("slow", cell_derate=1.12, wire_derate=1.10),
    TYPICAL,
    Corner("fast", cell_derate=0.88, wire_derate=0.92),
)


@dataclass
class MultiCornerResult:
    """STA results per corner plus the signoff summary."""

    results: Dict[str, STAResult]

    @property
    def worst_tns(self) -> float:
        """Most negative TNS over all corners."""
        return min(r.tns for r in self.results.values())

    @property
    def worst_corner(self) -> str:
        """Name of the corner with the worst TNS."""
        return min(self.results, key=lambda name: self.results[name].tns)

    def tns_by_corner(self) -> Dict[str, float]:
        """Corner name → TNS."""
        return {name: r.tns for name, r in self.results.items()}


def run_multi_corner_sta(
    layout: Layout,
    constraints: TimingConstraints,
    corners: Sequence[Corner] = DEFAULT_CORNERS,
    routing: Optional["RoutingResult"] = None,
) -> MultiCornerResult:
    """Run setup STA at every corner.

    Returns:
        A :class:`MultiCornerResult`; ``worst_tns`` is the signoff number.
    """
    results: Dict[str, STAResult] = {}
    for corner in corners:
        results[corner.name] = run_sta(
            layout, constraints, routing=routing, corner=corner
        )
    return MultiCornerResult(results=results)
