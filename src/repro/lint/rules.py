"""The layout DRC/invariant rule catalog.

Every rule has a stable id, a default severity, a description, and a fix
hint; the registry keeps them in id order so engine output is
deterministic.  Rules receive a :class:`LintContext` (the layout plus
optional routing / security-asset / reference-placement context) and an
``emit`` callback; they never raise on a corrupt design — corruption is
what they exist to report.

Cascade suppression: derived rules (gap accounting, DEF round-trip)
declare ``depends_on`` structural rules.  When a dependency emitted an
error the derived rule is skipped — its input is already known-corrupt,
and re-diagnosing the same damage under a second id would bury the root
cause (the same reason compilers suppress cascaded errors).

L001 and L002 split the layout's legality scan (:meth:`Layout.findings`)
by :data:`FINDING_RULES`; L003 reports :meth:`Layout.hard_blockage_hits`.

Rule catalog:

========  ==================  ========  =========================================
id        name                severity  checks
========  ==================  ========  =========================================
L001      cell-overlap        error     overlap; index/map desync; map ghosts
L002      placement-bounds    error     off-row; unknown cell; empty/master width
L003      blockage            error     hard-blockage breach; soft over-density
L004      frozen-assets       error     assets placed; fixed cells immobile
L005      gap-conservation    error     free + used sites == capacity, gap graph
N001      dangling-net        error     nets with no driver or no sinks
N002      pin-connectivity    error     multi-driven nets, unconnected pins
R001      track-capacity      warning   per-layer gcell overflow (error past DRC
                                        margin)
S001      def-roundtrip       error     DEF serialization fixed point
========  ==================  ========  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.drc.checker import overflow_limit
from repro.errors import ReproError
from repro.layout.layout import Layout, Placement
from repro.lint.violations import Severity, Violation

#: Stable rule identifiers.
CELL_OVERLAP = "L001"
PLACEMENT_BOUNDS = "L002"
BLOCKAGE = "L003"
FROZEN_ASSETS = "L004"
GAP_CONSERVATION = "L005"
DANGLING_NET = "N001"
PIN_CONNECTIVITY = "N002"
TRACK_CAPACITY = "R001"
DEF_ROUNDTRIP = "S001"

#: Tolerance for soft-blockage density comparisons (densities are ratios
#: of small integer site counts; this absorbs float division noise only).
_DENSITY_EPS = 1e-9

#: R001 warning tier: overflow the detailed router still absorbs (below
#: the DRC hard threshold) is only worth flagging once it approaches the
#: cliff.  Mild overflow — a fraction of a track, routine after an RWS
#: re-route — is by the congestion model not a defect at all.
TRACK_SOFT_RATIO = 1.3
TRACK_SOFT_MARGIN = 4.0

EmitFn = Callable[..., None]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    Attributes:
        rule_id: Stable identifier (sorts the execution order).
        name: Short slug, usable as a ``--rules`` selector.
        severity: Default severity of this rule's findings.
        description: What the rule checks.
        hint: Actionable fix hint attached to findings.
        requires_routing: Skip (not fail) when no routing is in context.
        depends_on: Rule ids whose error findings suppress this rule.
    """

    rule_id: str
    name: str
    severity: Severity
    description: str
    hint: str
    check: Callable[["LintContext", EmitFn], None]
    requires_routing: bool = False
    depends_on: Tuple[str, ...] = ()

    def run(self, ctx: "LintContext") -> List[Violation]:
        """Execute the rule, returning its findings in emission order."""
        out: List[Violation] = []

        def emit(
            message: str,
            severity: Optional[Severity] = None,
            hint: Optional[str] = None,
            **location: object,
        ) -> None:
            out.append(
                Violation(
                    rule_id=self.rule_id,
                    severity=severity or self.severity,
                    message=message,
                    location=tuple(sorted(location.items())),
                    hint=hint or self.hint,
                )
            )

        self.check(ctx, emit)
        return out


@dataclass
class LintContext:
    """Everything a rule may inspect.

    Attributes:
        layout: The design database under analysis (never mutated).
        routing: Routing result for track-capacity checks (optional).
        assets: Security-critical cells for the frozen-asset rule
            (optional).
        reference_placements: Placements the fixed cells must still hold
            (optional; captured when the cells were frozen).
        thresh_er: Exploitable-region threshold carried for context-aware
            reporting (not a pass/fail input today).
    """

    layout: Layout
    routing: Optional[object] = None
    assets: Optional[Sequence[str]] = None
    reference_placements: Optional[Mapping[str, Placement]] = None
    thresh_er: int = 20


_REGISTRY: Dict[str, Rule] = {}


def rule(
    rule_id: str,
    name: str,
    severity: Severity,
    description: str,
    hint: str,
    requires_routing: bool = False,
    depends_on: Tuple[str, ...] = (),
) -> Callable[[Callable[[LintContext, EmitFn], None]], Callable]:
    """Register a check function as a lint rule."""

    def deco(fn: Callable[[LintContext, EmitFn], None]) -> Callable:
        if rule_id in _REGISTRY:
            raise ReproError(f"duplicate lint rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            description=description,
            hint=hint,
            check=fn,
            requires_routing=requires_routing,
            depends_on=depends_on,
        )
        return fn

    return deco


def all_rules() -> List[Rule]:
    """Every registered rule in id order."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(selector: str) -> Rule:
    """Look up one rule by id or name."""
    if selector in _REGISTRY:
        return _REGISTRY[selector]
    for r in _REGISTRY.values():
        if r.name == selector:
            return r
    raise ReproError(
        f"unknown lint rule {selector!r}; known: "
        + ", ".join(f"{r.rule_id}/{r.name}" for r in all_rules())
    )


def select_rules(selectors: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve ``--rules`` selectors (ids or names) to rules, id-ordered."""
    if not selectors:
        return all_rules()
    chosen = {get_rule(s).rule_id for s in selectors}
    return [r for r in all_rules() if r.rule_id in chosen]


# ---------------------------------------------------------------------- #
# structural placement rules
# ---------------------------------------------------------------------- #


#: The structural rule that reports each :meth:`Layout.findings` kind.
FINDING_RULES: Dict[str, str] = {
    **dict.fromkeys(("index", "overlap", "map", "ghost"), CELL_OVERLAP),
    **dict.fromkeys(("out_of_row", "empty", "unknown", "width"), PLACEMENT_BOUNDS),
}


def _emit_findings(layout: Layout, rule_id: str, emit: EmitFn) -> None:
    """Emit the :meth:`Layout.findings` that ``rule_id`` reports."""
    for finding in layout.findings():
        if FINDING_RULES[finding.kind] == rule_id:
            emit(finding.message, row=finding.row, instance=finding.name)


@rule(
    CELL_OVERLAP,
    "cell-overlap",
    Severity.ERROR,
    "Cells in a row must not overlap, and the row index and the placement "
    "map must agree with the row records (no desync, no ghost entries).",
    "re-legalize the affected rows (repro.place.legalize) or rebuild the "
    "layout from its DEF; a desync means a mutation bypassed the Layout "
    "API.",
)
def _check_cell_overlap(ctx: LintContext, emit: EmitFn) -> None:
    _emit_findings(ctx.layout, CELL_OVERLAP, emit)


@rule(
    PLACEMENT_BOUNDS,
    "placement-bounds",
    Severity.ERROR,
    "Every cell must sit inside its row, be a netlist instance, and "
    "occupy exactly its master's width (at least one site).",
    "move the cell back inside the core, or fix the width bookkeeping to "
    "match the library master.",
)
def _check_placement_bounds(ctx: LintContext, emit: EmitFn) -> None:
    _emit_findings(ctx.layout, PLACEMENT_BOUNDS, emit)


@rule(
    BLOCKAGE,
    "blockage",
    Severity.ERROR,
    "No cell may intersect a hard placement blockage; soft blockages "
    "must keep local density at or below their cap (warning).",
    "move or re-legalize the offending cells out of the blocked region.",
)
def _check_blockage(ctx: LintContext, emit: EmitFn) -> None:
    layout = ctx.layout
    core = layout.core
    for name in sorted(layout.blockages):
        b = layout.blockages[name]
        if not core.contains_rect(b.rect):
            emit(
                f"blockage {b.name!r} extends outside the core",
                severity=Severity.WARNING,
                blockage=b.name,
            )
        if not b.is_hard:
            density = layout.region_density(b.rect)
            if density > b.max_density + _DENSITY_EPS:
                emit(
                    f"soft blockage {b.name!r} density {density:.3f} exceeds "
                    f"cap {b.max_density:.3f}",
                    severity=Severity.WARNING,
                    blockage=b.name,
                )
    for b, inst in layout.hard_blockage_hits():
        emit(f"{inst!r} intersects hard blockage {b.name!r}",
             blockage=b.name, instance=inst)


@rule(
    FROZEN_ASSETS,
    "frozen-assets",
    Severity.ERROR,
    "Every security asset must exist and be placed; every fixed "
    "(frozen) cell must be placed and must not have moved from its "
    "reference placement.",
    "restore the frozen cell to its reference site — operators must "
    "route around Layout.fixed, never through it.",
)
def _check_frozen_assets(ctx: LintContext, emit: EmitFn) -> None:
    layout = ctx.layout
    for name in sorted(ctx.assets or ()):
        if not layout.netlist.has_instance(name):
            emit(f"asset {name!r} is not in the netlist", instance=name)
        elif not layout.is_placed(name):
            emit(f"asset {name!r} is not placed", instance=name)
    for name in sorted(layout.fixed):
        if not layout.is_placed(name):
            emit(f"fixed cell {name!r} is not placed", instance=name)
            continue
        if ctx.reference_placements is not None:
            ref = ctx.reference_placements.get(name)
            if ref is None:
                continue
            cur = layout.placement(name)
            if cur != ref:
                emit(
                    f"fixed cell {name!r} moved from row {ref.row} site "
                    f"{ref.start} to row {cur.row} site {cur.start}",
                    instance=name,
                    row=cur.row,
                    site=cur.start,
                )


@rule(
    GAP_CONSERVATION,
    "gap-conservation",
    Severity.ERROR,
    "Site accounting must conserve: per row, used + free sites equal the "
    "row capacity; the gap graph's total weight equals the core's free "
    "sites; the row list agrees with the occupancy structures.",
    "the occupancy bookkeeping diverged from the row geometry — rebuild "
    "the layout rather than patching counters.",
    depends_on=(CELL_OVERLAP, PLACEMENT_BOUNDS),
)
def _check_gap_conservation(ctx: LintContext, emit: EmitFn) -> None:
    layout = ctx.layout
    if len(layout.rows) != len(layout.occupancy):
        emit(
            f"{len(layout.rows)} rows but {len(layout.occupancy)} occupancy "
            "records"
        )
        return
    total_free = 0
    for row, occ in zip(layout.rows, layout.occupancy):
        if row.num_sites != occ.row.num_sites or row.index != occ.row.index:
            emit(
                f"row {row.index} geometry desynchronized from its "
                f"occupancy ({row.num_sites} vs {occ.row.num_sites} sites)",
                row=row.index,
            )
            continue
        used = occ.used_sites()
        free = sum(len(iv) for iv in occ.free_intervals())
        if used + free != row.num_sites:
            emit(
                f"row {row.index}: used {used} + free {free} != capacity "
                f"{row.num_sites}",
                row=row.index,
            )
        total_free += free
    graph_weight = sum(c.weight for c in layout.gap_graph().components())
    if graph_weight != total_free:
        emit(
            f"gap graph weight {graph_weight} != free sites {total_free}",
        )


# ---------------------------------------------------------------------- #
# netlist rules
# ---------------------------------------------------------------------- #


@rule(
    DANGLING_NET,
    "dangling-net",
    Severity.ERROR,
    "Every net must have exactly one driver and at least one sink, and "
    "every pin it references must resolve to a real instance.",
    "reconnect or remove the dangling net; single-pin nets are malformed "
    "in this netlist model.",
)
def _check_dangling_net(ctx: LintContext, emit: EmitFn) -> None:
    netlist = ctx.layout.netlist
    for net in netlist.nets:
        if not net.has_driver:
            emit(f"net {net.name!r} has no driver", net=net.name)
        if net.num_sinks == 0:
            emit(f"net {net.name!r} has no sinks", net=net.name)
        for ref in [net.driver_pin, *net.sink_pins]:
            if ref is not None and not netlist.has_instance(ref.instance):
                emit(
                    f"net {net.name!r} references missing instance "
                    f"{ref.instance!r}",
                    net=net.name,
                    instance=ref.instance,
                )


@rule(
    PIN_CONNECTIVITY,
    "pin-connectivity",
    Severity.ERROR,
    "No net may have two drivers, and every pin of a functional "
    "instance must be connected.",
    "a multi-driven net means two outputs fight; disconnect one driver. "
    "Unconnected inputs float and break timing/power analysis.",
)
def _check_pin_connectivity(ctx: LintContext, emit: EmitFn) -> None:
    netlist = ctx.layout.netlist
    for net in netlist.nets:
        if net.driver_pin is not None and net.driver_port is not None:
            emit(
                f"net {net.name!r} is multi-driven: pin {net.driver_pin} "
                f"and port {net.driver_port!r}",
                net=net.name,
            )
    for inst in netlist.instances:
        if inst.is_filler:
            continue
        for pin in inst.master.pins:
            if pin.name not in inst.connections:
                emit(
                    f"pin {inst.name}/{pin.name} is unconnected",
                    instance=inst.name,
                    pin=pin.name,
                )


# ---------------------------------------------------------------------- #
# routing rules
# ---------------------------------------------------------------------- #


@rule(
    TRACK_CAPACITY,
    "track-capacity",
    Severity.WARNING,
    "Per-layer gcell track usage should stay within capacity; overflow "
    "beyond the DRC margin (the detailed-routing absorption threshold) "
    "is an error.",
    "rip-up and re-route the congested region, or relax the RWS scale "
    "on the overflowing layer.",
    requires_routing=True,
)
def _check_track_capacity(ctx: LintContext, emit: EmitFn) -> None:
    grid = ctx.routing.grid  # type: ignore[union-attr]
    hard = overflow_limit(grid.capacity)
    soft = np.maximum(
        grid.capacity * TRACK_SOFT_RATIO, grid.capacity + TRACK_SOFT_MARGIN
    )
    for layer, ix, iy in np.argwhere(grid.usage > soft):
        usage = float(grid.usage[layer, ix, iy])
        cap = float(grid.capacity[layer, ix, iy])
        severe = usage > float(hard[layer, ix, iy])
        emit(
            f"metal{int(layer) + 1} gcell ({int(ix)}, {int(iy)}) uses "
            f"{usage:.1f} of {cap:.1f} tracks"
            + (" (beyond DRC margin)" if severe else ""),
            severity=Severity.ERROR if severe else Severity.WARNING,
            layer=int(layer) + 1,
            gcell_x=int(ix),
            gcell_y=int(iy),
        )


# ---------------------------------------------------------------------- #
# serialization rules
# ---------------------------------------------------------------------- #


@rule(
    DEF_ROUNDTRIP,
    "def-roundtrip",
    Severity.ERROR,
    "Serializing the layout to DEF and parsing it back must reach a "
    "fixed point (identical text, identical placements).",
    "a non-idempotent DEF round trip means the writer and parser "
    "disagree — check for unescaped names or lossy formatting.",
    depends_on=(CELL_OVERLAP, PLACEMENT_BOUNDS, GAP_CONSERVATION),
)
def _check_def_roundtrip(ctx: LintContext, emit: EmitFn) -> None:
    from repro.layout.def_io import layout_from_def, layout_to_def

    layout = ctx.layout
    try:
        text = layout_to_def(layout)
        rebuilt = layout_from_def(text, layout.netlist, layout.technology)
        text2 = layout_to_def(rebuilt)
    except ReproError as exc:
        emit(f"DEF round trip failed: {exc}")
        return
    if text != text2:
        for i, (a, b) in enumerate(zip(text.splitlines(), text2.splitlines())):
            if a != b:
                emit(
                    f"DEF round trip is not a fixed point: line {i + 1} "
                    f"{a!r} became {b!r}",
                    line=i + 1,
                )
                return
        emit(
            "DEF round trip is not a fixed point: "
            f"{len(text.splitlines())} lines became "
            f"{len(text2.splitlines())}"
        )
        return
    if dict(rebuilt.placements) != dict(layout.placements):
        emit("DEF round trip changed placements")
    if rebuilt.fixed != layout.fixed:
        emit("DEF round trip changed the fixed-cell set")
