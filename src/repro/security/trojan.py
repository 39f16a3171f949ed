"""An additive-Trojan attacker: the paper's threat model, executable.

The attacker starts from the finalized layout (our stand-in for the GDSII),
recovers the exploitable regions, and tries to implant a Trojan shaped
after A2-class additive attacks: a small trigger (counter/logic gates) plus
a payload gate, placed into free sites near a security-critical victim and
wired to it through leftover routing tracks.  Per the threat model the
attacker may only *add* cells and wires, and delete the filler cells its
gates land on (Definition 2.2 counts filler sites as exploitable, see
:mod:`repro.place.fillers`) — functional cells and routes are never
moved or resized.

:func:`rank_regions` scans and ranks a target's exploitable regions at one
Thresh_ER; :func:`attempt_insertion` walks that ranking.  Both are pure
queries that never mutate the layout they attack (the red-team campaign's
rollback guarantee is "there is nothing to roll back").  A successful
report carries the concrete gate ``placements``; :func:`implant_wiring`
names the nets, pins and deleted fillers they imply.
:func:`materialize_implant` builds that implant as an *independent*
layout, deep-copied netlist included: the oracle that the red-team
surface's impact delta (:mod:`repro.redteam.impact`) must match, and the
design lint checks, without ever touching the victim design database.

Used by the validation benchmark and the :mod:`repro.redteam` campaign
engine: a defense works iff this attacker fails (or is pushed to regions
so small/far that insertion no longer closes timing).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutError, SecurityError
from repro.geometry import Point
from repro.layout.layout import Layout
from repro.netlist.netlist import PortDirection
from repro.security.assets import SecurityAssets
from repro.security.exploitable import (
    DEFAULT_THRESH_ER,
    ExploitableRegion,
    find_exploitable_regions,
)
from repro.timing.sta import STAResult

#: Tracks the tap + trigger wiring needs over the insertion area.
_WIRING_DEMAND_TRACKS = 4.0

#: Placement strategies :func:`attempt_insertion` understands.
STRATEGIES = ("first_fit", "random_fit")

#: Instance/net name prefix :func:`materialize_implant` reserves.
IMPLANT_PREFIX = "__trojan"


@dataclass(frozen=True)
class TrojanSpec:
    """Shape of the Trojan the attacker tries to insert.

    The default mirrors an A2-class footprint: A2's analog trigger needs no
    flip-flop (a charge pump stands in for the counter), so the digital
    equivalent is a handful of small gates — trigger logic plus a payload
    gate — totalling ``DEFAULT_THRESH_ER`` region sites.  A counter-based
    digital Trojan (add a ``"DFF_X1"`` to the list) needs a 12-site gap and
    is correspondingly easier to deny.

    ``tap_limit_um`` bounds how far (µm, L1) the insertion region may sit
    from its victim — a distance *exactly at* the limit still passes, per
    the campaign grid's boundary semantics.  ``strategy`` selects the gap
    packing order: ``"first_fit"`` is the deterministic
    biggest-gaps-first packing, ``"random_fit"`` shuffles gate and gap
    order with the caller's seeded RNG (the Monte Carlo campaign axis).
    """

    gate_masters: Tuple[str, ...] = (
        "NAND2_X1",
        "NAND2_X1",
        "NAND2_X1",
        "NAND2_X1",
        "INV_X1",
        "INV_X1",
    )
    #: extra tracks needed over the region for trigger-internal wiring
    wiring_demand: float = _WIRING_DEMAND_TRACKS
    #: max region-to-victim distance in µm (``None`` = unbounded)
    tap_limit_um: Optional[float] = None
    #: gap packing order: ``"first_fit"`` or ``"random_fit"``
    strategy: str = "first_fit"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SecurityError(
                f"unknown placement strategy {self.strategy!r}; "
                f"pick one of {STRATEGIES}"
            )
        if not self.gate_masters:
            raise SecurityError("a Trojan needs at least one gate")

    def total_sites(self, layout: Layout) -> int:
        """Total sites the Trojan gates occupy."""
        lib = layout.netlist.library
        return sum(lib.cell(m).width_sites for m in self.gate_masters)


@dataclass
class AttackReport:
    """Outcome of one insertion attempt.

    ``placements`` holds the concrete ``(master, row, start)`` gate
    assignments of a successful attempt (empty on failure), and
    ``victim`` names the asset the tap corridor targets — together they
    are everything :func:`implant_wiring` needs to describe the implant.
    """

    success: bool
    reason: str
    region_sites: int = 0
    gates_placed: int = 0
    tap_length_um: float = 0.0
    region_distance_um: float = 0.0
    placements: Tuple[Tuple[str, int, int], ...] = field(default=())
    victim: Optional[str] = None

    def __bool__(self) -> bool:
        return self.success


def _nearest_asset_distance(
    layout: Layout, region: ExploitableRegion, assets: SecurityAssets
) -> Tuple[float, Optional[str]]:
    """Closest asset to the region (µm, L1 between rectangles)."""
    best = float("inf")
    best_name: Optional[str] = None
    rects = region.gap_rects(layout)
    for name in assets:
        if not layout.is_placed(name):
            continue
        asset_rect = layout.cell_rect(name)
        for rect in rects:
            d = rect.manhattan_distance_to_rect(asset_rect)
            if d < best:
                best = d
                best_name = name
    return best, best_name


def _try_place_gates(
    layout: Layout,
    region: ExploitableRegion,
    spec: TrojanSpec,
    rng: Optional[np.random.Generator] = None,
) -> Optional[List[Tuple[str, int, int]]]:
    """Fit the Trojan gates into the region's gaps (strategy-dependent).

    ``first_fit`` packs the widest gates into the heaviest gaps first;
    ``random_fit`` shuffles both orders with ``rng`` (seeded by the
    campaign, so a given attempt seed reproduces bitwise).  Returns the
    (master, row, start) assignments without mutating the layout, or
    ``None`` when the gates do not fit under the chosen order.
    """
    lib = layout.netlist.library
    widths = [lib.cell(m).width_sites for m in spec.gate_masters]
    if spec.strategy == "random_fit":
        if rng is None:
            rng = np.random.default_rng(0)
        order = list(rng.permutation(len(widths)))
        gaps = list(region.component.gaps)
        gap_order = rng.permutation(len(gaps))
        gaps = [gaps[int(i)] for i in gap_order]
    else:
        order = sorted(range(len(widths)), key=lambda i: -widths[i])
        gaps = sorted(region.component.gaps, key=lambda g: -g.weight)
    remaining = [[g.row, g.lo, g.hi] for g in gaps]
    placements: List[Optional[Tuple[str, int, int]]] = [None] * len(widths)
    for idx in order:
        w = widths[idx]
        placed = False
        for slot in remaining:
            if slot[2] - slot[1] >= w:
                placements[idx] = (spec.gate_masters[idx], slot[0], slot[1])
                slot[1] += w
                placed = True
                break
        if not placed:
            return None
    return [p for p in placements if p is not None]


@dataclass(frozen=True)
class RegionRanking:
    """A target's exploitable regions at one Thresh_ER, best first.

    ``candidates`` holds ``(region, distance_um, victim)`` for every region
    with a placed asset to target, sorted by ``sites / (1 + distance)``
    descending (stable).  ``num_regions`` counts every region the scan
    found, so an empty ranking still tells "nothing exploitable" apart
    from "no placed asset".
    """

    thresh_er: int
    num_regions: int
    candidates: Tuple[Tuple[ExploitableRegion, float, str], ...]


def rank_regions(
    layout: Layout,
    sta: STAResult,
    assets: SecurityAssets,
    thresh_er: int = DEFAULT_THRESH_ER,
    routing: Optional[object] = None,
) -> RegionRanking:
    """Scan the exploitable regions and rank them for an attacker.

    A pure function of the target and ``thresh_er``: the red-team
    surface computes it once per Thresh_ER and hands it to every
    :func:`attempt_insertion` through ``ranked=``.
    """
    report = find_exploitable_regions(
        layout, sta, assets, thresh_er=thresh_er, routing=routing
    )
    scored = []
    for region in report.regions:
        dist, victim = _nearest_asset_distance(layout, region, assets)
        if victim is None:
            continue
        scored.append((region.num_sites / (1.0 + dist), region, dist, victim))
    scored.sort(key=lambda t: -t[0])
    return RegionRanking(
        thresh_er=thresh_er,
        num_regions=len(report.regions),
        candidates=tuple((r, d, v) for _, r, d, v in scored),
    )


def attempt_insertion(
    layout: Layout,
    sta: STAResult,
    assets: SecurityAssets,
    routing: Optional[object] = None,
    spec: TrojanSpec = TrojanSpec(),
    thresh_er: int = DEFAULT_THRESH_ER,
    rng: Optional[np.random.Generator] = None,
    ranked: Optional[RegionRanking] = None,
) -> AttackReport:
    """Try to insert the Trojan; the layout itself is never mutated.

    The attack succeeds when some exploitable region (1) holds all the
    Trojan gates under the spec's placement strategy, (2) sits within the
    spec's tap-distance limit of a victim (a distance exactly at the
    limit passes), and (3) — when a routing result is supplied — has
    enough free tracks over the tap corridor between the region and its
    victim.  Regions are tried best-ranked first (:func:`rank_regions`).

    Args:
        rng: Seeded generator consumed by the ``random_fit`` strategy:
            two permutation draws (gate order, then gap order) for every
            ranked region within the tap limit that is tried, until the
            attempt succeeds.  Ignored by ``first_fit``.
        ranked: This target's :func:`rank_regions` at ``thresh_er``;
            computed here when omitted.

    Returns:
        An :class:`AttackReport` describing the best attempt.

    Raises:
        SecurityError: When ``ranked`` was made at another Thresh_ER.
    """
    if ranked is None:
        ranked = rank_regions(layout, sta, assets, thresh_er, routing)
    elif ranked.thresh_er != thresh_er:
        raise SecurityError(
            f"region ranking is for Thresh_ER {ranked.thresh_er}, "
            f"not {thresh_er}"
        )
    if not ranked.num_regions:
        return AttackReport(
            success=False, reason="no exploitable regions remain"
        )
    if not ranked.candidates:
        return AttackReport(
            success=False,
            reason="no placed security asset to target",
        )

    best_failure = AttackReport(
        success=False, reason="no region fits the Trojan gates"
    )
    for region, dist, victim in ranked.candidates:
        if spec.tap_limit_um is not None and dist > spec.tap_limit_um:
            best_failure = AttackReport(
                success=False,
                reason=(
                    f"region of {region.num_sites} sites sits "
                    f"{dist:.2f} um from its victim, beyond the "
                    f"{spec.tap_limit_um:.2f} um tap limit"
                ),
                region_sites=region.num_sites,
                region_distance_um=dist,
            )
            continue
        gates = _try_place_gates(layout, region, spec, rng=rng)
        if gates is None:
            continue
        # Tap-corridor routing feasibility.
        if routing is not None:
            victim_rect = layout.cell_rect(victim)
            region_rect = region.gap_rects(layout)[0]
            corridor = victim_rect.union_bbox(region_rect)
            free = routing.grid.free_tracks_over(corridor)
            if free < spec.wiring_demand:
                best_failure = AttackReport(
                    success=False,
                    reason=(
                        f"region of {region.num_sites} sites fits the gates "
                        f"but only {free:.1f} free tracks remain over the "
                        f"tap corridor (need {spec.wiring_demand})"
                    ),
                    region_sites=region.num_sites,
                    gates_placed=len(gates),
                    region_distance_um=dist,
                )
                continue
        return AttackReport(
            success=True,
            reason="trojan gates placed and tap corridor routable",
            region_sites=region.num_sites,
            gates_placed=len(gates),
            tap_length_um=dist,
            region_distance_um=dist,
            placements=tuple(gates),
            victim=victim,
        )
    return best_failure


@dataclass(frozen=True)
class ImplantGate:
    """One Trojan gate: its instance, site and pin-to-net wiring.

    ``inputs`` and ``outputs`` list ``(pin, net)`` in the order the
    implant connects them (the master's pin order).
    """

    name: str
    master: str
    row: int
    start: int
    inputs: Tuple[Tuple[str, str], ...]
    outputs: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class ImplantWiring:
    """How a successful attack hooks its Trojan into the design.

    The one description both :func:`materialize_implant` and the
    red-team impact delta (:mod:`repro.redteam.impact`) build from, so
    the two cannot drift apart.  ``nets`` are the Trojan nets in creation
    order (one output net per gate); the payload leaves through
    ``leak_port`` on ``nets[-1]``, pinned at ``leak_position``.
    ``fillers`` are the filler cells the gates cover, which the attacker
    deletes.
    """

    tap_net: str
    gates: Tuple[ImplantGate, ...]
    nets: Tuple[str, ...]
    leak_port: str
    leak_position: Point
    fillers: Tuple[str, ...]


def implant_wiring(
    layout: Layout, report: AttackReport, prefix: str = IMPLANT_PREFIX
) -> ImplantWiring:
    """Name the nets, pins and deleted fillers of a report's implant.

    Wiring follows the A2 shape: the victim's output net is tapped as the
    trigger input, the trojan gates chain combinationally (each gate's
    first data input reads the previous gate's net, spare data inputs
    re-tap the victim net), and the payload output leaves through a
    ``<prefix>_leak`` port on the core boundary nearest the last gate.  A
    flip-flop's clock pin reads the design's clock net when one exists
    and the tap net on clock-less designs.

    Raises:
        SecurityError: When the report is not a successful one or names
            no victim with a driven output net.
        LayoutError: When a gate's row is outside the core (the message
            :meth:`Layout.place` gives).
    """
    if not report.success or not report.placements:
        raise SecurityError(
            "an implant needs a successful report with placements"
        )
    if report.victim is None:
        raise SecurityError("attack report names no victim to tap")
    netlist = layout.netlist
    victim = netlist.instance(report.victim)
    tap_net: Optional[str] = None
    for pin in victim.master.output_pins:
        net_name = victim.connections.get(pin.name)
        if net_name is not None:
            tap_net = net_name
            break
    if tap_net is None:
        raise SecurityError(
            f"victim {report.victim!r} has no driven output net to tap"
        )

    lib = netlist.library
    clock_net: Optional[str] = None
    gates: List[ImplantGate] = []
    fillers: Dict[str, None] = {}
    prev_net = tap_net
    for i, (master_name, row, start) in enumerate(report.placements):
        name = f"{prefix}_g{i}"
        master = lib.cell(master_name)
        if not 0 <= row < layout.num_rows:
            raise LayoutError(f"row {row} out of range for {name!r}")
        out_net = f"{prefix}_n{i}"
        inputs: List[Tuple[str, str]] = []
        chained = False
        for pin in master.input_pins:
            if pin.is_clock:
                if clock_net is None:
                    clock_nets = sorted(netlist.clock_nets())
                    clock_net = clock_nets[0] if clock_nets else tap_net
                inputs.append((pin.name, clock_net))
            elif not chained:
                inputs.append((pin.name, prev_net))
                chained = True
            else:
                inputs.append((pin.name, tap_net))
        gates.append(
            ImplantGate(
                name=name,
                master=master_name,
                row=row,
                start=start,
                inputs=tuple(inputs),
                outputs=tuple((p.name, out_net) for p in master.output_pins),
            )
        )
        occ = layout.occupancy[row]
        cells = occ.placements
        k = max(bisect.bisect_right(occ.starts, start) - 1, 0)
        while k < len(cells) and cells[k].start < start + master.width_sites:
            cell = cells[k]
            if cell.end > start and netlist.instance(cell.name).is_filler:
                fillers[cell.name] = None
            k += 1
        prev_net = out_net

    last = gates[-1]
    center = layout.span_rect(
        last.row, last.start, lib.cell(last.master).width_sites
    ).center
    core = layout.core
    return ImplantWiring(
        tap_net=tap_net,
        gates=tuple(gates),
        nets=tuple(f"{prefix}_n{i}" for i in range(len(gates))),
        leak_port=f"{prefix}_leak",
        leak_position=Point(core.xhi, min(max(center.y, core.ylo), core.yhi)),
        fillers=tuple(fillers),
    )


def materialize_implant(
    layout: Layout,
    report: AttackReport,
    spec: TrojanSpec = TrojanSpec(),
    prefix: str = IMPLANT_PREFIX,
) -> Layout:
    """Build an implanted copy of ``layout`` from a successful report.

    The original layout and its netlist are never touched: the implant
    lives on a :meth:`~repro.netlist.netlist.Netlist.copy` of the design
    (the layout's netlist is shared-by-reference across clones, so
    mutating it in place would corrupt every other view of the design).
    The gates, nets and leak port are those :func:`implant_wiring`
    names; the fillers under the gates stay out of the copy's placement.
    ``spec`` is accepted for symmetry with :func:`attempt_insertion`; the
    report's placements already name every gate master.

    Returns:
        A new, independent :class:`Layout` with the trojan placed and
        wired: the oracle for STA/DRC/lint impact measurement.

    Raises:
        SecurityError: When the report is not a successful one or names
            no victim.
        LayoutError: When a gate lands on a non-filler cell.
    """
    wiring = implant_wiring(layout, report, prefix)
    deleted = set(wiring.fillers)
    netlist = layout.netlist.copy()
    implanted = Layout(
        netlist,
        layout.technology,
        num_rows=layout.num_rows,
        sites_per_row=layout.sites_per_row,
    )
    for name, pl in layout.placements.items():
        if name not in deleted:
            implanted.place(name, pl.row, pl.start)
    for blockage in layout.blockages.values():
        implanted.add_blockage(blockage)
    implanted.fixed = set(layout.fixed) - deleted
    implanted.port_positions = dict(layout.port_positions)

    for gate, out_net in zip(wiring.gates, wiring.nets):
        netlist.add_instance(gate.name, gate.master)
        netlist.add_net(out_net)
        for pin, net_name in gate.inputs + gate.outputs:
            netlist.connect(gate.name, pin, net_name)
        implanted.place(gate.name, gate.row, gate.start)

    # The payload leaves through an attacker-added boundary port so the
    # implanted netlist stays fully connected (no dangling net).
    netlist.add_port(wiring.leak_port, PortDirection.OUTPUT)
    netlist.connect_port(wiring.leak_port, wiring.nets[-1])
    implanted.port_positions[wiring.leak_port] = wiring.leak_position
    netlist.validate()
    return implanted
